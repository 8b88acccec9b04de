let epsilon = 1e-4

let allocate ~capacity ~weights ~needs =
  let j_count = Array.length needs in
  if Array.length weights <> j_count then
    invalid_arg "Work_conserving.allocate: length mismatch";
  if capacity < 0. then
    invalid_arg "Work_conserving.allocate: negative capacity";
  Array.iter
    (fun w ->
      if w < 0. then invalid_arg "Work_conserving.allocate: negative weight")
    weights;
  Array.iter
    (fun n ->
      if n < 0. then invalid_arg "Work_conserving.allocate: negative need")
    needs;
  let total_need = Array.fold_left ( +. ) 0. needs in
  let total_weight = Array.fold_left ( +. ) 0. weights in
  if total_weight <= 0. && total_need > 0. then
    invalid_arg "Work_conserving.allocate: all weights zero";
  let alloc = Array.make j_count 0. in
  let satisfied = Array.make j_count false in
  (* Zero-need services are satisfied from the start. *)
  Array.iteri (fun j n -> if n <= 0. then satisfied.(j) <- true) needs;
  let remaining = ref capacity in
  let continue_ = ref true in
  while !continue_ do
    let active_weight = ref 0. in
    Array.iteri
      (fun j w -> if not satisfied.(j) then active_weight := !active_weight +. w)
      weights;
    if !remaining <= epsilon || !active_weight <= 0. then continue_ := false
    else begin
      let pool = !remaining in
      let newly_satisfied = ref 0 in
      Array.iteri
        (fun j w ->
          if not satisfied.(j) then begin
            let share = pool *. w /. !active_weight in
            let missing = needs.(j) -. alloc.(j) in
            if missing <= share +. epsilon then begin
              (* Satisfied (within epsilon): consume what is missing but
                 never more than the share, so capacity is never
                 overdrawn; the rest of the share returns to the pool. *)
              let consumed = Float.min missing share in
              alloc.(j) <- alloc.(j) +. consumed;
              remaining := !remaining -. consumed;
              satisfied.(j) <- true;
              incr newly_satisfied
            end
            else begin
              alloc.(j) <- alloc.(j) +. share;
              remaining := !remaining -. share
            end
          end)
        weights;
      (* Progress only happens when someone got satisfied and freed
         capacity for redistribution; otherwise all shares were consumed
         fully and the resource is exhausted. *)
      if !newly_satisfied = 0 then continue_ := false
    end
  done;
  (* A service counts as satisfied once what it misses is within epsilon
     of its share, but takes at most that share; it would stay short even
     with capacity left over. Top such services up from what the rounds
     left, in index order. *)
  Array.iteri
    (fun j n ->
      let short = n -. alloc.(j) in
      if satisfied.(j) && short > 0. && !remaining > 0. then begin
        let top_up = Float.min short !remaining in
        alloc.(j) <- alloc.(j) +. top_up;
        remaining := !remaining -. top_up
      end)
    needs;
  alloc
