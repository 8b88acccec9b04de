type solution = { objective : float; x : float array }

type result = Optimal of solution | Infeasible | Unbounded

let feasibility_tol = 1e-7

let pivot_tol = 1e-9

let reduced_cost_tol = 1e-9

(* Shared counter names with the revised solver (lib/obs registration is
   idempotent), so counter assertions read the same names whichever solver
   served a solve. *)
let c_pivots = Obs.Metrics.counter "simplex.pivots"
let c_phase1_iters = Obs.Metrics.counter "simplex.phase1_iterations"
let c_degenerate = Obs.Metrics.counter "simplex.degenerate_pivots"
let c_bland = Obs.Metrics.counter "simplex.bland_switches"

let default_bland_after_degenerate = 16

(* Internal row form: dense coefficients over the structural variables,
   relation and rhs, after lower-bound shifting and rhs sign normalization
   are applied by [prepare]. *)
type row = { mutable a : float array; mutable rel : Lp.Problem.relation;
             mutable b : float }

let prepare (p : Lp.Problem.t) =
  let n = p.n_vars in
  (* Shift x = x' + lower so that all variables have lower bound 0. *)
  let shift = p.lower in
  let rows =
    List.map
      (fun (cstr : Lp.Problem.linear_constraint) ->
        let a = Array.make n 0. in
        List.iter (fun (v, coef) -> a.(v) <- a.(v) +. coef) cstr.coeffs;
        let offset = ref 0. in
        for v = 0 to n - 1 do
          offset := !offset +. (a.(v) *. shift.(v))
        done;
        { a; rel = cstr.relation; b = cstr.rhs -. !offset })
      p.constraints
  in
  (* Finite upper bounds become explicit <= rows (in shifted space the bound
     is upper - lower). *)
  let upper_rows = ref [] in
  for v = n - 1 downto 0 do
    if Float.is_finite p.upper.(v) then begin
      let a = Array.make n 0. in
      a.(v) <- 1.;
      upper_rows := { a; rel = Lp.Problem.Le; b = p.upper.(v) -. shift.(v) }
                    :: !upper_rows
    end
  done;
  let rows = Array.of_list (rows @ !upper_rows) in
  (* Normalize to b >= 0. *)
  Array.iter
    (fun r ->
      if r.b < 0. then begin
        r.a <- Array.map (fun x -> -.x) r.a;
        r.b <- -.r.b;
        r.rel <-
          (match r.rel with
          | Lp.Problem.Le -> Lp.Problem.Ge
          | Lp.Problem.Ge -> Lp.Problem.Le
          | Lp.Problem.Eq -> Lp.Problem.Eq)
      end)
    rows;
  rows

(* Column layout of the tableau: [0, n) structural, [n, n + n_slack) slack /
   surplus, [n + n_slack, n_cols) artificial; extra rhs column at index
   n_cols. *)
type tableau = {
  t : float array array;  (* m rows, each of length n_cols + 1 *)
  obj : float array;      (* reduced-cost row, length n_cols + 1 *)
  basis : int array;      (* basic column of each row *)
  n_struct : int;
  art_start : int;        (* first artificial column *)
  n_cols : int;
}

let build_tableau n rows =
  let m = Array.length rows in
  let n_slack = ref 0 and n_art = ref 0 in
  Array.iter
    (fun r ->
      match r.rel with
      | Lp.Problem.Le -> incr n_slack
      | Lp.Problem.Ge -> incr n_slack; incr n_art
      | Lp.Problem.Eq -> incr n_art)
    rows;
  let n_cols = n + !n_slack + !n_art in
  let t = Array.init m (fun _ -> Array.make (n_cols + 1) 0.) in
  let basis = Array.make m (-1) in
  let slack = ref n and art = ref (n + !n_slack) in
  Array.iteri
    (fun i r ->
      Array.blit r.a 0 t.(i) 0 n;
      t.(i).(n_cols) <- r.b;
      (match r.rel with
      | Lp.Problem.Le ->
          t.(i).(!slack) <- 1.;
          basis.(i) <- !slack;
          incr slack
      | Lp.Problem.Ge ->
          t.(i).(!slack) <- -1.;
          incr slack;
          t.(i).(!art) <- 1.;
          basis.(i) <- !art;
          incr art
      | Lp.Problem.Eq ->
          t.(i).(!art) <- 1.;
          basis.(i) <- !art;
          incr art))
    rows;
  {
    t;
    obj = Array.make (n_cols + 1) 0.;
    basis;
    n_struct = n;
    art_start = n + !n_slack;
    n_cols;
  }

(* Returns whether the pivot was degenerate (leaving row rhs ≈ 0): the basis
   changes but the point does not move, the precondition for cycling. *)
let pivot tab ~row ~col =
  Obs.Metrics.incr c_pivots;
  Lp.Pivot_clock.tick ();
  let t = tab.t and n_cols = tab.n_cols in
  let degenerate = Float.abs t.(row).(n_cols) <= feasibility_tol in
  if degenerate then Obs.Metrics.incr c_degenerate;
  let pr = t.(row) in
  let piv = pr.(col) in
  for j = 0 to n_cols do
    pr.(j) <- pr.(j) /. piv
  done;
  pr.(col) <- 1.;
  let eliminate target =
    let f = target.(col) in
    if Float.abs f > 0. then begin
      for j = 0 to n_cols do
        target.(j) <- target.(j) -. (f *. pr.(j))
      done;
      target.(col) <- 0.
    end
  in
  Array.iteri (fun i r -> if i <> row then eliminate r) t;
  eliminate tab.obj;
  tab.basis.(row) <- col;
  degenerate

exception Unbounded_direction

(* One simplex phase on the current objective row; [blocked col] excludes
   columns (artificials in phase 2) from entering. Minimization convention:
   entering columns have reduced cost < -tol. Returns unit; raises
   [Unbounded_direction] when a column can decrease forever.

   Anti-cycling: Dantzig pricing switches permanently to Bland's rule either
   after an overall iteration budget (the pre-existing guard) or as soon as
   [bland_after_degenerate] consecutive degenerate pivots occur — the streak
   is the actual cycling signature, so the switch now fires while a cycle is
   still tight instead of after thousands of wasted pivots. *)
let run_phase ?(blocked = fun _ -> false) ?iters_counter
    ?(bland_after_degenerate = default_bland_after_degenerate)
    ~max_iterations tab =
  let m = Array.length tab.t and n_cols = tab.n_cols in
  let bland_after = max 5_000 (10 * (m + n_cols)) in
  let iters = ref 0 in
  let bland = ref false in
  let degenerate_streak = ref 0 in
  let choose_entering () =
    if (not !bland) && !iters > bland_after then begin
      bland := true;
      Obs.Metrics.incr c_bland
    end;
    if !bland then begin
      (* Bland: smallest eligible index. *)
      let rec loop j =
        if j >= n_cols then None
        else if (not (blocked j)) && tab.obj.(j) < -.reduced_cost_tol then
          Some j
        else loop (j + 1)
      in
      loop 0
    end
    else begin
      (* Dantzig: most negative reduced cost. *)
      let best = ref (-1) and best_v = ref (-.reduced_cost_tol) in
      for j = 0 to n_cols - 1 do
        if (not (blocked j)) && tab.obj.(j) < !best_v then begin
          best := j;
          best_v := tab.obj.(j)
        end
      done;
      if !best >= 0 then Some !best else None
    end
  in
  let choose_leaving col =
    let best = ref (-1) and best_ratio = ref infinity in
    for i = 0 to m - 1 do
      let a = tab.t.(i).(col) in
      if a > pivot_tol then begin
        let ratio = tab.t.(i).(n_cols) /. a in
        if
          ratio < !best_ratio -. 1e-12
          || (Float.abs (ratio -. !best_ratio) <= 1e-12
              && !best >= 0
              && tab.basis.(i) < tab.basis.(!best))
        then begin
          best := i;
          best_ratio := ratio
        end
      end
    done;
    if !best >= 0 then Some !best else None
  in
  let rec loop () =
    incr iters;
    (match iters_counter with
    | Some c -> Obs.Metrics.incr c
    | None -> ());
    if !iters > max_iterations then
      failwith "Dense_simplex: iteration limit exceeded";
    match choose_entering () with
    | None -> ()
    | Some col -> (
        match choose_leaving col with
        | None -> raise Unbounded_direction
        | Some row ->
            let degenerate = pivot tab ~row ~col in
            if degenerate then begin
              incr degenerate_streak;
              if (not !bland) && !degenerate_streak >= bland_after_degenerate
              then begin
                bland := true;
                Obs.Metrics.incr c_bland
              end
            end
            else degenerate_streak := 0;
            loop ())
  in
  loop ()

(* Rebuild the reduced-cost row for cost vector [cost] (length n_cols; rhs
   cell set to 0) priced out against the current basis. *)
let set_objective tab cost =
  let n_cols = tab.n_cols in
  Array.blit cost 0 tab.obj 0 n_cols;
  tab.obj.(n_cols) <- 0.;
  Array.iteri
    (fun i b ->
      let cb = cost.(b) in
      if cb <> 0. then begin
        let row = tab.t.(i) in
        for j = 0 to n_cols do
          tab.obj.(j) <- tab.obj.(j) -. (cb *. row.(j))
        done
      end)
    tab.basis

(* After phase 1, drive artificial variables out of the basis. Rows where no
   non-artificial pivot exists are redundant; their artificial stays basic at
   value 0, which is harmless because artificials are blocked in phase 2. *)
let expel_artificials tab =
  let m = Array.length tab.t in
  for i = 0 to m - 1 do
    if tab.basis.(i) >= tab.art_start then begin
      let col = ref (-1) in
      let j = ref 0 in
      while !col < 0 && !j < tab.art_start do
        if Float.abs tab.t.(i).(!j) > 1e-7 then col := !j;
        incr j
      done;
      if !col >= 0 then ignore (pivot tab ~row:i ~col:!col : bool)
    end
  done

let solve ?max_iterations ?bland_after_degenerate (p : Lp.Problem.t) =
  let n = p.n_vars in
  let rows = prepare p in
  let tab = build_tableau n rows in
  let m = Array.length tab.t in
  let max_iterations =
    match max_iterations with
    | Some k -> k
    | None -> max 20_000 (50 * (m + tab.n_cols))
  in
  (* Phase 1: minimize the sum of artificials. *)
  let phase1_cost = Array.make tab.n_cols 0. in
  for j = tab.art_start to tab.n_cols - 1 do
    phase1_cost.(j) <- 1.
  done;
  set_objective tab phase1_cost;
  (match
     run_phase ~iters_counter:c_phase1_iters ?bland_after_degenerate
       ~max_iterations tab
   with
  | () -> ()
  | exception Unbounded_direction ->
      (* Phase 1 objective is bounded below by 0; cannot happen. *)
      assert false);
  let phase1_value = -.tab.obj.(tab.n_cols) in
  if phase1_value > feasibility_tol then Infeasible
  else begin
    expel_artificials tab;
    (* Phase 2 on the real objective, in minimization convention. *)
    let sign = match p.sense with Lp.Problem.Minimize -> 1. | Maximize -> -1. in
    let phase2_cost = Array.make tab.n_cols 0. in
    (* Costs apply to shifted variables; the constant sign *. c'lower is
       re-added when reporting. *)
    for v = 0 to n - 1 do
      phase2_cost.(v) <- sign *. p.objective.(v)
    done;
    set_objective tab phase2_cost;
    let blocked j = j >= tab.art_start in
    match run_phase ~blocked ?bland_after_degenerate ~max_iterations tab with
    | exception Unbounded_direction -> Unbounded
    | () ->
        let x = Array.copy p.lower in
        Array.iteri
          (fun i b ->
            if b < n then begin
              let v = tab.t.(i).(tab.n_cols) in
              let v = if Float.abs v < feasibility_tol then 0. else v in
              x.(b) <- x.(b) +. v
            end)
          tab.basis;
        (* Clamp tiny bound violations from floating-point drift. *)
        for v = 0 to n - 1 do
          if x.(v) < p.lower.(v) then x.(v) <- p.lower.(v);
          if x.(v) > p.upper.(v) then x.(v) <- p.upper.(v)
        done;
        Optimal { objective = Lp.Problem.objective_value p x; x }
  end
