type t = Alloc_caps | Alloc_weights | Equal_weights

let consumptions policy ~capacity ~estimated_allocations ~true_needs =
  let j_count = Array.length true_needs in
  if Array.length estimated_allocations <> j_count then
    invalid_arg "Policy.consumptions: length mismatch";
  match policy with
  | Alloc_caps ->
      Array.init j_count (fun j ->
          Float.min estimated_allocations.(j) true_needs.(j))
  | Alloc_weights ->
      let weights =
        (* Degenerate all-zero estimates (every service estimated at zero
           need) fall back to equal sharing, which is what a
           work-conserving scheduler does with uniform default weights. *)
        if Array.for_all (fun w -> w <= 0.) estimated_allocations then
          Array.make j_count 1.
        else estimated_allocations
      in
      Work_conserving.allocate ~capacity ~weights ~needs:true_needs
  | Equal_weights ->
      Work_conserving.allocate ~capacity
        ~weights:(Array.make j_count 1.)
        ~needs:true_needs

let yields policy ~capacity ~estimated_allocations ~true_needs =
  let alloc =
    consumptions policy ~capacity ~estimated_allocations ~true_needs
  in
  Array.mapi
    (fun j a ->
      if true_needs.(j) <= 0. then 1.
      else Float.min 1. (a /. true_needs.(j)))
    alloc

let min_yield policy ~capacity ~estimated_allocations ~true_needs =
  let ys = yields policy ~capacity ~estimated_allocations ~true_needs in
  Array.fold_left Float.min 1. ys
