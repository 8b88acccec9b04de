let bound j =
  if j <= 0 then invalid_arg "Theorem.bound: J must be positive";
  let j = float_of_int j in
  ((2. *. j) -. 1.) /. (j *. j)

let optimal_min_yield ~needs =
  let total = Array.fold_left ( +. ) 0. needs in
  if total <= 0. then 1. else Float.min 1. (1. /. total)

let competitive_ratio ~needs =
  let opt = optimal_min_yield ~needs in
  if opt <= 0. then 1.
  else
    Policy.min_yield Policy.Equal_weights ~capacity:1.
      ~estimated_allocations:needs ~true_needs:needs
    /. opt

let worst_case_instance j =
  if j <= 0 then invalid_arg "Theorem.worst_case_instance: J must be positive";
  Array.init j (fun i -> if i = 0 then 1. else 1. /. float_of_int j)
