let maximize ?(tolerance = Heuristics.Binary_search.default_tolerance)
    oracle =
  let tolerance =
    if tolerance <= 0. then Heuristics.Binary_search.default_tolerance
    else tolerance
  in
  match oracle 1. with
  | Some sol -> Some (sol, 1.)
  | None -> (
      match oracle 0. with
      | None -> None
      | Some sol0 ->
          let best = ref (sol0, 0.) in
          let lo = ref 0. and hi = ref 1. in
          while !hi -. !lo > tolerance do
            let mid = 0.5 *. (!lo +. !hi) in
            match oracle mid with
            | Some sol ->
                best := (sol, mid);
                lo := mid
            | None -> hi := mid
          done;
          Some !best)
