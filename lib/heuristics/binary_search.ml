let default_tolerance = 1e-4

(* A non-positive tolerance would make the bisection loop non-terminating
   (the bracket can never become narrower than 0), so it is clamped to the
   paper's threshold rather than trusted. *)
let clamp_tolerance tolerance =
  if tolerance <= 0. then default_tolerance else tolerance

(* Every probe passes through [announce], so the round/probe counters live
   here. A round holds exactly one probe, so the two always agree; both
   stay because golden pins and the benchmark read them by name. *)
let c_rounds = Obs.Metrics.counter "binary_search.rounds"
let c_probes = Obs.Metrics.counter "binary_search.probes"

let announce on_round y =
  Obs.Metrics.incr c_rounds;
  Obs.Metrics.incr c_probes;
  match on_round with Some f -> f y | None -> ()

(* State-threading search: the oracle receives an accumulator alongside
   the probed yield and returns the updated accumulator with the verdict.
   The state rides along (LP warm-start bases in
   {!Milp.relaxed_yield_search}), it never steers the search, so warm and
   cold searches take the same probe path. *)
let maximize_warm ?(tolerance = default_tolerance) ?on_round ~init oracle =
  let tolerance = clamp_tolerance tolerance in
  let probe state y =
    announce on_round y;
    oracle state y
  in
  let rec bisect state best lo hi =
    if hi -. lo > tolerance then begin
      let mid = 0.5 *. (lo +. hi) in
      match probe state mid with
      | state, Some sol -> bisect state (sol, mid) mid hi
      | state, None -> bisect state best lo mid
    end
    else Some best
  in
  match probe init 1. with
  | _, Some sol -> Some (sol, 1.)
  | state, None -> (
      match probe state 0. with
      | _, None -> None
      | state, Some sol -> bisect state (sol, 0.) 0. 1.)

let maximize ?tolerance ?on_round oracle =
  maximize_warm ?tolerance ?on_round ~init:()
    (fun () y -> ((), oracle y))
