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

(* The one yield-search state machine. Each [plan_next] consumes the
   verdict at the outstanding point and emits the next point: 1, then 0,
   then [0.5 *. (lo +. hi)] while the bracket is wider than the
   tolerance. *)
type stage = Init | Await_one | Await_zero | Await_mid | Finished

type 'a plan = {
  p_tolerance : float;
  p_on_round : (float -> unit) option;
  mutable p_stage : stage;
  mutable p_lo : float;
  mutable p_hi : float;
  mutable p_best : ('a * float) option;
  mutable p_point : float;  (* the outstanding probe *)
}

let plan ?(tolerance = default_tolerance) ?on_round () =
  {
    p_tolerance = clamp_tolerance tolerance;
    p_on_round = on_round;
    p_stage = Init;
    p_lo = 0.;
    p_hi = 1.;
    p_best = None;
    p_point = Float.nan;
  }

let emit p stage y =
  p.p_stage <- stage;
  p.p_point <- y;
  announce p.p_on_round y;
  Some y

let finish p =
  p.p_stage <- Finished;
  None

let bisect p =
  if p.p_hi -. p.p_lo > p.p_tolerance then
    emit p Await_mid (0.5 *. (p.p_lo +. p.p_hi))
  else finish p

let plan_next p ~prev =
  match (p.p_stage, prev) with
  | Finished, _ -> None
  | Init, _ -> emit p Await_one 1.
  | Await_one, Some sol ->
      p.p_best <- Some (sol, 1.);
      finish p
  | Await_one, None -> emit p Await_zero 0.
  | Await_zero, None -> finish p
  | Await_zero, Some sol ->
      p.p_best <- Some (sol, 0.);
      bisect p
  | Await_mid, Some sol ->
      p.p_best <- Some (sol, p.p_point);
      p.p_lo <- p.p_point;
      bisect p
  | Await_mid, None ->
      p.p_hi <- p.p_point;
      bisect p

let plan_result p = p.p_best

(* State-threading driver: the oracle receives an accumulator alongside
   the probed yield and returns the updated accumulator with the verdict.
   The state rides along (LP warm-start bases in
   {!Milp.relaxed_yield_search}), it never steers the plan, so warm and
   cold searches take the same probe path. *)
let maximize_warm ?tolerance ?on_round ~init oracle =
  let p = plan ?tolerance ?on_round () in
  let rec drive state prev =
    match plan_next p ~prev with
    | None -> plan_result p
    | Some y ->
        let state, verdict = oracle state y in
        drive state verdict
  in
  drive init None

let maximize ?tolerance ?on_round oracle =
  maximize_warm ?tolerance ?on_round ~init:()
    (fun () y -> ((), oracle y))
