(** Binary search on the yield (paper §3.5).

    Since at a fixed yield every service's demand is fixed, any packing
    heuristic doubles as a feasibility oracle for that yield; maximizing the
    minimum yield then reduces to a binary search for the largest yield at
    which the oracle succeeds. The search stops when the bracketing interval
    is narrower than the paper's threshold 1e-4.

    The search is one steppable state machine, {!plan}, that emits exactly
    one probe per step: first 1, then 0, then midpoints
    [0.5 *. (lo +. hi)] while [hi -. lo > tolerance]. {!maximize_warm}
    and {!maximize} drive it sequentially; the batched scheduler
    ({!Batch}) steps many plans at once, one probe per tenant per pool
    round. Packing oracles are {e not} monotone in the yield (a heuristic
    can pack at 0.6 yet fail at 0.5), so every driver must probe the same
    points and take the same branch decisions to return the same answer —
    which one machine guarantees. *)

val default_tolerance : float
(** 1e-4, the paper's threshold. *)

val maximize :
  ?tolerance:float ->
  ?on_round:(float -> unit) ->
  (float -> 'a option) ->
  ('a * float) option
(** [maximize oracle] probes yields in [0, 1]. Returns the solution produced
    at the highest successful probe together with that yield, or [None] when
    the oracle already fails at yield 0. The oracle is first probed at 1
    (instances with slack can often run everything at full performance),
    then at 0, then bisected. A non-positive [tolerance] is clamped to
    {!default_tolerance} (it would otherwise never terminate). [on_round]
    is called with each yield before it is probed; instrumentation only. *)

val maximize_warm :
  ?tolerance:float ->
  ?on_round:(float -> unit) ->
  init:'w ->
  ('w -> float -> 'w * 'a option) ->
  ('a * float) option
(** [maximize_warm ~init oracle] is {!maximize} for oracles that carry an
    accumulator: each probe receives the state returned by the previous
    probe (starting from [init]) alongside the candidate yield. The state
    is threaded through feasible {e and} infeasible probes but never
    consulted by the search itself, so the probe schedule is exactly
    {!maximize}'s. Used to carry LP warm-start bases across successive
    yield probes ({!Milp.relaxed_yield_search}): probe [k+1] re-optimizes
    from probe [k]'s basis instead of solving from scratch. *)

type 'a plan
(** A steppable yield search over oracles of type [float -> 'a option] —
    the state machine every driver steps. *)

val plan : ?tolerance:float -> ?on_round:(float -> unit) -> unit -> 'a plan
(** A fresh search; [tolerance] and [on_round] as in {!maximize}. Each
    emitted probe counts one [binary_search.rounds] and one
    [binary_search.probes]. *)

val plan_next : 'a plan -> prev:'a option -> float option
(** Consume the verdict of the outstanding probe and emit the next yield
    to probe, or [None] when the search is finished. [prev] is ignored on
    the first call (pass [None]); afterwards it must be the oracle's
    verdict at the yield the previous call returned. *)

val plan_result : 'a plan -> ('a * float) option
(** The search outcome — meaningful once {!plan_next} returned [None]:
    the solution at the highest successful probe, or [None] when yield 0
    already failed. *)
