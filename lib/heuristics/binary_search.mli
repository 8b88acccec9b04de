(** Binary search on the yield (paper §3.5).

    Since at a fixed yield every service's demand is fixed, any packing
    heuristic doubles as a feasibility oracle for that yield; maximizing the
    minimum yield then reduces to a binary search for the largest yield at
    which the oracle succeeds. The search stops when the bracketing interval
    is narrower than the paper's threshold 1e-4.

    The search probes one yield at a time, each point chosen from the
    previous verdicts: first 1, then 0, then midpoints
    [0.5 *. (lo +. hi)] while [hi -. lo > tolerance]. Packing oracles are
    {e not} monotone in the yield (a heuristic can pack at 0.6 yet fail at
    0.5), so the answer is defined by exactly these points and branch
    decisions; a batched solve ({!Batch}) runs whole searches side by
    side, never the probes of one search. *)

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
