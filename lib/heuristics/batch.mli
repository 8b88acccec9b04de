(** Multi-tenant batched solving over one domain pool.

    Adapts {!Algorithms} onto {!Par.Scheduler} requests: yield-search
    algorithms ({!Algorithms.Yield_search}) are stepped round by round —
    their probe batches from all jobs interleave fairly in each pool
    round, with speculation depth chosen per round by
    {!Binary_search.adaptive_depth} from the measured probe cost and the
    scheduler's live-request occupancy — while {!Algorithms.Direct}
    algorithms run as single one-shot tasks. Each yield search owns its
    probe kernels ({!Vp_solver.batch_oracle}), which are dropped when it
    completes.

    Results are bit-identical to solving the same jobs back-to-back
    sequentially, at any pool size and any (forced or adaptive)
    speculation depth — locked by test/test_batch_diff.ml. *)

type job = { algo : Algorithms.t; instance : Model.Instance.t }

val solve_batch :
  ?tolerance:float ->
  ?depth:int ->
  sched:Par.Scheduler.t ->
  job array ->
  Vp_solver.solution option array
(** Drive all [jobs] to completion over the scheduler's pool; results in
    input order. [tolerance] as in {!Vp_solver.solve_multi}; [depth]
    forces the speculation depth of every yield-search round (clamped
    below at 1, capped by remaining levels — the differential sweep's
    knob) instead of the adaptive cost-model choice. *)
