(** Multi-tenant batched solving over one domain pool.

    Adapts {!Algorithms} onto {!Par.Scheduler} requests: a yield-search
    algorithm ({!Algorithms.Yield_search}) steps its {!Binary_search.plan}
    and contributes one probe task per pool round, so the probes of all
    jobs interleave fairly in each round, while an {!Algorithms.Direct}
    algorithm runs as a single one-shot task. Each yield search owns its
    probe kernels ({!Vp_solver.batch_oracle}), which are dropped when it
    completes.

    Results are bit-identical to solving the same jobs back-to-back
    sequentially, at any pool size — locked by test/test_batch_diff.ml. *)

type job = { algo : Algorithms.t; instance : Model.Instance.t }

val solve_batch :
  ?tolerance:float ->
  sched:Par.Scheduler.t ->
  job array ->
  Vp_solver.solution option array
(** Drive all [jobs] to completion over the scheduler's pool; results in
    input order. [tolerance] as in {!Vp_solver.solve_multi}. If a job
    raises, the exception propagates as {!Par.Scheduler.run} documents. *)
