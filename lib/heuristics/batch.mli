(** Multi-tenant batched solving over one domain pool.

    A batch is a tenant fan-out: each job is one pool task running its
    algorithm's sequential [solve], so every tenant does exactly the work,
    and owns exactly the probe kernel, of its standalone solve.

    Results are bit-identical to solving the same jobs back-to-back
    sequentially, at any pool size — locked by test/test_batch_diff.ml. *)

type job = { algo : Algorithms.t; instance : Model.Instance.t }

val solve_batch :
  sched:Par.Pool.t -> job array -> Vp_solver.solution option array
(** Solve all [jobs] as tasks of the pool [sched] (a {!Par.Scheduler.t} is
    that pool); results in input order. If jobs raise, the exception of
    the first raising job propagates once every job has finished
    ({!Par.Pool.map}), and the pool stays usable. *)
