(* Multi-tenant batched solving (DESIGN.md §16): one [Par.Pool.map] over
   the jobs, each task the job's sequential solve. [Pool.map] returns
   results in input order and metric counters are sums over per-domain
   sinks, so a batch is bit-identical to solving its jobs back-to-back,
   counters included, at any pool size. *)

type job = { algo : Algorithms.t; instance : Model.Instance.t }

let solve_batch ~sched jobs =
  Par.Pool.map sched jobs (fun { algo; instance } ->
      algo.Algorithms.solve instance)
