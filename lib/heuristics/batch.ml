(* Multi-tenant batched solving (DESIGN.md §16): adapt the algorithm
   registry onto [Par.Scheduler] requests so N concurrent solves share
   one domain pool.

   A [Yield_search] job becomes a stepped request around a
   [Binary_search.plan]: each scheduler round it contributes its current
   probe batch as tasks (thunks writing verdicts into a request-local
   buffer). A [Direct] job contributes a single one-shot task running the
   whole solve. Both are pure functions of their own results, so the
   batched run is bit-identical to solving the jobs back-to-back
   sequentially — whatever the pool size, interleaving, or speculation
   depth. *)

type job = { algo : Algorithms.t; instance : Model.Instance.t }

let yield_search_request ?tolerance ?depth ~sched ~strategies ~instance
    ~(out : Vp_solver.solution option -> unit) () =
  let oracle = Vp_solver.batch_oracle strategies instance in
  let pool_size = Par.Pool.size (Par.Scheduler.pool sched) in
  let depth_fn =
    match depth with
    | Some m ->
        let m = max 1 m in
        fun ~remaining:_ -> m
    | None ->
        fun ~remaining ->
          Binary_search.adaptive_depth ~pool_size
            ~occupancy:(Par.Scheduler.occupancy sched)
            ~remaining
  in
  let plan = Binary_search.plan ?tolerance ~depth:depth_fn () in
  let pending = ref [||] in
  fun () ->
    match Binary_search.plan_next plan ~prev:!pending with
    | Some points ->
        let buf = Array.make (Array.length points) None in
        pending := buf;
        Some
          (Array.mapi (fun j y -> fun () -> buf.(j) <- oracle y) points)
    | None ->
        out
          (match Binary_search.plan_result plan with
          | None -> None
          | Some (placement, _probed_yield) ->
              Vp_solver.evaluate instance placement);
        None

let direct_request ~(algo : Algorithms.t) ~instance
    ~(out : Vp_solver.solution option -> unit) () =
  let emitted = ref false in
  fun () ->
    if !emitted then None
    else begin
      emitted := true;
      (* The whole solve is one task; it must not reach back into the
         shared pool (Pool.map would raise on the nested map), so the
         algorithm runs its sequential path — same result by the pool
         bit-identity contract. *)
      Some [| (fun () -> out (algo.Algorithms.solve instance)) |]
    end

let solve_batch ?tolerance ?depth ~sched jobs =
  let n = Array.length jobs in
  let results = Array.make n None in
  let requests =
    Array.mapi
      (fun i { algo; instance } ->
        let out r = results.(i) <- r in
        match algo.Algorithms.kind with
        | Algorithms.Yield_search strategies ->
            yield_search_request ?tolerance ?depth ~sched ~strategies
              ~instance ~out ()
        | Algorithms.Direct -> direct_request ~algo ~instance ~out ())
      jobs
  in
  Par.Scheduler.run sched requests;
  results
