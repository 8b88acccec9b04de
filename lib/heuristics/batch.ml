(* Multi-tenant batched solving (DESIGN.md §16): adapt the algorithm
   registry onto [Par.Scheduler] requests so N concurrent solves share
   one domain pool.

   A [Yield_search] job becomes a stepped request around a
   [Binary_search.plan]: each scheduler round it contributes its one
   outstanding probe as a task (a thunk writing the verdict into a
   request-local cell). A [Direct] job contributes a single one-shot task
   running the whole solve. Both are pure functions of their own results,
   so the batched run is bit-identical to solving the jobs back-to-back
   sequentially — whatever the pool size or interleaving. *)

type job = { algo : Algorithms.t; instance : Model.Instance.t }

let yield_search_request ?tolerance ~strategies ~instance
    ~(out : Vp_solver.solution option -> unit) () =
  let oracle = Vp_solver.batch_oracle strategies instance in
  let plan = Binary_search.plan ?tolerance () in
  let verdict = ref None in
  fun () ->
    match Binary_search.plan_next plan ~prev:!verdict with
    | Some y -> Some [| (fun () -> verdict := oracle y) |]
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
      Some [| (fun () -> out (algo.Algorithms.solve instance)) |]
    end

let solve_batch ?tolerance ~sched jobs =
  let n = Array.length jobs in
  let results = Array.make n None in
  let requests =
    Array.mapi
      (fun i { algo; instance } ->
        let out r = results.(i) <- r in
        match algo.Algorithms.kind with
        | Algorithms.Yield_search strategies ->
            yield_search_request ?tolerance ~strategies ~instance ~out ()
        | Algorithms.Direct -> direct_request ~algo ~instance ~out ())
      jobs
  in
  Par.Scheduler.run sched requests;
  results
