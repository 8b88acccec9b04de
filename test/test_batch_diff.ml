(* Differential lock-down of the multi-tenant batched solve scheduler
   (DESIGN.md §16): [Batch.solve_batch] must return results bit-identical
   to solving the same jobs back-to-back sequentially — same Some/None,
   same placement, same minimum yield to the last bit — at every pool
   size, with yield-search and direct algorithms mixed in one request
   list, and however many batches one scheduler has already run. *)

module Batch = Heuristics.Batch

let with_pool = Par.Pool.with_pool

let gen_instance ~seed ~hosts ~services ~slack =
  Workload.Generator.generate
    ~rng:(Prng.Rng.create ~seed)
    {
      Workload.Generator.hosts;
      services;
      cov = 0.5;
      slack;
      cpu_homogeneous = false;
      mem_homogeneous = false;
    }

let algo ~seed name =
  match Heuristics.Algorithms.by_name ~seed name with
  | Some a -> a
  | None -> Alcotest.failf "unknown algorithm %S" name

(* Mixed tenants: three strategy-set yield searches (Yield_search kind,
   stepped round by round), the greedy sweep and an LP-rounding run
   (Direct kind, one-shot tasks), over instances spanning the tight
   slack=0.1 regime (infeasible for some tenants — the None path) up to
   loose slack=0.6. *)
let jobs =
  let names =
    [| "metahvplight"; "metavp"; "metagreedy"; "rrnz"; "metavp"; "rrnd" |]
  in
  Array.init 9 (fun i ->
      let hosts = 2 + (i mod 3) in
      let services = 4 + (i * 3 mod 9) in
      let slack = [| 0.1; 0.35; 0.6 |].(i mod 3) in
      {
        Batch.algo = algo ~seed:i names.(i mod Array.length names);
        instance = gen_instance ~seed:i ~hosts ~services ~slack;
      })

(* The reference arm: the same tenants solved back-to-back, no pool, no
   scheduler — the legacy sequential path. *)
let sequential =
  lazy (Array.map (fun j -> j.Batch.algo.solve j.Batch.instance) jobs)

let check_solution msg seq bat =
  match (seq, bat) with
  | None, None -> ()
  | ( Some (s : Heuristics.Vp_solver.solution),
      Some (b : Heuristics.Vp_solver.solution) ) ->
      if s.placement <> b.placement then
        Alcotest.failf "%s: placements differ" msg;
      if Int64.bits_of_float s.min_yield <> Int64.bits_of_float b.min_yield
      then
        Alcotest.failf "%s: yields differ (%.17g vs %.17g)" msg s.min_yield
          b.min_yield
  | Some _, None -> Alcotest.failf "%s: sequential Some, batched None" msg
  | None, Some _ -> Alcotest.failf "%s: sequential None, batched Some" msg

let check_batch msg results =
  let seq = Lazy.force sequential in
  Alcotest.(check int)
    (msg ^ ": result count")
    (Array.length seq) (Array.length results);
  Array.iteri
    (fun i b ->
      check_solution
        (Printf.sprintf "%s: job %d (%s)" msg i jobs.(i).Batch.algo.name)
        seq.(i) b)
    results

let pool_sizes () =
  (* 1 = the degenerate sequential path; 2 and 4 run tenants' probes
     concurrently. The env-derived size makes the CI VMALLOC_DOMAINS={1,2}
     matrix leg vary what this suite runs. *)
  let env = min 4 (Par.Pool.domains_from_env ()) in
  List.sort_uniq compare [ 1; 2; 4; env ]

(* The acceptance criterion of the batched scheduler: identical results
   at pools 1/2/4. *)
let test_batched_equals_sequential () =
  List.iter
    (fun domains ->
      with_pool ~domains (fun pool ->
          let sched = Par.Scheduler.create ~pool in
          check_batch
            (Printf.sprintf "pool %d" domains)
            (Batch.solve_batch ~sched jobs)))
    (pool_sizes ())

(* Two identical batches on one scheduler: nothing the first batch leaves
   behind may change the second batch's results by a bit. *)
let test_rerun_batch_identical () =
  with_pool ~domains:2 (fun pool ->
      let sched = Par.Scheduler.create ~pool in
      let first = Batch.solve_batch ~sched jobs in
      let second = Batch.solve_batch ~sched jobs in
      Array.iteri
        (fun i b ->
          check_solution
            (Printf.sprintf "rerun: job %d (%s)" i jobs.(i).Batch.algo.name)
            first.(i) b)
        second;
      check_batch "rerun (vs sequential)" second)

(* The scheduler's point, in pool rounds: 16 tenants sharing a 4-domain
   pool finish in at most half the rounds their yield searches take back
   to back. Each yield-search tenant contributes one probe per round, so
   the round count is a pure function of the jobs and is pinned. *)
let tenant_jobs =
  Array.init 16 (fun i ->
      {
        Batch.algo =
          algo ~seed:i (if i mod 4 = 3 then "metagreedy" else "metahvplight");
        instance = gen_instance ~seed:i ~hosts:4 ~services:12 ~slack:0.4;
      })

let test_batch_round_savings () =
  let (), serial =
    Counters.with_metrics (fun () ->
        Array.iter
          (fun j -> ignore (j.Batch.algo.solve j.Batch.instance))
          tenant_jobs)
  in
  let (), pooled =
    Counters.with_metrics (fun () ->
        with_pool ~domains:4 (fun pool ->
            let sched = Par.Scheduler.create ~pool in
            ignore (Batch.solve_batch ~sched tenant_jobs)))
  in
  let serial = serial "binary_search.rounds" in
  let interleaved = pooled "scheduler.rounds_interleaved" in
  Alcotest.(check bool)
    (Printf.sprintf "2 x %d pool rounds <= %d back-to-back rounds" interleaved
       serial)
    true
    (2 * interleaved <= serial);
  Alcotest.(check int) "pool rounds (golden)" 16 interleaved

let test_empty_batch () =
  with_pool ~domains:2 (fun pool ->
      let sched = Par.Scheduler.create ~pool in
      Alcotest.(check int)
        "no jobs, no results" 0
        (Array.length (Batch.solve_batch ~sched [||])))

(* Counters measure work, and a batched tenant probes exactly the points
   its sequential search probes whatever the pool size, so the whole
   rendered snapshot of three batches — mixed tenants, 16 tenants, and a
   lone yield-search tenant with the pool to itself — is the same at
   every pool size. *)
let test_counters_pool_invariant () =
  let render domains =
    let (), snap =
      Counters.with_snapshot (fun () ->
          with_pool ~domains (fun pool ->
              let sched = Par.Scheduler.create ~pool in
              List.iter
                (fun batch -> ignore (Batch.solve_batch ~sched batch))
                [ jobs; tenant_jobs; [| jobs.(0) |] ]))
    in
    Obs.Metrics.Snapshot.render snap
  in
  let reference = render 1 in
  List.iter
    (fun domains ->
      Alcotest.(check string)
        (Printf.sprintf "snapshot at pool %d = pool 1" domains)
        reference (render domains))
    [ 2; 4 ]

(* The scheduler's exception contract: a tenant that raises aborts the
   batch with its exception, and the scheduler then runs the next batch
   as if nothing had happened. *)
exception Tenant_failed

let test_raising_tenant () =
  let raising =
    {
      Batch.algo =
        { Heuristics.Algorithms.name = "RAISES";
          kind = Heuristics.Algorithms.Direct;
          solve = (fun _ -> raise Tenant_failed) };
      instance = jobs.(0).Batch.instance;
    }
  in
  with_pool ~domains:2 (fun pool ->
      let sched = Par.Scheduler.create ~pool in
      Alcotest.check_raises "tenant exception propagates" Tenant_failed
        (fun () ->
          ignore (Batch.solve_batch ~sched (Array.append jobs [| raising |])));
      check_batch "after a raising tenant" (Batch.solve_batch ~sched jobs))

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("batched = sequential at pools 1/2/4", test_batched_equals_sequential);
      ("rerun batch on one scheduler", test_rerun_batch_identical);
      ("empty batch", test_empty_batch);
      ("counters invariant in the pool size", test_counters_pool_invariant);
      ("16 tenants halve the pool rounds", test_batch_round_savings);
      ("raising tenant propagates, scheduler reusable", test_raising_tenant);
    ]
