(* Differential lock-down of the multi-tenant batched solve scheduler
   (DESIGN.md §16): [Batch.solve_batch] must return results bit-identical
   to solving the same jobs back-to-back sequentially — same Some/None,
   same placement, same minimum yield to the last bit — at every pool
   size and every forced speculation depth, with yield-search and direct
   algorithms mixed in one request list, and however many batches one
   scheduler has already run. *)

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
  (* 1 = the degenerate sequential path; 2 and 4 give the adaptive depth
     model spare capacity to spend. The env-derived size makes the CI
     VMALLOC_DOMAINS={1,2} matrix leg vary what this suite runs. *)
  let env = min 4 (Par.Pool.domains_from_env ()) in
  List.sort_uniq compare [ 1; 2; 4; env ]

(* The acceptance criterion of the batched scheduler: identical results
   at pools 1/2/4 under the adaptive depth and every forced depth.
   Depths share one scheduler per pool, so later batches also run on a
   scheduler earlier ones have used. *)
let test_batched_equals_sequential () =
  List.iter
    (fun domains ->
      with_pool ~domains (fun pool ->
          let sched = Par.Scheduler.create ~pool in
          List.iter
            (fun depth ->
              let label =
                match depth with
                | None -> "adaptive"
                | Some d -> string_of_int d
              in
              check_batch
                (Printf.sprintf "pool %d, depth %s" domains label)
                (Batch.solve_batch ?depth ~sched jobs))
            [ None; Some 1; Some 2; Some 4 ]))
    (pool_sizes ())

(* Two identical batches on one scheduler: nothing the first batch leaves
   behind (scheduler state, the probe-cost model the adaptive depth reads)
   may change the second batch's results by a bit. *)
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

let test_empty_batch () =
  with_pool ~domains:2 (fun pool ->
      let sched = Par.Scheduler.create ~pool in
      Alcotest.(check int)
        "no jobs, no results" 0
        (Array.length (Batch.solve_batch ~sched [||])))

(* End-to-end through the experiment driver: a Table 1 mini-sweep in
   batched mode — every trial of a scenario as one tenant — must print
   the exact report of the plain sequential run at any pool size. *)
let mini_scale =
  {
    Experiments.Scale.small with
    label = "mini";
    table1_hosts = 4;
    table1_services = [ 6 ];
    table1_covs = [ 0.5 ];
    table1_slacks = [ 0.5 ];
    table1_reps = 2;
  }

let test_table1_batched_identical () =
  let sequential =
    Experiments.Table1.report_table1 (Experiments.Table1.run mini_scale)
  in
  List.iter
    (fun domains ->
      with_pool ~domains (fun pool ->
          let sched = Par.Scheduler.create ~pool in
          Alcotest.(check string)
            (Printf.sprintf "table1 report identical batched at %d domains"
               domains)
            sequential
            (Experiments.Table1.report_table1
               (Experiments.Table1.run ~sched mini_scale))))
    [ 1; 2; 4 ]

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("batched = sequential at pools x depths", test_batched_equals_sequential);
      ("rerun batch on one scheduler", test_rerun_batch_identical);
      ("empty batch", test_empty_batch);
      ("Table 1 mini-sweep identical batched", test_table1_batched_identical);
    ]
