(* Differential lock-down of the probe-shared packing kernel
   (DESIGN.md §11): solves through the kernel (shared item scratch,
   memoized sort orders and Permutation-Pack item permutations, reset
   bins) must be bit-identical to the naive fresh-allocation path of
   {!Oracles.Naive_probe} — same Some/None, same placement, same yield to
   the last bit — across random instances and single-strategy
   (FF/BF/PP/CP) and META (VP/HVP/HVPLIGHT) strategy sets. *)

module VS = Heuristics.Vp_solver

let single_strategies =
  let open Packing.Strategy in
  let pp flavour = Permutation_pack { flavour; window = None } in
  [
    ("FF",
     { algo = First_fit; item_order = Vec.Metric.(Desc (Scalar Sum));
       bin_order = Vec.Metric.Unsorted; variant = Vp });
    ("BF",
     { algo = Best_fit; item_order = Vec.Metric.(Desc (Scalar Max));
       bin_order = Vec.Metric.Unsorted; variant = Hvp });
    ("PP",
     { algo = pp Packing.Permutation_pack.Permutation;
       item_order = Vec.Metric.(Desc (Scalar Max_ratio));
       bin_order = Vec.Metric.(Asc Lex); variant = Hvp });
    ("CP",
     { algo = pp Packing.Permutation_pack.Choose;
       item_order = Vec.Metric.(Desc (Scalar Max_difference));
       bin_order = Vec.Metric.Unsorted; variant = Vp });
  ]

let meta_sets =
  [
    ("METAVP", Packing.Strategy.vp_all);
    ("METAHVPLIGHT", Packing.Strategy.hvp_light);
  ]

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

(* Easy, mid, and hard-to-infeasible regimes, so the sweep crosses the
   feasible-at-1, interior-optimum, and infeasible-at-0 fast paths. *)
let corpus =
  let slacks = [| 0.05; 0.2; 0.35; 0.5; 0.7; 0.9 |] in
  List.init 12 (fun seed ->
      let hosts = 2 + (seed mod 5) in
      let services = 3 + (seed * 5 mod 17) in
      let slack = slacks.(seed mod Array.length slacks) in
      (seed, gen_instance ~seed ~hosts ~services ~slack))

let check_identical msg kernel naive =
  match (kernel, naive) with
  | None, None -> ()
  | Some (a : VS.solution), Some (b : VS.solution) ->
      if a.placement <> b.placement then
        Alcotest.failf "%s: placements differ" msg;
      if Int64.bits_of_float a.min_yield <> Int64.bits_of_float b.min_yield
      then
        Alcotest.failf "%s: yields differ (%.17g vs %.17g)" msg a.min_yield
          b.min_yield
  | Some _, None -> Alcotest.failf "%s: kernel Some, naive None" msg
  | None, Some _ -> Alcotest.failf "%s: kernel None, naive Some" msg

let test_kernel_vs_naive_singles () =
  List.iter
    (fun (seed, inst) ->
      List.iter
        (fun (sname, strategy) ->
          check_identical
            (Printf.sprintf "seed %d, %s" seed sname)
            (VS.solve strategy inst)
            (Oracles.Naive_probe.solve strategy inst))
        single_strategies)
    corpus

let test_kernel_vs_naive_meta () =
  List.iter
    (fun (seed, inst) ->
      List.iter
        (fun (mname, strategies) ->
          check_identical
            (Printf.sprintf "seed %d, %s" seed mname)
            (VS.solve_multi strategies inst)
            (Oracles.Naive_probe.solve_multi strategies inst))
        meta_sets)
    corpus

(* The full 253-strategy METAHVP set is the expensive one; lock it down on
   a few instances spanning the three regimes. *)
let test_kernel_vs_naive_metahvp () =
  List.iter
    (fun (seed, inst) ->
      check_identical
        (Printf.sprintf "seed %d, METAHVP" seed)
        (VS.solve_multi Packing.Strategy.hvp_all inst)
        (Oracles.Naive_probe.solve_multi Packing.Strategy.hvp_all inst))
    [
      (0, gen_instance ~seed:0 ~hosts:4 ~services:10 ~slack:0.05);
      (1, gen_instance ~seed:1 ~hosts:5 ~services:14 ~slack:0.35);
      (2, gen_instance ~seed:2 ~hosts:3 ~services:8 ~slack:0.9);
    ]

(* The kernel's counters against the oracle's own counts: memoization
   never changes the probe sequence or the attempts a probe makes, it
   only turns repeated sorts into memo hits. *)
let test_kernel_counters () =
  let inst = gen_instance ~seed:7 ~hosts:5 ~services:14 ~slack:0.35 in
  let _, v =
    Counters.with_metrics (fun () ->
        VS.solve_multi Packing.Strategy.hvp_light inst)
  in
  let naive = Oracles.Naive_probe.counts () in
  ignore
    (Oracles.Naive_probe.solve_multi ~counts:naive Packing.Strategy.hvp_light
       inst);
  Alcotest.(check bool) "kernel solve hits the sort memo" true
    (v "vp_solver.items_cache_hits" > 0);
  Alcotest.(check int) "kernel attempts = naive attempts"
    (Atomic.get naive.attempts)
    (v "vp_solver.strategy_attempts");
  Alcotest.(check int) "same probe count either way"
    (Atomic.get naive.probes)
    (v "vp_solver.oracle_calls")

(* Golden work counters of the META solvers, each solved sequentially on
   a mid-size Table-1 corpus point (10 hosts x 40 services, cov 0.5,
   slack 0.4, rep 0). A change that moves one on purpose updates it here
   and says why. *)
let golden_counters =
  [ "binary_search.rounds"; "vp_solver.oracle_calls";
    "vp_solver.strategy_attempts"; "packing.bins_examined" ]

let test_golden_meta_counters () =
  let inst =
    Experiments.Corpus.instance
      {
        Experiments.Corpus.hosts = 10;
        services = 40;
        cov = 0.5;
        slack = 0.4;
        cpu_homogeneous = false;
        mem_homogeneous = false;
        rep = 0;
      }
  in
  List.iter
    (fun ((algo : Heuristics.Algorithms.t), pins) ->
      let _, counter = Counters.with_metrics (fun () -> algo.solve inst) in
      List.iter2
        (fun name pin ->
          Alcotest.(check int) (algo.name ^ ": " ^ name) pin (counter name))
        golden_counters pins)
    Heuristics.Algorithms.
      [
        (metavp, [ 16; 16; 208; 35_549 ]);
        (metahvp, [ 16; 16; 1_534; 152_831 ]);
        (metahvplight, [ 16; 16; 370; 47_377 ]);
      ]

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("kernel = naive on FF/BF/PP/CP solves", test_kernel_vs_naive_singles);
      ("kernel = naive on METAVP/METAHVPLIGHT", test_kernel_vs_naive_meta);
      ("kernel = naive on METAHVP", test_kernel_vs_naive_metahvp);
      ("escape hatch + kernel counters", test_kernel_counters);
      ("golden META work counters", test_golden_meta_counters);
    ]
