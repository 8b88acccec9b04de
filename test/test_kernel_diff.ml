(* Differential lock-down of the probe-shared packing kernel
   (DESIGN.md §11): solves through the kernel (shared item scratch,
   memoized sort orders and Permutation-Pack item key classes, reset
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
   only turns repeated sorts into memo hits. A probe the infeasibility
   certificate refutes makes no attempt, where the oracle tries (and
   fails) every strategy. *)
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
  let certified = v "vp_solver.probes_certified" in
  Alcotest.(check bool) "the certificate refutes a probe" true (certified > 0);
  Alcotest.(check int)
    "kernel attempts + certified probes x strategies = naive attempts"
    (Atomic.get naive.attempts)
    (v "vp_solver.strategy_attempts"
    + (certified * List.length Packing.Strategy.hvp_light));
  Alcotest.(check int) "same probe count either way"
    (Atomic.get naive.probes)
    (v "vp_solver.oracle_calls")

(* Golden work counters of the META solvers, each solved sequentially on
   a mid-size Table-1 corpus point (10 hosts x 40 services, cov 0.5,
   slack 0.4, rep 0). A change that moves one on purpose updates it here
   and says why. [packing.placement_attempts] counts select passes, which
   the per-class cursors left as the full scan made them;
   [packing.perm_keys_tried] counts one key per class that offers a
   fitting item at a select pass (the full scan's one key per fitting item
   gave 43_494 / 519_513 / 127_689). The infeasibility certificate
   refutes one probe of each solve, which before it cost every strategy
   (attempts 208 / 1_534 / 370, bins 35_549 / 152_831 / 47_377, select
   passes 7_652 / 60_453 / 14_098, keys 3_763 / 47_965 / 10_394). *)
let golden_counters =
  [ "binary_search.rounds"; "vp_solver.oracle_calls";
    "vp_solver.strategy_attempts"; "packing.bins_examined";
    "packing.placement_attempts"; "packing.perm_keys_tried";
    "vp_solver.probes_certified" ]

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
        (metavp, [ 16; 16; 175; 30_312; 6_516; 3_200; 1 ]);
        (metahvp, [ 16; 16; 1_281; 130_472; 51_286; 41_037; 1 ]);
        (metahvplight, [ 16; 16; 310; 40_933; 12_071; 9_016; 1 ]);
      ]

(* The certificate is exact: wherever it refutes a probe, every strategy
   of METAVP and METAHVP fails on the naive path. Yields 0 and 1 are the
   search's first probes, a random one stands for the bisection's. The
   run fails unless the certificate fired on at least a tenth of the
   probes it judged, so the implication cannot hold vacuously. *)
let certified = ref 0 and judged = ref 0

(* A packing state holding the instance's demands at yield [y], built
   from the oracle's records so it shares nothing with the kernel's
   refill. *)
let state_at_yield inst y =
  let bins = Oracles.Naive_probe.fresh_bins inst
  and items = Oracles.Naive_probe.items_at_yield inst y in
  let st =
    Packing.State.create ~dims:inst.Model.Instance.dims
      ~capacities:(Array.map (fun (b : Oracles.Bin.t) -> b.capacity) bins)
      ~n_items:(Array.length items)
  in
  Array.iter
    (fun (it : Oracles.Item.t) -> Packing.State.set_item st it.id it.demand)
    items;
  st

let prop_certificate_exact =
  QCheck2.Test.make ~name:"certified probes fail every strategy" ~count:150
    ~print:(fun (p, y) -> Printf.sprintf "%s, y=%.17g" (Instance_gen.print p) y)
    QCheck2.Gen.(pair Instance_gen.gen (float_range 0. 1.))
    (fun (p, y) ->
      let inst = Instance_gen.instance p in
      List.for_all
        (fun y ->
          incr judged;
          (not (Packing.Strategy.infeasible (state_at_yield inst y)))
          || begin
               incr certified;
               List.for_all
                 (fun s -> Oracles.Naive_probe.pack_at_yield s inst y = None)
                 (Packing.Strategy.vp_all @ Packing.Strategy.hvp_all)
             end)
        [ 0.; 1.; y ])

let test_certificate_exact =
  let name, speed, run = QCheck_alcotest.to_alcotest prop_certificate_exact in
  Alcotest.test_case name speed (fun () ->
      certified := 0;
      judged := 0;
      run ();
      if !certified * 10 < !judged then
        Alcotest.failf "certificate fired on %d of %d probes, under a tenth"
          !certified !judged)

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("kernel = naive on FF/BF/PP/CP solves", test_kernel_vs_naive_singles);
      ("kernel = naive on METAVP/METAHVPLIGHT", test_kernel_vs_naive_meta);
      ("kernel = naive on METAHVP", test_kernel_vs_naive_metahvp);
      ("kernel vs oracle counters", test_kernel_counters);
      ("golden META work counters", test_golden_meta_counters);
    ]
  @ [ test_certificate_exact ]
