(* Differential lock-down of the yield search: [Binary_search.maximize]
   must return bit-identical results to the plain bisection loop of
   [Oracles.Bisect.maximize] — same Some/None, same placement, same yield
   to the last bit — for real packing oracles, including the
   infeasible-at-0 and feasible-at-1 fast paths, and must probe the same
   sequence of yields. [Binary_search.maximize_warm] must probe that
   sequence too while threading its state through every probe. *)

module BS = Heuristics.Binary_search

(* One packing oracle per base algorithm of the paper: FF, BF, PP, CP. *)
let oracle_strategies =
  let open Packing.Strategy in
  let pp flavour =
    Permutation_pack { flavour; window = None }
  in
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

(* ~50 instances spanning easy, mid, and hard-to-infeasible (slack 0.05)
   regimes, plus the paper's Fig. 1 instance — whose lone service runs at
   full performance on node B, pinning the feasible-at-1 fast path on real
   packing oracles (the generator never produces slack that loose). *)
let instance_fig1 =
  Model.Instance.v
    ~nodes:
      [|
        Model.Node.make_cores ~id:0 ~cores:4 ~cpu:3.2 ~mem:1.0;
        Model.Node.make_cores ~id:1 ~cores:2 ~cpu:2.0 ~mem:0.5;
      |]
    ~services:
      [|
        Model.Service.make_2d ~id:0 ~cpu_req:(0.5, 1.0) ~mem_req:0.5
          ~cpu_need:(0.5, 1.0) ();
      |]

let corpus =
  let slacks = [| 0.05; 0.2; 0.35; 0.5; 0.7; 0.9 |] in
  (-1, instance_fig1)
  :: List.init 50 (fun seed ->
         let hosts = 2 + (seed mod 5) in
         let services = 3 + (seed * 3 mod 16) in
         let slack = slacks.(seed mod Array.length slacks) in
         (seed, gen_instance ~seed ~hosts ~services ~slack))

let check_identical msg oracle plan =
  match (oracle, plan) with
  | None, None -> ()
  | Some (p1, y1), Some (p2, y2) ->
      if p1 <> p2 then Alcotest.failf "%s: placements differ" msg;
      if Int64.bits_of_float y1 <> Int64.bits_of_float y2 then
        Alcotest.failf "%s: yields differ (%.17g vs %.17g)" msg y1 y2
  | Some _, None -> Alcotest.failf "%s: loop Some, plan None" msg
  | None, Some _ -> Alcotest.failf "%s: loop None, plan Some" msg

let test_differential_packing_oracles () =
  let feasible = ref 0 and infeasible = ref 0 and at_one = ref 0 in
  List.iter
    (fun (seed, inst) ->
      List.iter
        (fun (oname, strategy) ->
          let oracle = Oracles.Naive_probe.pack_at_yield strategy inst in
          let reference = Oracles.Bisect.maximize oracle in
          (match reference with
          | None -> incr infeasible
          | Some (_, y) ->
              incr feasible;
              if y = 1. then incr at_one);
          check_identical
            (Printf.sprintf "seed %d, %s oracle" seed oname)
            reference (BS.maximize oracle))
        oracle_strategies)
    corpus;
  (* The sweep must genuinely cover all three outcome classes. *)
  Alcotest.(check bool) "sweep hit feasible instances" true (!feasible > 0);
  Alcotest.(check bool) "sweep hit infeasible-at-0 instances" true
    (!infeasible > 0);
  Alcotest.(check bool) "sweep hit feasible-at-1 instances" true (!at_one > 0)

(* The two fast paths, pinned deterministically (no reliance on what the
   generator happens to produce), plus non-default tolerances. *)
let test_differential_fast_paths () =
  check_identical "always-feasible oracle"
    (Oracles.Bisect.maximize (fun y -> Some y))
    (BS.maximize (fun y -> Some y));
  check_identical "never-feasible oracle"
    (Oracles.Bisect.maximize (fun _ -> None))
    (BS.maximize (fun _ -> None));
  List.iter
    (fun tolerance ->
      let target = 0.37 in
      let oracle y = if y <= target then Some y else None in
      check_identical
        (Printf.sprintf "threshold oracle, tolerance %g" tolerance)
        (Oracles.Bisect.maximize ~tolerance oracle)
        (BS.maximize ~tolerance oracle))
    (* 0. exercises the non-positive clamp on both sides. *)
    [ 1e-2; 1e-3; 3e-4; 0. ]

(* Exact probe sequences, pinned point by point. Oracle feasible iff
   y <= 0.3 at tolerance 0.2 — wide enough to trace by hand:
   1; 0; 0.5; 0.25; 0.375, leaving the bracket 0.25..0.375. The search
   probes a yield by calling the oracle at it, so the oracle itself
   records the sequence. *)
let show_probes probes =
  String.concat "; " (List.map (Printf.sprintf "%.17g") probes)

(* [record search oracle] runs [search] on [oracle] and returns the
   yields, in order, at which [search] called it. *)
let record search oracle =
  let probes = ref [] in
  ignore
    (search (fun y ->
         probes := y :: !probes;
         oracle y));
  show_probes (List.rev !probes)

(* [maximize_warm] under a counting accumulator: the probe receiving
   state n hands n + 1 on, and its solution carries n. Returns the
   probed yields, the state each probe received, and the result. *)
let warm_counting ?tolerance feasible =
  let probes = ref [] and states = ref [] in
  let result =
    BS.maximize_warm ?tolerance ~init:0 (fun n y ->
        probes := y :: !probes;
        states := n :: !states;
        (n + 1, if feasible y then Some n else None))
  in
  (show_probes (List.rev !probes), List.rev !states, result)

let check_warm msg ~probes ~states ~result (p, s, r) =
  Alcotest.(check string) (msg ^ " probe sequence") probes p;
  Alcotest.(check (list int)) (msg ^ " states received") states s;
  Alcotest.(check (option (pair int (float 0.))))
    (msg ^ " result carries the best probe's state")
    result r

let test_probe_sequences () =
  let tolerance = 0.2 in
  let oracle y = if y <= 0.3 then Some y else None in
  let expected = show_probes [ 1.; 0.; 0.5; 0.25; 0.375 ] in
  Alcotest.(check string) "maximize probe sequence" expected
    (record (BS.maximize ~tolerance) oracle);
  Alcotest.(check string) "bisection loop probe sequence" expected
    (record (Oracles.Bisect.maximize ~tolerance) oracle);
  (* The state passes through the infeasible probes at 1, 0.5 and 0.375
     too; the best probe, at 0.25, received state 3. *)
  check_warm "maximize_warm" ~probes:expected ~states:[ 0; 1; 2; 3; 4 ]
    ~result:(Some (3, 0.25))
    (warm_counting ~tolerance (fun y -> y <= 0.3))

(* The fast paths probe exactly the endpoints — 1 alone when feasible at
   1, 1 then 0 when infeasible at 0 — identically on both searches. *)
let test_probe_sequence_endpoints () =
  let feasible_at_1 = "1" and infeasible_at_0 = "1; 0" in
  List.iter
    (fun (name, search) ->
      Alcotest.(check string) (name ^ " feasible-at-1") feasible_at_1
        (record search (fun y -> Some y));
      Alcotest.(check string) (name ^ " infeasible-at-0") infeasible_at_0
        (record search (fun _ -> None)))
    [
      ("maximize", fun oracle -> BS.maximize oracle);
      ("bisection loop", fun oracle -> Oracles.Bisect.maximize oracle);
    ];
  check_warm "maximize_warm feasible-at-1" ~probes:feasible_at_1
    ~states:[ 0 ] ~result:(Some (0, 1.))
    (warm_counting (fun _ -> true));
  check_warm "maximize_warm infeasible-at-0" ~probes:infeasible_at_0
    ~states:[ 0; 1 ] ~result:None
    (warm_counting (fun _ -> false))

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("maximize = Bisect on FF/BF/PP/CP oracles",
       test_differential_packing_oracles);
      ("fast paths and tolerances", test_differential_fast_paths);
      ("exact announced probe sequences", test_probe_sequences);
      ("endpoint probe announcements", test_probe_sequence_endpoints);
    ]
