(* Tests for the online-hosting extension: event queue, adaptive threshold
   controller, and the discrete-event engine. *)

let check_float = Alcotest.(check (float 1e-9))

(* Event queue. *)

let test_queue_ordering () =
  let q = Simulator.Event_queue.create () in
  Simulator.Event_queue.add q ~time:3. "c";
  Simulator.Event_queue.add q ~time:1. "a";
  Simulator.Event_queue.add q ~time:2. "b";
  let pop () =
    match Simulator.Event_queue.pop_min q with
    | Some (_, x) -> x
    | None -> Alcotest.fail "empty"
  in
  Alcotest.(check string) "first" "a" (pop ());
  Alcotest.(check string) "second" "b" (pop ());
  Alcotest.(check string) "third" "c" (pop ());
  Alcotest.(check bool) "empty" true (Simulator.Event_queue.is_empty q)

let test_queue_tie_break_fifo () =
  let q = Simulator.Event_queue.create () in
  Simulator.Event_queue.add q ~time:1. "first";
  Simulator.Event_queue.add q ~time:1. "second";
  (match Simulator.Event_queue.pop_min q with
  | Some (_, x) -> Alcotest.(check string) "insertion order" "first" x
  | None -> Alcotest.fail "empty");
  match Simulator.Event_queue.pop_min q with
  | Some (_, x) -> Alcotest.(check string) "then second" "second" x
  | None -> Alcotest.fail "empty"

(* FIFO tie-break as a property: with any mix of (possibly equal)
   timestamps — including enough entries to force several heap growths past
   the initial capacity of 16 — equal times must pop in insertion order,
   i.e. the pop sequence is exactly the stable sort of the input. *)
let prop_queue_fifo_ties =
  QCheck2.Test.make ~name:"event queue pops equal times in insertion order"
    ~count:200
    QCheck2.Gen.(list_size (int_range 0 200) (int_range 0 4))
    (fun times ->
      let q = Simulator.Event_queue.create () in
      List.iteri
        (fun i t -> Simulator.Event_queue.add q ~time:(float_of_int t) i)
        times;
      let rec drain acc =
        match Simulator.Event_queue.pop_min q with
        | None -> List.rev acc
        | Some (t, i) -> drain ((t, i) :: acc)
      in
      let expected =
        List.stable_sort
          (fun (t1, _) (t2, _) -> Float.compare t1 t2)
          (List.mapi (fun i t -> (float_of_int t, i)) times)
      in
      drain [] = expected)

let prop_queue_sorts =
  QCheck2.Test.make ~name:"event queue pops in time order" ~count:200
    QCheck2.Gen.(list_size (int_range 0 100) (float_bound_inclusive 1000.))
    (fun times ->
      let q = Simulator.Event_queue.create () in
      List.iteri (fun i t -> Simulator.Event_queue.add q ~time:t i) times;
      let rec drain acc =
        match Simulator.Event_queue.pop_min q with
        | None -> List.rev acc
        | Some (t, _) -> drain (t :: acc)
      in
      let popped = drain [] in
      popped = List.sort Float.compare times)

(* Adaptive threshold. *)

let test_adaptive_initial () =
  let c = Sharing.Adaptive_threshold.create ~initial:0.2 () in
  check_float "initial" 0.2 (Sharing.Adaptive_threshold.threshold c);
  Alcotest.(check int) "no observations" 0
    (Sharing.Adaptive_threshold.observations c)

let test_adaptive_tracks_error () =
  let c = Sharing.Adaptive_threshold.create ~quantile:100. () in
  Sharing.Adaptive_threshold.observe c
    ~estimated:[| 0.5; 0.3; 0.2 |]
    ~actual:[| 0.45; 0.32; 0.2 |];
  (* Gaps: 0.05, 0.02, 0.0 -> max = 0.05. *)
  check_float "max gap" 0.05 (Sharing.Adaptive_threshold.threshold c);
  Alcotest.(check int) "three observations" 3
    (Sharing.Adaptive_threshold.observations c)

let test_adaptive_clamped () =
  let c =
    Sharing.Adaptive_threshold.create ~quantile:100. ~max_threshold:0.1 ()
  in
  Sharing.Adaptive_threshold.observe c ~estimated:[| 1.0 |] ~actual:[| 0.0 |];
  check_float "clamped" 0.1 (Sharing.Adaptive_threshold.threshold c)

let test_adaptive_window_forgets () =
  let c = Sharing.Adaptive_threshold.create ~quantile:100. ~window:2 () in
  Sharing.Adaptive_threshold.observe c ~estimated:[| 0.5 |] ~actual:[| 0.0 |];
  check_float "big gap" 0.5 (Sharing.Adaptive_threshold.threshold c);
  (* Two small observations push the 0.5 out of the window. *)
  Sharing.Adaptive_threshold.observe c
    ~estimated:[| 0.1; 0.1 |]
    ~actual:[| 0.09; 0.08 |];
  Alcotest.(check bool) "forgot the spike" true
    (Sharing.Adaptive_threshold.threshold c < 0.05)

let test_adaptive_validation () =
  Alcotest.check_raises "quantile"
    (Invalid_argument "Adaptive_threshold.create: quantile out of [0, 100]")
    (fun () ->
      ignore (Sharing.Adaptive_threshold.create ~quantile:150. ()));
  let c = Sharing.Adaptive_threshold.create () in
  Alcotest.check_raises "length"
    (Invalid_argument "Adaptive_threshold.observe: length mismatch")
    (fun () ->
      Sharing.Adaptive_threshold.observe c ~estimated:[| 1. |] ~actual:[||])

(* The engine's per-node store of live services. *)

let store_platform =
  Array.init 4 (fun id ->
      if id < 2 then Model.Node.make_cores ~id ~cores:4 ~cpu:0.4 ~mem:0.4
      else Model.Node.make_cores ~id ~cores:4 ~cpu:0.8 ~mem:0.8)

let resident ~uid ~memory ~est_cpu =
  {
    Simulator.Repair.uid;
    cores = 1;
    true_cpu = est_cpu;
    est_cpu;
    memory;
    node = -1;
  }

let all_residents store =
  List.concat_map (Simulator.Repair.residents store)
    (List.init (Array.length store_platform) Fun.id)

(* Random add / remove / repair sequences: after every step each node
   lists its residents in ascending uid order, no resident sits on two
   nodes, each resident's [node] names the node that lists it, and every
   decision agrees with a state rebuilt from scratch from the same
   residents — the in-place path's sums never drift. *)
let prop_store_matches_rebuild =
  let h_count = Array.length store_platform in
  let op =
    QCheck2.Gen.(
      oneof
        [
          map3
            (fun node m c -> `Add (node, m, c))
            (int_bound (h_count - 1))
            (float_range 0.01 0.3) (float_range 0.01 0.6);
          map (fun i -> `Remove i) nat;
          map2
            (fun target budget -> `Repair (target, budget))
            (int_bound (h_count - 1))
            (int_bound 3);
        ])
  in
  QCheck2.Test.make ~name:"store: canonical order, agrees with rebuild"
    ~count:200
    QCheck2.Gen.(list_size (int_range 0 60) op)
    (fun ops ->
      let create () =
        Simulator.Repair.create ~platform:store_platform ~yield_gap:0.15
      in
      let store = create () in
      let next = ref 0 in
      let check () =
        for h = 0 to h_count - 1 do
          let rs = Simulator.Repair.residents store h in
          List.iter
            (fun (r : Simulator.Repair.resident) ->
              if r.node <> h then
                QCheck2.Test.fail_reportf
                  "node %d lists uid %d, whose node is %d" h r.uid r.node)
            rs;
          let uids =
            List.map (fun (r : Simulator.Repair.resident) -> r.uid) rs
          in
          if uids <> List.sort_uniq compare uids then
            QCheck2.Test.fail_reportf "node %d not in ascending uid order" h
        done;
        let all = all_residents store in
        let uids =
          List.map (fun (r : Simulator.Repair.resident) -> r.uid) all
        in
        if List.length (List.sort_uniq compare uids) <> List.length uids then
          QCheck2.Test.fail_report "a resident sits on two nodes";
        let fresh = create () in
        Simulator.Repair.rebuild fresh
          (Array.of_list
             (List.sort
                (fun (a : Simulator.Repair.resident) b -> compare a.uid b.uid)
                all));
        if Simulator.Repair.healthy store <> Simulator.Repair.healthy fresh
        then QCheck2.Test.fail_report "healthy differs from rebuild";
        List.iter
          (fun policy ->
            List.iter
              (fun mem ->
                let choose t =
                  Simulator.Repair.choose t policy
                    ~rng:(Prng.Rng.create ~seed:!next)
                    ~mem
                in
                if choose store <> choose fresh then
                  QCheck2.Test.fail_reportf "%s choice at mem %g differs"
                    (Simulator.Policy.to_string policy)
                    mem)
              [ 0.05; 0.25; 0.6; 0.9 ])
          Simulator.Policy.all
      in
      List.iter
        (fun op ->
          (match op with
          | `Add (node, memory, est_cpu) ->
              Simulator.Repair.add store ~node
                (resident ~uid:!next ~memory ~est_cpu);
              incr next
          | `Remove i -> (
              match all_residents store with
              | [] -> ()
              | all ->
                  Simulator.Repair.remove store
                    (List.nth all (i mod List.length all)))
          | `Repair (target, budget) ->
              ignore
                (Simulator.Repair.repair store ~target ~budget
                   ~on_move:ignore));
          check ())
        ops;
      true)

(* Resolve admission is the zero-knowledge spread: the memory-feasible
   node with the fewest residents, lowest index on ties, every node
   examined, no random draw. *)
(* Adds in any order, removals from the middle, head and tail: each node
   keeps its residents in ascending uid order and every resident's [node]
   names its host. [rebuild] rejects a node whose residents come out of
   ascending uid order. *)
let test_store_residents_order () =
  let store =
    Simulator.Repair.create ~platform:store_platform ~yield_gap:0.15
  in
  let uids h =
    List.map
      (fun (r : Simulator.Repair.resident) ->
        Alcotest.(check int) (Printf.sprintf "uid %d's node" r.uid) h r.node;
        r.uid)
      (Simulator.Repair.residents store h)
  in
  let rs =
    Array.init 6 (fun uid -> resident ~uid ~memory:0.05 ~est_cpu:0.1)
  in
  List.iter
    (fun uid -> Simulator.Repair.add store ~node:1 rs.(uid))
    [ 4; 1; 3; 0; 2 ];
  Simulator.Repair.add store ~node:2 rs.(5);
  Alcotest.(check (list int)) "ascending after shuffled adds"
    [ 0; 1; 2; 3; 4 ] (uids 1);
  Simulator.Repair.remove store rs.(2);
  Simulator.Repair.remove store rs.(0);
  Alcotest.(check (list int)) "middle and head removed" [ 1; 3; 4 ] (uids 1);
  Simulator.Repair.remove store rs.(4);
  Alcotest.(check (list int)) "tail removed" [ 1; 3 ] (uids 1);
  Alcotest.(check int) "removed keeps its node" 1 rs.(4).node;
  Simulator.Repair.add store ~node:1 rs.(0);
  Alcotest.(check (list int)) "re-added uid back in order" [ 0; 1; 3 ]
    (uids 1);
  Alcotest.(check (list int)) "other node untouched" [ 5 ] (uids 2);
  Alcotest.(check (list int)) "empty node" [] (uids 0);
  rs.(3).node <- 1;
  rs.(1).node <- 1;
  Alcotest.check_raises "rebuild out of order"
    (Invalid_argument "Repair.rebuild: residents not in ascending uid order")
    (fun () -> Simulator.Repair.rebuild store [| rs.(3); rs.(1) |])

let test_choose_resolve () =
  let store =
    Simulator.Repair.create ~platform:store_platform ~yield_gap:0.15
  in
  List.iteri
    (fun uid (node, memory) ->
      Simulator.Repair.add store ~node (resident ~uid ~memory ~est_cpu:0.1))
    [ (0, 0.1); (0, 0.1); (1, 0.3); (2, 0.1); (3, 0.7) ];
  let choose mem =
    let rng = Prng.Rng.create ~seed:3 in
    let reference = Prng.Rng.create ~seed:3 in
    let decision =
      Simulator.Repair.choose store Simulator.Policy.Resolve ~rng ~mem
    in
    Alcotest.(check int64)
      (Printf.sprintf "mem %g: no draw" mem)
      (Prng.Rng.bits64 reference) (Prng.Rng.bits64 rng);
    decision
  in
  let decision = Alcotest.(pair (option int) int) in
  (* Nodes 1, 2 and 3 hold one resident each: the lowest index wins. *)
  Alcotest.check decision "fewest residents, lowest index" (Some 1, 4)
    (choose 0.05);
  (* Node 1 (0.3 of 0.4) and node 3 (0.7 of 0.8) cannot take 0.2. *)
  Alcotest.check decision "fewest among the feasible" (Some 2, 4)
    (choose 0.2);
  Alcotest.check decision "fits nowhere" (None, 4) (choose 0.75);
  (* Two more residents on node 2: it still has the most free memory,
     but node 0 now has fewer residents. *)
  Simulator.Repair.add store ~node:2 (resident ~uid:5 ~memory:0.1 ~est_cpu:0.1);
  Simulator.Repair.add store ~node:2 (resident ~uid:6 ~memory:0.1 ~est_cpu:0.1);
  Alcotest.check decision "fewest residents, not most free memory"
    (Some 0, 4) (choose 0.2)

(* Engine. *)

let platform =
  Array.init 4 (fun id -> Model.Node.make_cores ~id ~cores:4 ~cpu:0.6 ~mem:0.6)

let quick_config =
  {
    Simulator.Engine.default_config with
    horizon = 40.;
    arrival_rate = 0.5;
    mean_lifetime = 15.;
    reallocation_period = 8.;
  }

let test_engine_runs () =
  let stats =
    Simulator.Engine.run ~rng:(Prng.Rng.create ~seed:1) quick_config ~platform
  in
  Alcotest.(check bool) "arrivals happened" true (stats.arrivals > 0);
  Alcotest.(check int) "admissions + rejections = arrivals" stats.arrivals
    (stats.admitted + stats.rejected);
  Alcotest.(check int) "reallocation count" 5 stats.reallocations;
  Alcotest.(check bool) "yield in range" true
    (stats.mean_min_yield >= 0. && stats.mean_min_yield <= 1. +. 1e-9);
  Alcotest.(check bool) "samples chronological" true
    (let rec sorted = function
       | (t1, _) :: ((t2, _) :: _ as rest) -> t1 <= t2 && sorted rest
       | _ -> true
     in
     sorted stats.yield_samples)

let test_engine_deterministic () =
  let run () =
    Simulator.Engine.run ~rng:(Prng.Rng.create ~seed:5) quick_config ~platform
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same arrivals" a.arrivals b.arrivals;
  Alcotest.(check int) "same migrations" a.migrations b.migrations;
  check_float "same yield" a.mean_min_yield b.mean_min_yield

(* Golden byte-identity: these numbers were captured from the engine
   *before* the active-set / admission / re-evaluation hot-path rework, so
   they pin down that the rework changed no observable behaviour — counters,
   the time-averaged yield to the last bit, and an order-sensitive digest of
   the full (time, yield) event log. *)

let samples_digest samples =
  List.fold_left
    (fun acc (t, y) ->
      let mix acc v =
        Int64.add (Int64.mul acc 1000003L) (Int64.bits_of_float v)
      in
      mix (mix acc t) y)
    0L samples

let check_golden name ~arrivals ~admitted ~rejected ~departures
    ~reallocations ~migrations ~yield_bits ~samples ~digest
    (stats : Simulator.Engine.stats) =
  Alcotest.(check int) (name ^ " arrivals") arrivals stats.arrivals;
  Alcotest.(check int) (name ^ " admitted") admitted stats.admitted;
  Alcotest.(check int) (name ^ " rejected") rejected stats.rejected;
  Alcotest.(check int) (name ^ " departures") departures stats.departures;
  Alcotest.(check int) (name ^ " reallocations") reallocations
    stats.reallocations;
  Alcotest.(check int) (name ^ " migrations") migrations stats.migrations;
  Alcotest.(check int64) (name ^ " yield bits") yield_bits
    (Int64.bits_of_float stats.mean_min_yield);
  Alcotest.(check int) (name ^ " samples") samples
    (List.length stats.yield_samples);
  Alcotest.(check int64) (name ^ " log digest") digest
    (samples_digest stats.yield_samples)

let test_engine_golden_seed0 () =
  check_golden "quick" ~arrivals:20 ~admitted:20 ~rejected:0 ~departures:14
    ~reallocations:5 ~migrations:11 ~yield_bits:4607182418800017408L
    ~samples:40 ~digest:4191249768112089187L
    (Simulator.Engine.run ~rng:(Prng.Rng.create ~seed:0) quick_config
       ~platform)

let test_engine_golden_seed0_rejecting () =
  (* The tiny-platform scenario exercises the rejected-arrival skip path
     (56 rejections), so its digest additionally proves the skip changes
     no sample. *)
  let tiny =
    [| Model.Node.make_cores ~id:0 ~cores:4 ~cpu:0.6 ~mem:0.05 |]
  in
  check_golden "tiny" ~arrivals:76 ~admitted:20 ~rejected:56 ~departures:17
    ~reallocations:7 ~migrations:0 ~yield_bits:4605462041597444841L
    ~samples:101 ~digest:9066990573517124366L
    (Simulator.Engine.run ~rng:(Prng.Rng.create ~seed:0)
       { quick_config with horizon = 60.; arrival_rate = 1. }
       ~platform:tiny)

let test_engine_rejects_non_2d_platform () =
  let platform_3d =
    [|
      Model.Node.v ~id:0
        ~capacity:
          (Vec.Epair.uniform (Vec.Vector.of_array [| 0.5; 0.5; 0.5 |]));
    |]
  in
  Alcotest.check_raises "3-D platform"
    (Invalid_argument "Engine.run: platform must be 2-D (CPU, memory)")
    (fun () ->
      ignore (Simulator.Engine.run quick_config ~platform:platform_3d));
  Alcotest.check_raises "empty platform"
    (Invalid_argument "Engine.run: empty platform") (fun () ->
      ignore (Simulator.Engine.run quick_config ~platform:[||]))

let test_engine_reeval_skips_counted () =
  let was_enabled = Obs.Metrics.enabled () in
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled was_enabled)
  @@ fun () ->
  Obs.Metrics.set_enabled false;
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  let tiny =
    [| Model.Node.make_cores ~id:0 ~cores:4 ~cpu:0.6 ~mem:0.05 |]
  in
  let stats =
    Simulator.Engine.run ~rng:(Prng.Rng.create ~seed:0)
      { quick_config with horizon = 60.; arrival_rate = 1. }
      ~platform:tiny
  in
  Obs.Metrics.set_enabled false;
  let snap = Obs.Metrics.snapshot () in
  Alcotest.(check bool) "rejections happened" true (stats.rejected > 0);
  (* Exactly the rejected arrivals skip the re-evaluation — no more (every
     other event re-evaluates) and no fewer. *)
  Alcotest.(check int) "skips = rejections" stats.rejected
    (Obs.Metrics.Snapshot.counter_value snap "simulator.reeval_skips");
  Alcotest.(check int) "rejected counter" stats.rejected
    (Obs.Metrics.Snapshot.counter_value snap "simulator.rejected");
  Alcotest.(check int) "admitted counter" stats.admitted
    (Obs.Metrics.Snapshot.counter_value snap "simulator.admitted")

let test_engine_perfect_estimates_beat_caps_with_error () =
  (* With zero error all policies coincide on yields at reallocation
     points; with error, caps must not beat weights on average. *)
  let with_policy policy max_error =
    (Simulator.Engine.run
       ~rng:(Prng.Rng.create ~seed:7)
       { quick_config with policy; max_error; horizon = 60. }
       ~platform)
      .mean_min_yield
  in
  let weights = with_policy Sharing.Policy.Alloc_weights 0.15 in
  let caps = with_policy Sharing.Policy.Alloc_caps 0.15 in
  Alcotest.(check bool)
    (Printf.sprintf "weights %.3f >= caps %.3f" weights caps)
    true (weights >= caps -. 1e-9)

let test_engine_rejects_when_full () =
  let tiny =
    [| Model.Node.make_cores ~id:0 ~cores:4 ~cpu:0.6 ~mem:0.05 |]
  in
  let stats =
    Simulator.Engine.run ~rng:(Prng.Rng.create ~seed:3)
      { quick_config with horizon = 60.; arrival_rate = 1. }
      ~platform:tiny
  in
  Alcotest.(check bool) "some rejections" true (stats.rejected > 0)

let test_engine_adaptive_threshold_moves () =
  let controller = Sharing.Adaptive_threshold.create ~quantile:90. () in
  let stats =
    Simulator.Engine.run ~rng:(Prng.Rng.create ~seed:11)
      {
        quick_config with
        horizon = 80.;
        max_error = 0.1;
        threshold = Simulator.Engine.Adaptive controller;
      }
      ~platform
  in
  Alcotest.(check bool) "threshold moved off zero" true
    (stats.final_threshold > 0.);
  Alcotest.(check bool) "threshold below clamp" true
    (stats.final_threshold <= 0.5)

(* Each bad config names its field. NaN slips through a plain [<= 0.]
   test and an infinite horizon never returns, so both get cases. *)
let test_engine_validation () =
  let c = quick_config in
  List.iter
    (fun (field, config) ->
      Alcotest.check_raises field
        (Invalid_argument ("Engine.run: " ^ field))
        (fun () -> ignore (Simulator.Engine.run config ~platform)))
    [
      ("horizon", { c with horizon = 0. });
      ("horizon", { c with horizon = Float.nan });
      ("horizon", { c with horizon = Float.infinity });
      ("arrival_rate", { c with arrival_rate = Float.nan });
      ("arrival_rate", { c with arrival_rate = Float.infinity });
      ("mean_lifetime", { c with mean_lifetime = Float.nan });
      ("reallocation_period", { c with reallocation_period = Float.nan });
      ("max_error", { c with max_error = Float.nan });
      ("max_error", { c with max_error = Float.infinity });
      ("per_core_need", { c with per_core_need = Float.nan });
      ("memory_scale", { c with memory_scale = Float.infinity });
      ("yield_gap", { c with yield_gap = Float.nan });
      ( "threshold",
        { c with threshold = Simulator.Engine.Fixed Float.infinity } );
      ("threshold", { c with threshold = Simulator.Engine.Fixed Float.nan });
    ]

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("event queue ordering", test_queue_ordering);
      ("event queue FIFO ties", test_queue_tie_break_fifo);
      ("store residents order", test_store_residents_order);
      ("store resolve choice", test_choose_resolve);
      ("adaptive initial", test_adaptive_initial);
      ("adaptive tracks error", test_adaptive_tracks_error);
      ("adaptive clamped", test_adaptive_clamped);
      ("adaptive window forgets", test_adaptive_window_forgets);
      ("adaptive validation", test_adaptive_validation);
      ("engine runs", test_engine_runs);
      ("engine deterministic", test_engine_deterministic);
      ("engine golden seed 0", test_engine_golden_seed0);
      ("engine golden seed 0 (rejecting)", test_engine_golden_seed0_rejecting);
      ("engine rejects non-2D platform", test_engine_rejects_non_2d_platform);
      ("engine re-eval skips counted", test_engine_reeval_skips_counted);
      ("weights >= caps under error", test_engine_perfect_estimates_beat_caps_with_error);
      ("engine rejects when full", test_engine_rejects_when_full);
      ("adaptive threshold moves", test_engine_adaptive_threshold_moves);
      ("engine validation", test_engine_validation);
    ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_queue_sorts; prop_queue_fifo_ties; prop_store_matches_rebuild ]
