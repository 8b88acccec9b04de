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

(* Active set: the engine's O(1) replacement for its former list ref. *)

let test_active_set_order () =
  let s = Simulator.Active_set.create () in
  List.iter (fun uid -> Simulator.Active_set.append s ~uid (uid * 10))
    [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list int)) "insertion order" [ 10; 20; 30; 40; 50 ]
    (Simulator.Active_set.to_list s);
  Alcotest.(check bool) "remove middle" true
    (Simulator.Active_set.remove s ~uid:3);
  Alcotest.(check bool) "remove head" true
    (Simulator.Active_set.remove s ~uid:1);
  Alcotest.(check (list int)) "order preserved" [ 20; 40; 50 ]
    (Simulator.Active_set.to_list s);
  Simulator.Active_set.append s ~uid:6 60;
  Alcotest.(check (list int)) "append after removals" [ 20; 40; 50; 60 ]
    (Array.to_list (Simulator.Active_set.to_array s));
  Alcotest.(check bool) "remove tail" true
    (Simulator.Active_set.remove s ~uid:6);
  Alcotest.(check (list int)) "tail gone" [ 20; 40; 50 ]
    (Simulator.Active_set.to_list s);
  Alcotest.(check int) "length" 3 (Simulator.Active_set.length s)

let test_active_set_missing_and_duplicates () =
  let s = Simulator.Active_set.create () in
  Simulator.Active_set.append s ~uid:7 "x";
  Alcotest.(check bool) "missing uid" false
    (Simulator.Active_set.remove s ~uid:8);
  Alcotest.(check bool) "mem" true (Simulator.Active_set.mem s ~uid:7);
  Alcotest.check_raises "duplicate uid"
    (Invalid_argument "Active_set.append: duplicate uid") (fun () ->
      Simulator.Active_set.append s ~uid:7 "y");
  Alcotest.(check bool) "remove" true (Simulator.Active_set.remove s ~uid:7);
  Alcotest.(check bool) "now empty" true (Simulator.Active_set.is_empty s);
  Alcotest.(check (list string)) "empty array" []
    (Array.to_list (Simulator.Active_set.to_array s));
  (* Re-adding a removed uid is fine. *)
  Simulator.Active_set.append s ~uid:7 "z";
  Alcotest.(check (list string)) "readded" [ "z" ]
    (Simulator.Active_set.to_list s)

(* A random interleaving of appends and removals must match the
   list-reference semantics ([@ [x]] / List.filter) element for element. *)
let prop_active_set_matches_list =
  QCheck2.Test.make ~name:"active set ≡ list append/filter semantics"
    ~count:200
    QCheck2.Gen.(list_size (int_range 0 120) (int_range 0 30))
    (fun ops ->
      let s = Simulator.Active_set.create () in
      let reference = ref [] in
      let next = ref 0 in
      List.iter
        (fun op ->
          if op < 20 then begin
            (* append a fresh uid *)
            let uid = !next in
            incr next;
            Simulator.Active_set.append s ~uid uid;
            reference := !reference @ [ uid ]
          end
          else begin
            (* remove the op-th oldest live uid, when it exists *)
            match List.nth_opt !reference (op - 20) with
            | None -> ()
            | Some uid ->
                ignore (Simulator.Active_set.remove s ~uid);
                reference := List.filter (fun u -> u <> uid) !reference
          end)
        ops;
      Simulator.Active_set.to_list s = !reference)

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
      ("active set order", test_active_set_order);
      ("active set missing/duplicates", test_active_set_missing_and_duplicates);
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
      [ prop_queue_sorts; prop_queue_fifo_ties; prop_active_set_matches_list ]
