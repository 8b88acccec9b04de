(* Tests for the sharded online simulator: partitioning, the
   single-shard ≡ engine equivalence, and byte-identical merged stats at
   any domain count. *)

let platform =
  Array.init 8 (fun id ->
      if id < 4 then Model.Node.make_cores ~id ~cores:4 ~cpu:0.4 ~mem:0.4
      else Model.Node.make_cores ~id ~cores:4 ~cpu:0.8 ~mem:0.8)

let config =
  {
    Simulator.Engine.default_config with
    horizon = 60.;
    arrival_rate = 1.;
    mean_lifetime = 15.;
    reallocation_period = 10.;
    memory_scale = 0.5;
  }

let stats_equal (a : Simulator.Engine.stats) (b : Simulator.Engine.stats) =
  a.arrivals = b.arrivals && a.admitted = b.admitted
  && a.rejected = b.rejected && a.departures = b.departures
  && a.reallocations = b.reallocations
  && a.failed_reallocations = b.failed_reallocations
  && a.migrations = b.migrations
  && Int64.bits_of_float a.mean_min_yield
     = Int64.bits_of_float b.mean_min_yield
  && Int64.bits_of_float a.final_threshold
     = Int64.bits_of_float b.final_threshold
  && List.length a.yield_samples = List.length b.yield_samples
  && List.for_all2
       (fun (t1, y1) (t2, y2) ->
         Int64.bits_of_float t1 = Int64.bits_of_float t2
         && Int64.bits_of_float y1 = Int64.bits_of_float y2)
       a.yield_samples b.yield_samples

let test_partition_covers_nodes () =
  let parts = Simulator.Sharded.partition ~shards:3 platform in
  Alcotest.(check int) "three shards" 3 (Array.length parts);
  let sizes = Array.map Array.length parts in
  Alcotest.(check int) "all nodes covered" (Array.length platform)
    (Array.fold_left ( + ) 0 sizes);
  Array.iter
    (fun shard ->
      Array.iteri
        (fun i (n : Model.Node.t) ->
          Alcotest.(check int) "dense per-shard ids" i n.id)
        shard)
    parts;
  (* Contiguous slices in platform order: concatenating the shard
     capacities reproduces the platform's capacities. *)
  let caps =
    Array.concat (Array.to_list parts)
    |> Array.map (fun (n : Model.Node.t) -> n.capacity)
  in
  Array.iteri
    (fun i (n : Model.Node.t) ->
      Alcotest.(check bool) "capacity preserved" true
        (Vec.Epair.equal n.capacity caps.(i)))
    platform

let test_partition_validation () =
  Alcotest.check_raises "zero shards"
    (Invalid_argument "Sharded.run: shards must be positive") (fun () ->
      ignore (Simulator.Sharded.partition ~shards:0 platform));
  Alcotest.check_raises "more shards than nodes"
    (Invalid_argument "Sharded.run: more shards than nodes") (fun () ->
      ignore (Simulator.Sharded.run ~shards:9 config ~platform))

let test_single_shard_matches_engine () =
  let engine =
    Simulator.Engine.run ~rng:(Prng.Rng.create ~seed:3) config ~platform
  in
  let sharded = Simulator.Sharded.run ~seed:3 ~shards:1 config ~platform in
  Alcotest.(check bool) "merged = engine stats" true
    (stats_equal engine sharded.merged);
  Alcotest.(check int) "one per-shard entry" 1
    (Array.length sharded.per_shard);
  Alcotest.(check bool) "per-shard = merged" true
    (stats_equal sharded.merged sharded.per_shard.(0))

let test_merged_consistency () =
  let r = Simulator.Sharded.run ~seed:5 ~shards:4 config ~platform in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 r.per_shard in
  Alcotest.(check int) "arrivals sum"
    (sum (fun (s : Simulator.Engine.stats) -> s.arrivals))
    r.merged.arrivals;
  Alcotest.(check int) "admitted sum"
    (sum (fun (s : Simulator.Engine.stats) -> s.admitted))
    r.merged.admitted;
  Alcotest.(check int) "samples merged"
    (sum (fun (s : Simulator.Engine.stats) -> List.length s.yield_samples))
    (List.length r.merged.yield_samples);
  (* The merged log is chronological and its yield column is the global
     min over shards, so it can never exceed any shard's sample at the
     same instant. *)
  let rec chronological = function
    | (t1, _) :: ((t2, _) :: _ as rest) -> t1 <= t2 && chronological rest
    | _ -> true
  in
  Alcotest.(check bool) "merged log chronological" true
    (chronological r.merged.yield_samples);
  Alcotest.(check bool) "yield in range" true
    (List.for_all
       (fun (_, y) -> y >= 0. && y <= 1. +. 1e-9)
       r.merged.yield_samples);
  Alcotest.(check bool) "mean yield in range" true
    (r.merged.mean_min_yield >= 0.
    && r.merged.mean_min_yield <= 1. +. 1e-9)

let test_same_seed_twice () =
  let a = Simulator.Sharded.run ~seed:11 ~shards:4 config ~platform in
  let b = Simulator.Sharded.run ~seed:11 ~shards:4 config ~platform in
  Alcotest.(check bool) "identical merged stats" true
    (stats_equal a.merged b.merged)

(* The acceptance property: merged stats and event logs are byte-identical
   at VMALLOC_DOMAINS = 1, 2, and 4. *)
let test_domain_count_invariance () =
  let sequential =
    Simulator.Sharded.run ~seed:7 ~shards:4 config ~platform
  in
  List.iter
    (fun domains ->
      let pooled =
        Par.Pool.with_pool ~domains (fun pool ->
            Simulator.Sharded.run ~pool ~seed:7 ~shards:4 config ~platform)
      in
      Alcotest.(check bool)
        (Printf.sprintf "identical at %d domains" domains)
        true
        (stats_equal sequential.merged pooled.merged);
      Array.iteri
        (fun i per ->
          Alcotest.(check bool)
            (Printf.sprintf "shard %d identical at %d domains" i domains)
            true
            (stats_equal sequential.per_shard.(i) per))
        pooled.per_shard)
    [ 1; 2; 4 ]

(* Metric snapshots of a sharded run must also be domain-count invariant:
   each shard counts into the sink of the domain that runs it, and a
   snapshot sums every domain's sink. *)
let test_metrics_domain_invariance () =
  let was_enabled = Obs.Metrics.enabled () in
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled was_enabled)
  @@ fun () ->
  let snapshot domains =
    Obs.Metrics.set_enabled false;
    Obs.Metrics.reset ();
    Obs.Metrics.set_enabled true;
    (if domains = 1 then
       ignore (Simulator.Sharded.run ~seed:13 ~shards:4 config ~platform)
     else
       Par.Pool.with_pool ~domains (fun pool ->
           ignore
             (Simulator.Sharded.run ~pool ~seed:13 ~shards:4 config
                ~platform)));
    Obs.Metrics.set_enabled false;
    Obs.Metrics.Snapshot.render (Obs.Metrics.snapshot ())
  in
  let reference = snapshot 1 in
  Alcotest.(check bool) "some metrics recorded" true
    (String.length reference > 0);
  List.iter
    (fun domains ->
      Alcotest.(check string)
        (Printf.sprintf "snapshot at %d domains" domains)
        reference (snapshot domains))
    [ 2; 4 ]

let test_adaptive_sharded_runs () =
  (* Each shard gets a fresh controller; the merged final threshold is the
     max over shards and must have moved under estimation error. *)
  let r =
    Simulator.Sharded.run ~seed:2 ~shards:2
      {
        config with
        max_error = 0.1;
        threshold =
          Simulator.Engine.Adaptive
            (Sharing.Adaptive_threshold.create ~quantile:90. ());
      }
      ~platform
  in
  Alcotest.(check bool) "threshold moved" true (r.merged.final_threshold > 0.);
  Array.iter
    (fun (s : Simulator.Engine.stats) ->
      Alcotest.(check bool) "merged >= shard threshold" true
        (r.merged.final_threshold >= s.final_threshold))
    r.per_shard

(* --- capacity-balanced partition (QCheck properties) --- *)

let scalar_cap (n : Model.Node.t) =
  let agg = n.Model.Node.capacity.Vec.Epair.aggregate in
  Vec.Vector.get agg 0 +. Vec.Vector.get agg 1

(* Random two-resource platforms: 1-16 nodes with capacities on a 0.1
   grid, and a legal shard count. *)
let platform_gen =
  QCheck2.Gen.(
    let* h = int_range 1 16 in
    let* shards = int_range 1 h in
    let tenth = map (fun i -> 0.1 *. float_of_int i) (int_range 1 10) in
    let* caps = list_size (pure h) (pair tenth tenth) in
    pure (shards, Array.of_list caps))

let make_platform caps =
  Array.mapi
    (fun id (cpu, mem) -> Model.Node.make_cores ~id ~cores:4 ~cpu ~mem)
    caps

let prop_balanced_partition_covers =
  QCheck2.Test.make ~name:"capacity-balanced partition assigns each node once"
    ~count:200 platform_gen
    (fun (shards, caps) ->
      let platform = make_platform caps in
      let parts =
        Simulator.Sharded.partition ~policy:Simulator.Sharded.Capacity_balanced
          ~shards platform
      in
      (* Dense per-shard ids, and the multiset of capacities is exactly the
         platform's (nodes of equal capacity are interchangeable). *)
      Array.for_all
        (fun part ->
          Array.for_all (fun (n : Model.Node.t) -> n.id >= 0) part
          && Array.length part > 0)
        parts
      &&
      let assigned =
        Array.concat (Array.to_list parts) |> Array.map scalar_cap
      in
      let expected = Array.map scalar_cap platform in
      Array.sort compare assigned;
      Array.sort compare expected;
      assigned = expected)

let prop_balanced_partition_bound =
  QCheck2.Test.make
    ~name:"capacity-balanced shard totals within one node of each other"
    ~count:200 platform_gen
    (fun (shards, caps) ->
      let platform = make_platform caps in
      let parts =
        Simulator.Sharded.partition ~policy:Simulator.Sharded.Capacity_balanced
          ~shards platform
      in
      let totals =
        Array.map
          (fun part -> Array.fold_left (fun a n -> a +. scalar_cap n) 0. part)
          parts
      in
      let max_total = Array.fold_left Float.max totals.(0) totals in
      let min_total = Array.fold_left Float.min totals.(0) totals in
      let max_node =
        Array.fold_left (fun a n -> Float.max a (scalar_cap n)) 0. platform
      in
      (* The LPT list-scheduling bound. *)
      max_total -. min_total <= max_node +. 1e-9)

let prop_balanced_single_shard_is_contiguous =
  QCheck2.Test.make
    ~name:"one capacity-balanced shard = the contiguous partition"
    ~count:100 platform_gen
    (fun (_, caps) ->
      let platform = make_platform caps in
      let balanced =
        Simulator.Sharded.partition ~policy:Simulator.Sharded.Capacity_balanced
          ~shards:1 platform
      in
      let contiguous = Simulator.Sharded.partition ~shards:1 platform in
      Array.length balanced.(0) = Array.length contiguous.(0)
      && Array.for_all2
           (fun (a : Model.Node.t) (b : Model.Node.t) ->
             a.id = b.id && Vec.Epair.equal a.capacity b.capacity)
           balanced.(0) contiguous.(0))

(* The capacity-balanced partition with the unstable two-key sort
   (descending capacity, then ascending index) it was first written with,
   as platform indices per shard. *)
let two_key_partition ~shards platform =
  let cap = Array.map scalar_cap platform in
  let order = Array.init (Array.length platform) Fun.id in
  Array.sort
    (fun a b -> match compare cap.(b) cap.(a) with 0 -> compare a b | c -> c)
    order;
  let totals = Array.make shards 0. and members = Array.make shards [] in
  Array.iter
    (fun i ->
      let best = ref 0 in
      for s = 1 to shards - 1 do
        if totals.(s) < totals.(!best) then best := s
      done;
      totals.(!best) <- totals.(!best) +. cap.(i);
      members.(!best) <- i :: members.(!best))
    order;
  Array.map (fun l -> Array.of_list (List.sort compare l)) members

(* Platforms of up to 40 nodes whose capacities are (a, b) or (b, a) over
   three values: many nodes share a scalar capacity while their capacity
   vectors differ, so a different choice among tied nodes shows. *)
let tied_platform_gen =
  QCheck2.Gen.(
    let* h = int_range 1 40 in
    let* shards = int_range 1 h in
    let value = oneofl [ 0.2; 0.4; 0.8 ] in
    let* caps = list_size (pure h) (pair value value) in
    pure (shards, Array.of_list caps))

let prop_balanced_partition_stable_order =
  QCheck2.Test.make
    ~name:"capacity-balanced partition = the two-key sort's" ~count:300
    tied_platform_gen
    (fun (shards, caps) ->
      let platform = make_platform caps in
      let parts =
        Simulator.Sharded.partition ~policy:Simulator.Sharded.Capacity_balanced
          ~shards platform
      in
      let expected = two_key_partition ~shards platform in
      Array.for_all2
        (fun (part : Model.Node.t array) members ->
          Array.length part = Array.length members
          && Array.for_all2
               (fun (n : Model.Node.t) i ->
                 Vec.Epair.equal n.capacity platform.(i).Model.Node.capacity)
               part members)
        parts expected)

(* --- the per-shard engine's inputs and its minimum --- *)

(* An arrival's CPU is [per_core_need] times up to four cores, its error
   a draw over [-max_error, max_error]: finite settings whose product or
   draw overflows are rejected by name, through the engine and through
   the shards, since the engine's water-fill rows take them unchecked. *)
let test_engine_rejects_overflowing_cpu () =
  List.iter
    (fun (field, config) ->
      let expected = Invalid_argument ("Engine.run: " ^ field) in
      Alcotest.check_raises field expected (fun () ->
          ignore (Simulator.Engine.run config ~platform));
      Alcotest.check_raises (field ^ ", sharded") expected (fun () ->
          ignore (Simulator.Sharded.run ~shards:2 config ~platform)))
    [
      ("per_core_need", { config with per_core_need = Float.max_float });
      ("max_error", { config with max_error = Float.max_float });
      ("max_error", { config with max_error = Float.max_float /. 1.5 });
    ]

(* The yield cache's minimum: random leaf updates (one leaf, or every
   leaf at once as a re-solve does) on 1 to 13 leaves, power of two or
   not. Values mix failures, +0. and -0., repeated values and random
   yields. After every step the tree's answer has the bits of the linear
   fold it replaces: 0. when some node failed, else [Float.min] over the
   nodes from 1. *)
let prop_min_tree_matches_fold =
  let value =
    QCheck2.Gen.(
      frequency
        [
          (2, pure None);
          (2, pure (Some 0.));
          (2, pure (Some (-0.)));
          (2, pure (Some 1.));
          (2, map Option.some (oneofl [ 0.25; 0.5 ]));
          (3, map Option.some (float_bound_inclusive 1.));
        ])
  in
  let gen =
    QCheck2.Gen.(
      let* n = oneof [ oneofl [ 1; 2; 3; 5; 8; 13 ]; int_range 1 13 ] in
      let step =
        frequency
          [
            (5, map2 (fun h v -> `Set (h, v)) (int_bound (n - 1)) value);
            (1, map (fun vs -> `Set_all vs) (array_size (pure n) value));
          ]
      in
      let* steps = list_size (int_range 1 40) step in
      pure (n, steps))
  in
  QCheck2.Test.make ~name:"min tree = the linear fold, bit for bit" ~count:500
    gen (fun (n, steps) ->
      let tree = Simulator.Min_tree.create n in
      let model = Array.make n (Some 1.) in
      let fold () =
        if Array.exists Option.is_none model then 0.
        else Array.fold_left (fun w v -> Float.min w (Option.get v)) 1. model
      in
      let agrees () =
        Int64.bits_of_float (Simulator.Min_tree.min tree)
        = Int64.bits_of_float (fold ())
      in
      agrees ()
      && List.for_all
           (fun step ->
             (match step with
             | `Set (h, v) ->
                 model.(h) <- v;
                 Simulator.Min_tree.set tree h v
             | `Set_all vs ->
                 Array.blit vs 0 model 0 n;
                 Simulator.Min_tree.set_all tree (Array.get vs));
             agrees ())
           steps)

(* --- RNG stream assignment (locked after hoisting stream setup out of
   the dispatch loop): shard s of a k-shard run replays exactly
   Engine.run with the pre-split seed on its sub-platform, and one shard
   keeps the engine's plain stream. --- *)
let test_stream_assignment_unchanged () =
  let seed = 21 in
  let shards = 3 in
  let r = Simulator.Sharded.run ~seed ~shards config ~platform in
  let parts = Simulator.Sharded.partition ~shards platform in
  Array.iteri
    (fun s part ->
      let direct =
        Simulator.Engine.run
          ~rng:
            (Prng.Rng.create
               ~seed:(Simulator.Sharded.shard_seed ~seed ~shard:s ~shards))
          config ~platform:part
      in
      Alcotest.(check bool)
        (Printf.sprintf "shard %d replays its pre-split stream" s)
        true
        (stats_equal direct r.per_shard.(s)))
    parts;
  let one = Simulator.Sharded.run ~seed ~shards:1 config ~platform in
  let direct =
    Simulator.Engine.run ~rng:(Prng.Rng.create ~seed) config ~platform
  in
  Alcotest.(check bool) "one shard keeps the plain engine stream" true
    (stats_equal direct one.per_shard.(0))

(* --- golden seed-0 pins for the incremental placement policies ---

   Merged counts, the yield-log digest, and the simulator.* counters of a
   4-shard run are pinned at domain counts 1, 2, and 4. Only simulator.*
   counters are pinned: they belong to the event loop alone, so changes
   to the solvers' internal work never move them. [node_evals] counts the
   nodes whose yield the event loop re-evaluated. *)
let samples_digest samples =
  List.fold_left
    (fun acc (t, y) ->
      let mix acc v =
        Int64.add (Int64.mul acc 1000003L) (Int64.bits_of_float v)
      in
      mix (mix acc t) y)
    0L samples

let policy_config placement =
  {
    config with
    Simulator.Engine.placement;
    algorithm =
      Heuristics.Algorithms.single_greedy Heuristics.Greedy.S7
        Heuristics.Greedy.P4;
  }

let run_policy_golden placement domains =
  let was_enabled = Obs.Metrics.enabled () in
  Fun.protect ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ();
      Obs.Metrics.set_enabled was_enabled)
  @@ fun () ->
  Obs.Metrics.set_enabled false;
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  let r =
    if domains = 1 then
      Simulator.Sharded.run ~seed:0 ~shards:4 (policy_config placement)
        ~platform
    else
      Par.Pool.with_pool ~domains (fun pool ->
          Simulator.Sharded.run ~pool ~seed:0 ~shards:4
            (policy_config placement) ~platform)
  in
  Obs.Metrics.set_enabled false;
  (r, Obs.Metrics.snapshot ())

let check_policy_golden placement ~arrivals ~admitted ~rejected ~departures
    ~migrations ~digest ~repairs ~fallbacks ~bins_touched ~node_evals () =
  let name = Simulator.Policy.to_string placement in
  List.iter
    (fun domains ->
      let r, snap = run_policy_golden placement domains in
      let m = r.Simulator.Sharded.merged in
      let tag fmt = Printf.sprintf "%s @%dd: %s" name domains fmt in
      Alcotest.(check int) (tag "arrivals") arrivals m.arrivals;
      Alcotest.(check int) (tag "admitted") admitted m.admitted;
      Alcotest.(check int) (tag "rejected") rejected m.rejected;
      Alcotest.(check int) (tag "departures") departures m.departures;
      Alcotest.(check int) (tag "migrations") migrations m.migrations;
      Alcotest.(check int64) (tag "yield-log digest") digest
        (samples_digest m.yield_samples);
      let counter = Obs.Metrics.Snapshot.counter_value snap in
      Alcotest.(check int) (tag "repairs") repairs
        (counter "simulator.repairs");
      Alcotest.(check int) (tag "fallbacks") fallbacks
        (counter "simulator.repair_fallbacks");
      Alcotest.(check int) (tag "bins touched") bins_touched
        (counter "simulator.bins_touched");
      Alcotest.(check int) (tag "node evaluations") node_evals
        (counter "simulator.node_evals"))
    [ 1; 2; 4 ]

let test_golden_greedy_random =
  check_policy_golden Simulator.Policy.Greedy_random ~arrivals:237
    ~admitted:236 ~rejected:1 ~departures:182 ~migrations:88
    ~digest:7255892090174631288L ~repairs:19 ~fallbacks:9 ~bins_touched:552
    ~node_evals:455

let test_golden_best_fit =
  check_policy_golden Simulator.Policy.Best_fit ~arrivals:245 ~admitted:241
    ~rejected:4 ~departures:180 ~migrations:80
    ~digest:(-2466856073240601296L) ~repairs:16 ~fallbacks:9
    ~bins_touched:796 ~node_evals:454

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("partition covers nodes", test_partition_covers_nodes);
      ("partition validation", test_partition_validation);
      ("single shard matches engine", test_single_shard_matches_engine);
      ("merged stats consistency", test_merged_consistency);
      ("same seed twice", test_same_seed_twice);
      ("domain-count invariance", test_domain_count_invariance);
      ("metrics domain invariance", test_metrics_domain_invariance);
      ("adaptive sharded runs", test_adaptive_sharded_runs);
      ("stream assignment unchanged", test_stream_assignment_unchanged);
      ("golden seed-0 greedy-random", test_golden_greedy_random);
      ("golden seed-0 best-fit", test_golden_best_fit);
      ("engine rejects overflowing CPU", test_engine_rejects_overflowing_cpu);
    ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_balanced_partition_covers;
        prop_balanced_partition_bound;
        prop_balanced_single_shard_is_contiguous;
        prop_balanced_partition_stable_order;
        prop_min_tree_matches_fold;
      ]
