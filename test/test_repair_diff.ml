(* Differential layer for the incremental placement policies (DESIGN.md
   §13), mirroring test_kernel_diff.ml's kernel-vs-naive idiom: the
   incremental path (per-bin load state updated in place on every
   arrival/departure/repair) must be bitwise-identical to the full
   recompute path ([incremental:false], which rebuilds the bin state from
   the live ground truth before every decision). Admissions, rejections,
   repairs, fallbacks, the yield log, and the final placement must all
   agree — and the final placement must respect every node's memory
   capacity. *)

let platform =
  Array.init 8 (fun id ->
      if id < 4 then Model.Node.make_cores ~id ~cores:4 ~cpu:0.4 ~mem:0.4
      else Model.Node.make_cores ~id ~cores:4 ~cpu:0.8 ~mem:0.8)

(* Tight memory (some arrivals are rejected, exercising the full-scan
   fallback of the probe paths) and enough load that bins overload and
   the repair/fallback machinery engages. The epoch/fallback re-solver is
   the cheap single-pass greedy. *)
let config =
  {
    Simulator.Engine.default_config with
    horizon = 80.;
    arrival_rate = 2.;
    mean_lifetime = 15.;
    reallocation_period = 10.;
    memory_scale = 1.4;
    algorithm =
      Heuristics.Algorithms.single_greedy Heuristics.Greedy.S7
        Heuristics.Greedy.P4;
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

let finals_equal (a : Simulator.Engine.final_service list)
    (b : Simulator.Engine.final_service list) =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Simulator.Engine.final_service)
            (y : Simulator.Engine.final_service) ->
         x.f_uid = y.f_uid && x.f_node = y.f_node
         && Int64.bits_of_float x.f_mem = Int64.bits_of_float y.f_mem
         && Int64.bits_of_float x.f_cpu = Int64.bits_of_float y.f_cpu)
       a b

(* The end-of-run placement respects every node's rigid memory capacity
   (the feasibility half of the acceptance criterion; CPU may legitimately
   be oversubscribed — that is what the yield measures). *)
let check_feasible ~msg nodes (finals : Simulator.Engine.final_service list) =
  let h = Array.length nodes in
  let load = Array.make h 0. in
  List.iter
    (fun (f : Simulator.Engine.final_service) ->
      Alcotest.(check bool) (msg ^ ": node in range") true
        (f.f_node >= 0 && f.f_node < h);
      load.(f.f_node) <- load.(f.f_node) +. f.f_mem)
    finals;
  Array.iteri
    (fun i (n : Model.Node.t) ->
      let cap =
        Vec.Vector.get n.Model.Node.capacity.Vec.Epair.aggregate
          Model.Service.mem_dim
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: node %d memory within capacity" msg i)
        true
        (load.(i) <= cap +. 1e-9))
    nodes

let run_engine ~seed ~incremental placement =
  let finals = ref [] in
  let stats =
    Simulator.Engine.run
      ~rng:(Prng.Rng.create ~seed)
      ~incremental
      ~final:(fun fs -> finals := fs)
      { config with placement }
      ~platform
  in
  (stats, !finals)

(* Engine level: incremental vs full recompute, across seeds and both
   probe policies. *)
let test_engine_incremental_matches_full () =
  List.iter
    (fun placement ->
      let name = Simulator.Policy.to_string placement in
      let rejections = ref 0 in
      List.iter
        (fun seed ->
          let fast, fast_finals =
            run_engine ~seed ~incremental:true placement
          in
          let slow, slow_finals =
            run_engine ~seed ~incremental:false placement
          in
          let msg = Printf.sprintf "%s seed %d" name seed in
          Alcotest.(check bool) (msg ^ ": stats identical") true
            (stats_equal fast slow);
          Alcotest.(check bool) (msg ^ ": finals identical") true
            (finals_equal fast_finals slow_finals);
          check_feasible ~msg platform fast_finals;
          Alcotest.(check bool) (msg ^ ": some admissions") true
            (fast.admitted > 0);
          rejections := !rejections + fast.rejected)
        [ 0; 1; 2; 3; 4 ];
      (* The scenario must exercise the reject branch somewhere across the
         seed set, or the admit/reject half of the diff proves nothing. *)
      Alcotest.(check bool) (name ^ ": some rejections across seeds") true
        (!rejections > 0))
    [ Simulator.Policy.Greedy_random; Simulator.Policy.Best_fit ]

(* The resolve path ignores [incremental] entirely. *)
let test_resolve_ignores_incremental () =
  let a, af = run_engine ~seed:2 ~incremental:true Simulator.Policy.Resolve in
  let b, bf = run_engine ~seed:2 ~incremental:false Simulator.Policy.Resolve in
  Alcotest.(check bool) "stats identical" true (stats_equal a b);
  Alcotest.(check bool) "finals identical" true (finals_equal af bf);
  check_feasible ~msg:"resolve" platform af

(* Sharded level: the same differential across shard counts and pool
   sizes, for both partition policies. *)
let test_sharded_incremental_matches_full () =
  List.iter
    (fun partition ->
      List.iter
        (fun shards ->
          let run ?pool incremental =
            Simulator.Sharded.run ?pool ~seed:9 ~partition ~incremental
              ~shards
              { config with placement = Simulator.Policy.Greedy_random }
              ~platform
          in
          let fast = run true in
          let slow = run false in
          let msg = Printf.sprintf "shards %d" shards in
          Alcotest.(check bool) (msg ^ ": merged identical") true
            (stats_equal fast.merged slow.merged);
          Array.iteri
            (fun i per ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: shard %d identical" msg i)
                true
                (stats_equal per slow.per_shard.(i)))
            fast.per_shard;
          let parts =
            Simulator.Sharded.partition ~policy:partition ~shards platform
          in
          Array.iteri
            (fun i finals ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: shard %d finals identical" msg i)
                true
                (finals_equal finals slow.finals.(i));
              check_feasible
                ~msg:(Printf.sprintf "%s shard %d" msg i)
                parts.(i) finals)
            fast.finals;
          (* Pool sizes must not perturb the incremental path either. *)
          if shards > 1 then
            List.iter
              (fun domains ->
                let pooled =
                  Par.Pool.with_pool ~domains (fun pool -> run ~pool true)
                in
                Alcotest.(check bool)
                  (Printf.sprintf "%s: identical at %d domains" msg domains)
                  true
                  (stats_equal fast.merged pooled.merged))
              [ 2; 4 ])
        [ 1; 2; 4 ])
    [ Simulator.Sharded.Contiguous; Simulator.Sharded.Capacity_balanced ]

(* The new counters engage on a probe-policy run: probes touch bins,
   departures trigger repair passes. *)
let test_repair_counters_engage () =
  let was_enabled = Obs.Metrics.enabled () in
  Fun.protect ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ();
      Obs.Metrics.set_enabled was_enabled)
  @@ fun () ->
  Obs.Metrics.set_enabled false;
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  let _ = run_engine ~seed:0 ~incremental:true Simulator.Policy.Greedy_random in
  Obs.Metrics.set_enabled false;
  let snap = Obs.Metrics.snapshot () in
  let counter = Obs.Metrics.Snapshot.counter_value snap in
  Alcotest.(check bool) "bins touched" true
    (counter "simulator.bins_touched" > 0);
  Alcotest.(check bool) "repair passes" true (counter "simulator.repairs" > 0)

(* The probe policies' point, in bins touched per event: on the bench
   [online] section's two-class platform and workload scaled down tenfold
   (100 hosts, 3 arrivals per time unit), greedy-random and best-fit each
   touch at least 5x fewer bins per arrival/departure than the full
   re-solve path, whose admission scan alone walks every node. The counts
   are deterministic and pinned. *)
let test_probe_policies_touch_fewer_bins () =
  let hosts = 100 in
  let platform =
    Array.init hosts (fun id ->
        if id < hosts / 2 then
          Model.Node.make_cores ~id ~cores:4 ~cpu:0.4 ~mem:0.4
        else Model.Node.make_cores ~id ~cores:4 ~cpu:0.8 ~mem:0.8)
  in
  let config =
    {
      config with
      horizon = 60.;
      arrival_rate = 3.;
      mean_lifetime = 30.;
      reallocation_period = 10.;
      max_error = 0.08;
      memory_scale = 0.5;
    }
  in
  let bins_per_event placement =
    let (stats : Simulator.Engine.stats), counter =
      Counters.with_metrics (fun () ->
          Simulator.Engine.run ~rng:(Prng.Rng.create ~seed:11)
            { config with placement } ~platform)
    in
    let bins = counter "simulator.bins_touched" in
    (bins, float_of_int bins /. float_of_int (stats.arrivals + stats.departures))
  in
  let resolve_bins, resolve = bins_per_event Simulator.Policy.Resolve in
  Alcotest.(check int) "resolve bins touched (golden)" 18400 resolve_bins;
  List.iter
    (fun (placement, pin) ->
      let name = Simulator.Policy.to_string placement in
      let bins, per_event = bins_per_event placement in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f bins/event x 5 <= resolve's %.1f" name
           per_event resolve)
        true
        (5. *. per_event <= resolve);
      Alcotest.(check int) (name ^ " bins touched (golden)") pin bins)
    [ (Simulator.Policy.Greedy_random, 537); (Simulator.Policy.Best_fit, 2133) ]

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ( "engine incremental = full recompute",
        test_engine_incremental_matches_full );
      ("resolve ignores incremental flag", test_resolve_ignores_incremental);
      ( "sharded incremental = full recompute",
        test_sharded_incremental_matches_full );
      ("repair counters engage", test_repair_counters_engage);
      ( "probe policies touch 5x fewer bins",
        test_probe_policies_touch_fewer_bins );
    ]
