(* Per-layer metrics of a traced run, measured from outside the library:
   the spans it already records (probe, solve_multi, reallocate, shard)
   and the benchmark's own op spans, via Obs.Trace, and the Obs.Metrics
   counters. Every metric is printed on every workload; a layer the
   workload never reaches reads 0. *)

type span = { name : string; ts : float; dur : float }

let spans () =
  let open Obs.Json in
  match parse (Obs.Trace.to_json ()) with
  | Error e -> failwith ("trace export does not parse: " ^ e)
  | Ok doc ->
      let events = Option.fold ~none:[] ~some:to_list (member "traceEvents" doc) in
      List.filter_map
        (fun ev ->
          let num k = Option.bind (member k ev) to_num in
          match (Option.bind (member "name" ev) to_str, num "ts", num "dur") with
          | Some name, Some ts, Some dur -> Some { name; ts; dur }
          | _ -> None)
        events

(* Mean of a histogram, from its exported count and sum. *)
let histogram_mean snap name =
  let open Obs.Json in
  match parse (Obs.Metrics.Snapshot.to_json snap) with
  | Error _ -> 0.
  | Ok doc -> (
      match Option.bind (member "histograms" doc) (member name) with
      | None -> 0.
      | Some h ->
          let get k = Option.value ~default:0. (Option.bind (member k h) to_num) in
          Harness.ratio (get "sum") (get "count"))

(* [ops] are the traced ops with their wall times in seconds, [domains]
   the size of the pool they ran on. *)
let metrics ~(ops : (Workloads.op * float) list) ~domains ~parse_s
    ~traced_over_untraced =
  let snap = Obs.Metrics.snapshot () in
  let c name = Obs.Metrics.Snapshot.counter_value snap name in
  let fc name = float_of_int (c name) in
  let all = spans () in
  let aggs = Obs.Trace.aggregate () in
  let agg label =
    List.find_opt (fun (a : Obs.Trace.agg) -> a.label = label) aggs
  in
  let self_s label = Option.fold ~none:0. ~some:(fun (a : Obs.Trace.agg) -> a.self_us /. 1e6) (agg label) in
  let total_s label = Option.fold ~none:0. ~some:(fun (a : Obs.Trace.agg) -> a.total_us /. 1e6) (agg label) in
  let durs_us label =
    Array.of_list
      (List.filter_map (fun s -> if s.name = label then Some s.dur else None) all)
  in
  let n_ops = float_of_int (List.length ops) in
  let sum f = float_of_int (List.fold_left (fun acc ((o : Workloads.op), _) -> acc + f o) 0 ops) in
  let op_wall = List.fold_left (fun acc (_, dt) -> acc +. dt) 0. ops in
  let searches = sum (fun o -> o.searches) in
  let greedy = sum (fun o -> o.greedy) in
  let lp_ops = sum (fun o -> o.lp) in
  let milp_ops = sum (fun o -> o.milp) in
  let batches = sum (fun o -> o.batches) in
  let probe_s = total_s "probe" in
  let events = fc "simulator.arrivals" +. fc "simulator.departures" in
  let per_kevent name = Harness.ratio (1000. *. fc name) events in
  (* Longest shard span over the mean shard span, per simulation op; the
     median over ops. *)
  let shard_imbalance =
    let shards = List.filter (fun s -> s.name = "shard") all in
    let per_op =
      List.filter_map
        (fun op ->
          if op.name <> "op:sim" then None
          else
            let inside =
              List.filter_map
                (fun s ->
                  if s.ts >= op.ts && s.ts +. s.dur <= op.ts +. op.dur then Some s.dur
                  else None)
                shards
            in
            match inside with
            | [] -> None
            | ds ->
                let mean =
                  List.fold_left ( +. ) 0. ds /. float_of_int (List.length ds)
                in
                Some (Harness.ratio (List.fold_left max 0. ds) mean))
        all
    in
    Harness.median (Array.of_list per_op)
  in
  let event_path_s = self_s "shard" in
  [
    ("packing.probe_s", "s", Harness.ratio probe_s n_ops);
    ("packing.probe_p50_ms", "ms", Harness.median (durs_us "probe") /. 1e3);
    ("packing.bins_per_attempt", "ratio",
     Harness.ratio (fc "packing.bins_examined") (fc "packing.placement_attempts"));
    ("packing.attempts_per_probe", "ratio",
     Harness.ratio (fc "packing.placement_attempts") (fc "vp_solver.oracle_calls"));
    ("packing.perm_keys_per_attempt", "ratio",
     Harness.ratio (fc "packing.perm_keys_tried") (fc "packing.placement_attempts"));
    ("packing.sort_memo_hit_frac", "ratio",
     Harness.ratio (fc "vp_solver.items_cache_hits") (fc "vp_solver.strategy_attempts"));
    ("heuristics.search_self_s", "s", Harness.ratio (self_s "solve_multi") n_ops);
    ("heuristics.probes_per_solve", "count",
     Harness.ratio (fc "binary_search.probes") searches);
    ("heuristics.feasible_probe_frac", "ratio",
     Harness.ratio (fc "vp_solver.oracle_feasible") (fc "vp_solver.oracle_calls"));
    ("heuristics.strategies_per_probe", "ratio",
     Harness.ratio (fc "vp_solver.strategy_attempts") (fc "vp_solver.oracle_calls"));
    ("heuristics.greedy_evals_per_solve", "count",
     Harness.ratio (fc "greedy.candidate_evals") greedy);
    ("lp.rrnz_p50_s", "s", Harness.median (durs_us "op:rrnz") /. 1e6);
    ("lp.probed_p50_s", "s", Harness.median (durs_us "op:rrnz-probed") /. 1e6);
    ("lp.milp_p50_s", "s", Harness.median (durs_us "op:milp") /. 1e6);
    ("lp.pivots_per_op", "count", Harness.ratio (fc "simplex.pivots") lp_ops);
    ("lp.degenerate_pivot_frac", "ratio",
     Harness.ratio (fc "simplex.degenerate_pivots") (fc "simplex.pivots"));
    ("lp.phase1_frac", "ratio",
     Harness.ratio (fc "simplex.phase1_iterations") (fc "simplex.pivots"));
    ("lp.refactorizations_per_op", "count",
     Harness.ratio (fc "simplex.refactorizations") lp_ops);
    ("lp.ft_updates_per_op", "count", Harness.ratio (fc "simplex.ft_updates") lp_ops);
    ("lp.lu_flops_per_op", "count", Harness.ratio (fc "simplex.lu_flops") lp_ops);
    ("lp.lu_fill_in_per_op", "count", Harness.ratio (fc "simplex.lu_fill_in") lp_ops);
    ("lp.warm_starts_per_op", "count", Harness.ratio (fc "simplex.warm_starts") lp_ops);
    ("lp.warm_fallback_frac", "ratio",
     Harness.ratio (fc "simplex.warm_fallbacks") (fc "simplex.warm_starts"));
    ("lp.bland_switches", "count", Harness.ratio (fc "simplex.bland_switches") lp_ops);
    ("lp.bb_nodes_per_milp", "count", Harness.ratio (fc "branch_bound.nodes") milp_ops);
    ("lp.bb_cut_frac", "ratio",
     Harness.ratio
       (fc "branch_bound.pruned_nodes" +. fc "branch_bound.infeasible_nodes")
       (fc "branch_bound.nodes"));
    ("par.busy_frac", "ratio", Harness.ratio probe_s (op_wall *. float_of_int domains));
    ("par.rounds_per_batch", "count",
     Harness.ratio (fc "scheduler.rounds_interleaved") batches);
    ("par.probes_per_round", "ratio",
     Harness.ratio (fc "binary_search.probes") (fc "scheduler.rounds_interleaved"));
    ("par.speculative_waste_frac", "ratio",
     Harness.ratio (fc "binary_search.speculative_waste") (fc "binary_search.probes"));
    ("par.depth_mean", "count", histogram_mean snap "binary_search.depth");
    ("par.scratch_reuses_per_batch", "count",
     Harness.ratio (fc "scheduler.scratch_reuses") batches);
    ("par.shard_imbalance", "ratio", shard_imbalance);
    ("simulator.event_path_s", "s", Harness.ratio event_path_s n_ops);
    ("simulator.us_per_event", "us", Harness.ratio (event_path_s *. 1e6) events);
    ("simulator.reallocate_s", "s", Harness.ratio (total_s "reallocate") n_ops);
    ("simulator.bins_per_event", "ratio", Harness.ratio (fc "simulator.bins_touched") events);
    ("simulator.reeval_skip_frac", "ratio", Harness.ratio (fc "simulator.reeval_skips") events);
    ("simulator.repairs_per_kevent", "count", per_kevent "simulator.repairs");
    ("simulator.fallbacks_per_kevent", "count", per_kevent "simulator.repair_fallbacks");
    ("simulator.migrations_per_kevent", "count", per_kevent "simulator.migrations");
    ("model.parse_s", "s", parse_s);
    ("obs.traced_over_untraced", "ratio", traced_over_untraced);
  ]
