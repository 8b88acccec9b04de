(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (at a configurable scale — see Experiments.Scale and
   DESIGN.md §3/§4). Run-time performance is measured by perfbench/, not
   here.

   Usage:  dune exec bench/main.exe [-- section ...]
   Sections: table1 table2 fig2 fig3 fig4 fig5 fig6 fig7 figfamilies
             successrate ranking hvplight theorem ablation online
             (default: all).
   Scale: VMALLOC_SCALE=small|medium|paper (default small).
   Parallelism: VMALLOC_DOMAINS=N (default: recommended domain count;
   1 = legacy sequential path). Results are bit-for-bit independent of N:
   stdout is the deterministic result stream (Table 2's run times aside);
   progress and other wall times go to stderr. *)

let progress msg = Printf.eprintf "[bench] %s\n%!" msg

let section_header name =
  Printf.printf "\n%s\n%s\n" name (String.make (String.length name) '=')

(* The experiment drivers' trial fan-out. [None] = legacy sequential
   path (VMALLOC_DOMAINS=1). *)
let pool : Par.Pool.t option ref = ref None

(* Table 1 / Table 2 share their (expensive) runs. *)
let table_runs = ref None

let get_table_runs scale =
  match !table_runs with
  | Some r -> r
  | None ->
      let r = Experiments.Table1.run ~progress ?pool:!pool scale in
      table_runs := Some r;
      r

let run_table1 scale =
  section_header "Table 1: pairwise comparison of major heuristics";
  print_string (Experiments.Table1.report_table1 (get_table_runs scale));
  print_endline
    "Paper's shape: METAHVP >= METAVP > METAGREEDY > RRNZ in both yield\n\
     and success rate; RRND has high yield on its rare successes but the\n\
     worst success rate."

let run_table2 scale =
  section_header "Table 2: algorithm run times";
  print_string (Experiments.Table1.report_table2 (get_table_runs scale));
  print_endline
    "Paper's shape: RRNZ orders of magnitude slower (solves an LP);\n\
     METAGREEDY << METAVP < METAHVP (roughly 3x METAVP)."

let run_fig_cov scale variant name =
  section_header name;
  let result = Experiments.Fig_cov.run ~progress ?pool:!pool scale variant in
  print_string (Experiments.Fig_cov.report result);
  print_endline
    "Paper's shape: differences are <= 0 almost everywhere (METAHVP best);\n\
     the METAVP gap widens as the coefficient of variation grows."

let run_fig_error scale services name =
  section_header name;
  let result =
    Experiments.Fig_error.run ~progress ?pool:!pool scale ~services
  in
  print_string (Experiments.Fig_error.report result);
  print_endline
    "Paper's shape: ideal on top; weight/equal with threshold 0 decay\n\
     fastest with error; higher thresholds flatten the curves toward the\n\
     zero-knowledge floor."

let run_success_rate () =
  section_header "Success rate vs memory slack";
  print_string
    (Experiments.Success_rate.report
       (Experiments.Success_rate.run ~progress ()))

let run_ranking () =
  section_header "§5.1 methodology: ranking the 253 HVP strategies";
  print_string
    (Experiments.Strategy_ranking.report
       (Experiments.Strategy_ranking.run ~progress ()))

let run_hvplight scale =
  section_header "§5.1: METAHVPLIGHT";
  print_string
    (Experiments.Light.report
       (Experiments.Light.run ~progress ?pool:!pool scale))

let run_theorem () =
  section_header "Theorem 1";
  print_string
    (Experiments.Theorem_check.report (Experiments.Theorem_check.run ()))

let run_fig_families scale =
  section_header "Appendix figure families (Figs. 8-34 and 35-66, sampled)";
  print_string
    (Experiments.Families.report_cov_family
       (Experiments.Families.cov_family ~progress ?pool:!pool scale));
  print_newline ();
  print_string
    (Experiments.Families.report_error_family
       (Experiments.Families.error_family ~progress ?pool:!pool scale))

(* Online-hosting extension: fixed vs adaptive mitigation thresholds in the
   deployment loop the paper's conclusion sketches, then the placement
   policies at 100x the Table-1 platform scale. *)
let run_online () =
  section_header "Online hosting (extension; paper §8)";
  let platform =
    Array.init 10 (fun id ->
        if id < 6 then Model.Node.make_cores ~id ~cores:4 ~cpu:0.4 ~mem:0.4
        else Model.Node.make_cores ~id ~cores:4 ~cpu:0.8 ~mem:0.8)
  in
  let base =
    {
      Simulator.Engine.default_config with
      horizon = 150.;
      arrival_rate = 0.8;
      mean_lifetime = 30.;
      reallocation_period = 10.;
      max_error = 0.08;
      memory_scale = 0.5;
    }
  in
  let table =
    Stats.Table.create
      ~headers:
        [ "mitigation"; "mean min yield"; "migrations"; "final threshold" ]
  in
  let row name config =
    let stats =
      Simulator.Engine.run ~rng:(Prng.Rng.create ~seed:17) config ~platform
    in
    Stats.Table.add_row table
      [
        name;
        Printf.sprintf "%.4f" stats.mean_min_yield;
        string_of_int stats.migrations;
        Printf.sprintf "%.3f" stats.final_threshold;
      ]
  in
  row "none (t=0)" { base with threshold = Simulator.Engine.Fixed 0. };
  row "fixed t=0.10" { base with threshold = Simulator.Engine.Fixed 0.1 };
  row "fixed t=0.30" { base with threshold = Simulator.Engine.Fixed 0.3 };
  row "adaptive (q90)"
    {
      base with
      threshold =
        Simulator.Engine.Adaptive
          (Sharing.Adaptive_threshold.create ~quantile:90. ());
    };
  Stats.Table.print table;
  print_endline
    "Expected shape: no mitigation suffers under error; the adaptive\n\
     controller approaches the best fixed threshold without tuning.";
  (* Placement policies: the probe policies should touch at least 5x fewer
     bins per event than the full re-solve path (its admission scan alone
     walks every node per arrival; test_repair_diff.ml gates the ratio).
     The epoch/fallback re-solver is the cheap single-pass greedy so the
     resolve arm's wall time stays bounded. *)
  print_newline ();
  print_endline "Placement policies (1000 hosts, 100x Table-1 scale):";
  let hosts = 1000 in
  let platform =
    Array.init hosts (fun id ->
        if id < hosts / 2 then
          Model.Node.make_cores ~id ~cores:4 ~cpu:0.4 ~mem:0.4
        else Model.Node.make_cores ~id ~cores:4 ~cpu:0.8 ~mem:0.8)
  in
  let policy_config =
    {
      Simulator.Engine.default_config with
      horizon = 120.;
      arrival_rate = 30.;
      mean_lifetime = 30.;
      reallocation_period = 10.;
      max_error = 0.08;
      memory_scale = 0.5;
      algorithm = Heuristics.Algorithms.single_greedy Heuristics.Greedy.S7
          Heuristics.Greedy.P4;
    }
  in
  let ptable =
    Stats.Table.create
      ~headers:
        [ "policy"; "admitted"; "mean min yield"; "bins/event"; "repairs";
          "fallbacks" ]
  in
  let resolve_bpe = ref 0. in
  let was_enabled = Obs.Metrics.enabled () in
  List.iter
    (fun placement ->
      let policy = Simulator.Policy.to_string placement in
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ();
      Obs.Metrics.set_enabled true;
      let t0 = Unix.gettimeofday () in
      let stats =
        Simulator.Engine.run ~rng:(Prng.Rng.create ~seed:11)
          { policy_config with placement } ~platform
      in
      let seconds = Unix.gettimeofday () -. t0 in
      Obs.Metrics.set_enabled false;
      let counter =
        Obs.Metrics.Snapshot.counter_value (Obs.Metrics.snapshot ())
      in
      let events = stats.arrivals + stats.departures in
      let bpe =
        if events > 0 then
          float_of_int (counter "simulator.bins_touched")
          /. float_of_int events
        else 0.
      in
      if placement = Simulator.Policy.Resolve then resolve_bpe := bpe;
      Stats.Table.add_row ptable
        [
          policy;
          string_of_int stats.admitted;
          Printf.sprintf "%.4f" stats.mean_min_yield;
          Printf.sprintf "%.1f" bpe;
          string_of_int (counter "simulator.repairs");
          string_of_int (counter "simulator.repair_fallbacks");
        ];
      Printf.eprintf "[bench] online policy %s: %.3fs\n%!" policy seconds;
      if placement <> Simulator.Policy.Resolve then
        Printf.printf "%s touches >=5x fewer bins per event than resolve: %s\n"
          policy
          (if !resolve_bpe >= 5. *. bpe then "yes"
           else "NO (incremental-path regression!)"))
    Simulator.Policy.all;
  Obs.Metrics.set_enabled was_enabled;
  Stats.Table.print ptable

let run_ablation () =
  section_header "Ablations";
  print_string
    (Experiments.Ablation.report_window
       (Experiments.Ablation.window_sweep ?pool:!pool ()));
  print_newline ();
  print_string
    (Experiments.Ablation.report_pp_implementation
       (Experiments.Ablation.pp_implementation ?pool:!pool ()));
  print_newline ();
  print_string
    (Experiments.Ablation.report_tolerance
       (Experiments.Ablation.tolerance_sweep ?pool:!pool ()));
  print_newline ();
  print_string
    (Experiments.Ablation.report_dimension
       (Experiments.Ablation.dimension_sweep ?pool:!pool ()))

let all_sections =
  [
    "table1"; "table2"; "fig2"; "fig3"; "fig4"; "fig5"; "fig6"; "fig7";
    "figfamilies"; "successrate"; "ranking"; "hvplight"; "theorem";
    "ablation"; "online";
  ]

let () =
  let scale = Experiments.Scale.from_env () in
  let domains = Par.Pool.domains_from_env () in
  if domains > 1 then pool := Some (Par.Pool.create ~domains);
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as args) -> args
    | _ -> all_sections
  in
  (* Anything that varies across runs or domain counts goes to stderr:
     stdout is the deterministic result stream. *)
  Printf.printf "vmalloc benchmark harness — scale preset: %s\n"
    scale.Experiments.Scale.label;
  Printf.eprintf "[bench] trial parallelism: %d domain%s%s\n%!" domains
    (if domains = 1 then "" else "s")
    (if domains = 1 then " (legacy sequential path)" else "");
  List.iter
    (function
      | "table1" -> run_table1 scale
      | "table2" -> run_table2 scale
      | "fig2" ->
          run_fig_cov scale Experiments.Fig_cov.Fully_heterogeneous
            "Fig. 2 family: yield difference vs CoV (fully heterogeneous)"
      | "fig3" ->
          run_fig_cov scale Experiments.Fig_cov.Cpu_homogeneous
            "Fig. 3: yield difference vs CoV (CPU homogeneous)"
      | "fig4" ->
          run_fig_cov scale Experiments.Fig_cov.Mem_homogeneous
            "Fig. 4: yield difference vs CoV (memory homogeneous)"
      | "fig5" ->
          run_fig_error scale
            (List.nth scale.Experiments.Scale.error_services 0)
            "Fig. 5 family: error experiments (small service count)"
      | "fig6" ->
          run_fig_error scale
            (List.nth scale.Experiments.Scale.error_services 1)
            "Fig. 6 family: error experiments (medium service count)"
      | "fig7" ->
          run_fig_error scale
            (List.nth scale.Experiments.Scale.error_services 2)
            "Fig. 7 family: error experiments (large service count)"
      | "figfamilies" -> run_fig_families scale
      | "online" -> run_online ()
      | "successrate" -> run_success_rate ()
      | "ranking" -> run_ranking ()
      | "hvplight" -> run_hvplight scale
      | "theorem" -> run_theorem ()
      | "ablation" -> run_ablation ()
      | other -> Printf.eprintf "unknown section %S (skipped)\n" other)
    requested;
  Option.iter Par.Pool.shutdown !pool
