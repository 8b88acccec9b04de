(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (at a configurable scale — see Experiments.Scale and
   DESIGN.md §3/§4).

   Usage:  dune exec bench/main.exe [-- section ...]
   Sections: table1 table2 fig2 fig3 fig4 fig5 fig6 fig7 figfamilies
             successrate ranking hvplight theorem ablation online parbench
             probepar kernel batch lp obs sim micro (default: all).
   Scale: VMALLOC_SCALE=small|medium|paper (default small).
   Parallelism: VMALLOC_DOMAINS=N (default: recommended domain count;
   1 = legacy sequential path). Results are bit-for-bit independent of N;
   wall times per section land in BENCH_par.json. *)

let progress msg = Printf.eprintf "[bench] %s\n%!" msg

let section_header name =
  Printf.printf "\n%s\n%s\n" name (String.make (String.length name) '=')

(* The experiment drivers' trial fan-out. [None] = legacy sequential
   path (VMALLOC_DOMAINS=1). *)
let pool : Par.Pool.t option ref = ref None

let pool_size () =
  match !pool with Some p -> Par.Pool.size p | None -> 1

(* Wall time per executed section, in execution order, for BENCH_par.json. *)
let section_times : (string * float) list ref = ref []

(* Sequential vs N-domain comparisons recorded by the parbench section. *)
type comparison = {
  c_section : string;
  c_domains : int;
  sequential_s : float;
  parallel_s : float;
}

let comparisons : comparison list ref = ref []

(* Sequential vs k-probe yield-search comparisons (one instance, one
   algorithm) recorded by the probepar section. *)
type probe_comparison = {
  p_algorithm : string;
  p_domains : int;
  p_seq_rounds : int;
  p_par_rounds : int;
  p_seq_s : float;
  p_par_s : float;
}

let probe_comparisons : probe_comparison list ref = ref []

(* Per-algorithm operation counts recorded by the obs section, as
   (algorithm, Snapshot JSON) pairs in run order. *)
let obs_snapshots : (string * string) list ref = ref []

(* METAHVP wall time with the metric sinks disabled vs enabled — the
   zero-overhead-when-disabled check. *)
let obs_overhead : (float * float) option ref = ref None

(* Online-simulator measurements recorded by the sim section. *)
type sim_scale_point = {
  s_horizon : float;
  s_admitted : int;
  s_seconds : float;
}

let sim_scaling : sim_scale_point list ref = ref []
let sim_skips : int option ref = ref None

type sim_shard_run = {
  sh_shards : int;
  sh_domains : int;
  sh_seconds : float;
  sh_identical : bool;
}

let sim_shard_runs : sim_shard_run list ref = ref []

(* Placement-policy comparison (full re-solve vs incremental probe
   placement + local repair) recorded by the online section. Everything
   but the wall time is deterministic. *)
type online_run = {
  o_policy : string;
  o_hosts : int;
  o_events : int;  (* arrivals + departures *)
  o_bins_touched : int;
  o_repairs : int;
  o_fallbacks : int;
  o_admitted : int;
  o_mean_yield : float;
  o_seconds : float;
}

let online_runs : online_run list ref = ref []

(* Kernel vs naive probe-path comparisons (probe-shared packing kernel,
   DESIGN.md §11) recorded by the kernel section. *)
type kernel_run = {
  k_algorithm : string;
  k_domains : int;
  k_kernel_s : float;
  k_naive_s : float;
  k_identical : bool;
}

let kernel_runs : kernel_run list ref = ref []

(* Multi-tenant batched solving vs back-to-back serial solves (batch
   section, DESIGN.md §16): N concurrent yield searches multiplexed over
   one scheduler pool. Round counts and result identity are deterministic
   (stdout); wall times and speculative waste vary with the host / domain
   scheduling and go to stderr and the batch block of
   BENCH_par.json. The CI-gated headline is the round ratio — serial
   binary-search rounds per interleaved scheduler round — not wall
   clock. *)
type batch_run = {
  b_tenants : int;
  b_domains : int;
  b_serial_s : float;
  b_batched_s : float;
  b_serial_rounds : int;
  b_sched_rounds : int;
  b_waste : int;
  b_identical : bool;
}

let batch_runs : batch_run list ref = ref []

(* Dense-tableau vs sparse-revised simplex wall times on one LP (lp
   section). Pivot counts and objectives are deterministic; wall times are
   not, so only the former print to stdout. *)
type lp_solver_run = {
  l_label : string;
  l_n_vars : int;
  l_n_cons : int;
  l_dense_s : float;
  l_revised_s : float;
  l_agree : bool;
}

let lp_solver_runs : lp_solver_run list ref = ref []

(* Cold vs warm-started yield-probe sequences (lp section): total revised
   pivots across the whole binary search, both arms. *)
type lp_probe_run = {
  l_instance : string;
  l_cold_pivots : int;
  l_warm_pivots : int;
  l_warm_starts : int;
  l_cold_s : float;
  l_warm_s : float;
  l_same_yield : bool;
}

let lp_probe_runs : lp_probe_run list ref = ref []

(* Sparse Markowitz LU vs the dense-LU + eta-file factorization oracle
   (Oracles.Dense_lu) over the same cold + warm re-solve sequence (lp
   section). Flop, fill and refactorization counters are deterministic;
   wall times are not. *)
type lp_sparse_lu_run = {
  s_label : string;
  s_n_vars : int;
  s_n_cons : int;
  s_sparse_flops : int;
  s_dense_flops : int;
  s_fill_in : int;
  s_ft_updates : int;
  s_sparse_refactors : int;
  s_dense_refactors : int;
  s_sparse_s : float;
  s_dense_s : float;
  s_identical : bool;
}

let lp_sparse_lu_runs : lp_sparse_lu_run list ref = ref []

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* JSON has no NaN/Inf token; a non-finite statistic (mean yield over an
   empty horizon, say) serializes as null so the file stays parseable. *)
let json_4f v = if Float.is_finite v then Printf.sprintf "%.4f" v else "null"

let write_bench_par_json ~scale_label ~total path =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"scale\": \"%s\",\n" (json_escape scale_label);
  out "  \"domains\": %d,\n" (pool_size ());
  out "  \"total_seconds\": %.3f,\n" total;
  out "  \"sections\": [\n";
  let sections = List.rev !section_times in
  List.iteri
    (fun i (name, dt) ->
      out "    {\"name\": \"%s\", \"seconds\": %.3f}%s\n" (json_escape name)
        dt
        (if i < List.length sections - 1 then "," else ""))
    sections;
  out "  ],\n";
  out "  \"comparisons\": [\n";
  let cs = List.rev !comparisons in
  List.iteri
    (fun i c ->
      out
        "    {\"section\": \"%s\", \"domains\": %d, \"sequential_seconds\": \
         %.3f, \"parallel_seconds\": %.3f, \"speedup\": %.2f}%s\n"
        (json_escape c.c_section) c.c_domains c.sequential_s c.parallel_s
        (if c.parallel_s > 0. then c.sequential_s /. c.parallel_s else 0.)
        (if i < List.length cs - 1 then "," else ""))
    cs;
  out "  ],\n";
  out "  \"probe_par\": [\n";
  let ps = List.rev !probe_comparisons in
  List.iteri
    (fun i p ->
      out
        "    {\"algorithm\": \"%s\", \"domains\": %d, \"sequential_rounds\": \
         %d, \"parallel_rounds\": %d, \"round_ratio\": %.2f, \
         \"sequential_seconds\": %.3f, \"parallel_seconds\": %.3f}%s\n"
        (json_escape p.p_algorithm) p.p_domains p.p_seq_rounds p.p_par_rounds
        (if p.p_par_rounds > 0 then
           float_of_int p.p_seq_rounds /. float_of_int p.p_par_rounds
         else 0.)
        p.p_seq_s p.p_par_s
        (if i < List.length ps - 1 then "," else ""))
    ps;
  out "  ],\n";
  out "  \"kernel\": [\n";
  let ks = List.rev !kernel_runs in
  List.iteri
    (fun i k ->
      out
        "    {\"algorithm\": \"%s\", \"domains\": %d, \"kernel_seconds\": \
         %.4f, \"naive_seconds\": %.4f, \"speedup\": %.2f, \"identical\": \
         %b}%s\n"
        (json_escape k.k_algorithm) k.k_domains k.k_kernel_s k.k_naive_s
        (if k.k_kernel_s > 0. then k.k_naive_s /. k.k_kernel_s else 0.)
        k.k_identical
        (if i < List.length ks - 1 then "," else ""))
    ks;
  out "  ],\n";
  out "  \"batch\": [\n";
  let bs = List.rev !batch_runs in
  List.iteri
    (fun i b ->
      out
        "    {\"tenants\": %d, \"domains\": %d, \"serial_seconds\": %.4f, \
         \"batched_seconds\": %.4f, \"throughput_speedup\": %.2f, \
         \"serial_rounds\": %d, \"rounds_interleaved\": %d, \
         \"round_speedup\": %.2f, \"speculative_waste\": %d, \
         \"identical\": %b}%s\n"
        b.b_tenants b.b_domains b.b_serial_s b.b_batched_s
        (if b.b_batched_s > 0. then b.b_serial_s /. b.b_batched_s else 0.)
        b.b_serial_rounds b.b_sched_rounds
        (float_of_int b.b_serial_rounds
        /. float_of_int (max 1 b.b_sched_rounds))
        b.b_waste b.b_identical
        (if i < List.length bs - 1 then "," else ""))
    bs;
  out "  ],\n";
  out "  \"lp\": {\n";
  out "    \"solver\": [\n";
  let ls = List.rev !lp_solver_runs in
  List.iteri
    (fun i l ->
      out
        "      {\"label\": \"%s\", \"n_vars\": %d, \"n_cons\": %d, \
         \"dense_seconds\": %.4f, \"revised_seconds\": %.4f, \"speedup\": \
         %.2f, \"agree\": %b}%s\n"
        (json_escape l.l_label) l.l_n_vars l.l_n_cons l.l_dense_s
        l.l_revised_s
        (if l.l_revised_s > 0. then l.l_dense_s /. l.l_revised_s else 0.)
        l.l_agree
        (if i < List.length ls - 1 then "," else ""))
    ls;
  out "    ],\n";
  out "    \"probe\": [\n";
  let lp = List.rev !lp_probe_runs in
  List.iteri
    (fun i l ->
      out
        "      {\"instance\": \"%s\", \"cold_pivots\": %d, \"warm_pivots\": \
         %d, \"warm_starts\": %d, \"pivot_ratio\": %.2f, \"cold_seconds\": \
         %.4f, \"warm_seconds\": %.4f, \"same_yield\": %b}%s\n"
        (json_escape l.l_instance) l.l_cold_pivots l.l_warm_pivots
        l.l_warm_starts
        (if l.l_warm_pivots > 0 then
           float_of_int l.l_cold_pivots /. float_of_int l.l_warm_pivots
         else 0.)
        l.l_cold_s l.l_warm_s l.l_same_yield
        (if i < List.length lp - 1 then "," else ""))
    lp;
  out "    ],\n";
  out "    \"sparse_lu\": [\n";
  let sl = List.rev !lp_sparse_lu_runs in
  List.iteri
    (fun i s ->
      out
        "      {\"label\": \"%s\", \"n_vars\": %d, \"n_cons\": %d, \
         \"sparse_flops\": %d, \"dense_flops\": %d, \"flop_ratio\": %.2f, \
         \"fill_in\": %d, \"ft_updates\": %d, \
         \"sparse_refactorizations\": %d, \"dense_refactorizations\": %d, \
         \"sparse_seconds\": %.4f, \"dense_seconds\": %.4f, \
         \"identical\": %b}%s\n"
        (json_escape s.s_label) s.s_n_vars s.s_n_cons s.s_sparse_flops
        s.s_dense_flops
        (if s.s_sparse_flops > 0 then
           float_of_int s.s_dense_flops /. float_of_int s.s_sparse_flops
         else 0.)
        s.s_fill_in s.s_ft_updates s.s_sparse_refactors s.s_dense_refactors
        s.s_sparse_s s.s_dense_s s.s_identical
        (if i < List.length sl - 1 then "," else ""))
    sl;
  out "    ]\n";
  out "  },\n";
  out "  \"obs\": {\n";
  out "    \"per_algorithm\": [\n";
  let snaps = List.rev !obs_snapshots in
  List.iteri
    (fun i (name, json) ->
      out "      {\"algorithm\": \"%s\", \"metrics\": %s}%s\n"
        (json_escape name) json
        (if i < List.length snaps - 1 then "," else ""))
    snaps;
  out "    ],\n";
  (match !obs_overhead with
  | Some (disabled_s, enabled_s) ->
      out
        "    \"overhead\": {\"algorithm\": \"METAHVP\", \"disabled_seconds\": \
         %.4f, \"enabled_seconds\": %.4f, \"enabled_over_disabled\": %.3f}\n"
        disabled_s enabled_s
        (if disabled_s > 0. then enabled_s /. disabled_s else 0.)
  | None -> out "    \"overhead\": null\n");
  out "  },\n";
  out "  \"sim\": {\n";
  out "    \"scaling\": [\n";
  let sc = List.rev !sim_scaling in
  List.iteri
    (fun i p ->
      out
        "      {\"horizon\": %.0f, \"admitted\": %d, \"seconds\": %.3f, \
         \"us_per_admitted\": %.1f}%s\n"
        p.s_horizon p.s_admitted p.s_seconds
        (if p.s_admitted > 0 then
           p.s_seconds /. float_of_int p.s_admitted *. 1e6
         else 0.)
        (if i < List.length sc - 1 then "," else ""))
    sc;
  out "    ],\n";
  (match !sim_skips with
  | Some n -> out "    \"reeval_skips\": %d,\n" n
  | None -> out "    \"reeval_skips\": null,\n");
  out "    \"sharded\": [\n";
  let sr = List.rev !sim_shard_runs in
  List.iteri
    (fun i r ->
      out
        "      {\"shards\": %d, \"domains\": %d, \"seconds\": %.3f, \
         \"identical\": %b}%s\n"
        r.sh_shards r.sh_domains r.sh_seconds r.sh_identical
        (if i < List.length sr - 1 then "," else ""))
    sr;
  out "    ]\n";
  out "  },\n";
  out "  \"online\": [\n";
  let ors = List.rev !online_runs in
  List.iteri
    (fun i o ->
      out
        "    {\"policy\": \"%s\", \"hosts\": %d, \"events\": %d, \
         \"bins_touched\": %d, \"bins_per_event\": %.2f, \"repairs\": %d, \
         \"fallbacks\": %d, \"admitted\": %d, \"mean_min_yield\": %s, \
         \"seconds\": %.3f}%s\n"
        (json_escape o.o_policy) o.o_hosts o.o_events o.o_bins_touched
        (if o.o_events > 0 then
           float_of_int o.o_bins_touched /. float_of_int o.o_events
         else 0.)
        o.o_repairs o.o_fallbacks o.o_admitted (json_4f o.o_mean_yield)
        o.o_seconds
        (if i < List.length ors - 1 then "," else ""))
    ors;
  out "  ]\n";
  out "}\n";
  close_out oc;
  Printf.eprintf "[bench] wrote %s\n%!" path

(* Satellite: keep a local record of every bench run. The current
   BENCH_par.json is copied to bench/history/<git-rev>-<n>.json (smallest
   unused n), and the history path goes to stderr with the other
   run-varying output. *)
let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "norev"
  with _ -> "norev"

let persist_history path =
  try
    let mkdir d =
      try Unix.mkdir d 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    in
    mkdir "bench";
    let dir = Filename.concat "bench" "history" in
    mkdir dir;
    let rev = git_rev () in
    let rec pick n =
      let candidate =
        Filename.concat dir (Printf.sprintf "%s-%d.json" rev n)
      in
      if Sys.file_exists candidate then pick (n + 1) else candidate
    in
    let dest = pick 0 in
    let ic = open_in_bin path in
    let contents = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let oc = open_out_bin dest in
    output_string oc contents;
    close_out oc;
    Printf.eprintf "[bench] bench history: %s\n%!" dest
  with e ->
    Printf.eprintf "[bench] bench history skipped: %s\n%!"
      (Printexc.to_string e)

(* Table 1 / Table 2 share their (expensive) runs. *)
let table_runs = ref None

let get_table_runs scale =
  match !table_runs with
  | Some r -> r
  | None ->
      let r = Experiments.Table1.run ~progress ?pool:!pool scale in
      table_runs := Some r;
      r

(* Sequential vs N-domain wall time on the Table 1 sweep — the perf
   trajectory's first data point. Bypasses the table-run cache so both
   arms do identical work. *)
let run_parbench scale =
  section_header "Parallel speedup (Table 1 sweep, sequential vs domains)";
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let seq, sequential_s =
    time (fun () -> Experiments.Table1.run ~progress scale)
  in
  let par, parallel_s =
    time (fun () -> Experiments.Table1.run ~progress ?pool:!pool scale)
  in
  let identical =
    Experiments.Table1.report_table1 seq = Experiments.Table1.report_table1 par
  in
  comparisons :=
    { c_section = "table1"; c_domains = pool_size (); sequential_s;
      parallel_s }
    :: !comparisons;
  Printf.printf
    "sequential: %.2fs   %d domains: %.2fs   speedup: %.2fx\n\
     reports byte-identical: %s\n"
    sequential_s (pool_size ()) parallel_s
    (if parallel_s > 0. then sequential_s /. parallel_s else 0.)
    (if identical then "yes" else "NO (determinism bug!)")

(* Sequential vs speculative k-probe yield search on one mid-size instance:
   the pool accelerating a *single* trial rather than a trial sweep. Round
   counts are deterministic (and bit-identity of the solutions is asserted);
   wall times go to BENCH_par.json. On a 1-core container the wall-time
   speedup is < 1 — the headline is the round ratio. *)
(* The mid-size Table-1 workload point shared by the probepar, kernel, obs
   and micro sections (and the backfill fallbacks). *)
let corpus_instance () =
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

let run_probe_par () =
  section_header "Speculative k-probe yield search (sequential vs pooled)";
  let inst = corpus_instance () in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let table =
    Stats.Table.create
      ~headers:
        [ "algorithm"; "domains"; "seq rounds"; "par rounds"; "ratio";
          "identical" ]
  in
  List.iter
    (fun (name, strategies) ->
      let solve pool rounds =
        Heuristics.Vp_solver.solve_multi ?pool
          ~on_round:(fun _ -> incr rounds)
          strategies inst
      in
      let seq_rounds = ref 0 in
      let seq, p_seq_s = time (fun () -> solve None seq_rounds) in
      List.iter
        (fun domains ->
          let par_rounds = ref 0 in
          let par, p_par_s =
            time (fun () ->
                Par.Pool.with_pool ~domains (fun pool ->
                    solve (Some pool) par_rounds))
          in
          let identical =
            match (seq, par) with
            | None, None -> true
            | Some (a : Heuristics.Vp_solver.solution), Some b ->
                a.placement = b.placement
                && Int64.bits_of_float a.min_yield
                   = Int64.bits_of_float b.min_yield
            | _ -> false
          in
          probe_comparisons :=
            { p_algorithm = name; p_domains = domains;
              p_seq_rounds = !seq_rounds; p_par_rounds = !par_rounds;
              p_seq_s; p_par_s }
            :: !probe_comparisons;
          Stats.Table.add_row table
            [
              name; string_of_int domains; string_of_int !seq_rounds;
              string_of_int !par_rounds;
              Printf.sprintf "%.2fx"
                (float_of_int !seq_rounds /. float_of_int (max 1 !par_rounds));
              (if identical then "yes" else "NO (determinism bug!)");
            ])
        [ 2; 4 ])
    [
      ("METAVP", Packing.Strategy.vp_all);
      ("METAHVP", Packing.Strategy.hvp_all);
      ("METAHVPLIGHT", Packing.Strategy.hvp_light);
    ];
  Stats.Table.print table

(* Probe-shared packing kernel (DESIGN.md §11): METAHVP through the kernel
   probe path vs the naive fresh-allocation path on the Table-1 workload
   point, at probe-pool sizes 1/2/4. Placements and yields must be
   bit-identical (stdout); wall times and the speedup go to the kernel
   block of BENCH_par.json — the acceptance bar is kernel >= 2x naive. *)
let solutions_identical a b =
  match (a, b) with
  | None, None -> true
  | Some (x : Heuristics.Vp_solver.solution),
    Some (y : Heuristics.Vp_solver.solution) ->
      x.placement = y.placement
      && Int64.bits_of_float x.min_yield = Int64.bits_of_float y.min_yield
  | _ -> false

let kernel_measure ~algorithm ~strategies ~domains ~reps inst =
  let kernel_solve pool () =
    Heuristics.Vp_solver.solve_multi ?pool strategies inst
  in
  let naive_solve pool () =
    Oracles.Naive_probe.solve_multi ?pool strategies inst
  in
  let best f =
    let best_t = ref infinity and result = ref None in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      let r = f () in
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best_t then best_t := dt;
      result := Some r
    done;
    (Option.get !result, !best_t)
  in
  let run pool =
    let kernel, k_kernel_s = best (kernel_solve pool) in
    let naive, k_naive_s = best (naive_solve pool) in
    (kernel, naive, k_kernel_s, k_naive_s)
  in
  let kernel, naive, k_kernel_s, k_naive_s =
    if domains = 1 then run None
    else Par.Pool.with_pool ~domains (fun p -> run (Some p))
  in
  let r =
    { k_algorithm = algorithm; k_domains = domains; k_kernel_s; k_naive_s;
      k_identical = solutions_identical kernel naive }
  in
  kernel_runs := r :: !kernel_runs;
  r

let run_kernel () =
  section_header "Probe-shared packing kernel (kernel vs naive probe path)";
  let inst = corpus_instance () in
  let table =
    Stats.Table.create
      ~headers:
        [ "algorithm"; "domains"; "kernel s"; "naive s"; "speedup";
          "identical" ]
  in
  List.iter
    (fun domains ->
      let r =
        kernel_measure ~algorithm:"METAHVP"
          ~strategies:Packing.Strategy.hvp_all ~domains ~reps:3 inst
      in
      Stats.Table.add_row table
        [
          r.k_algorithm; string_of_int r.k_domains;
          Printf.sprintf "%.3f" r.k_kernel_s;
          Printf.sprintf "%.3f" r.k_naive_s;
          Printf.sprintf "%.2fx"
            (if r.k_kernel_s > 0. then r.k_naive_s /. r.k_kernel_s else 0.);
          (if r.k_identical then "yes" else "NO (kernel bug!)");
        ])
    [ 1; 2; 4 ];
  Stats.Table.print table

(* Multi-tenant batch workload: same-shape tenants (hosts x services
   fixed) with varying slack and rep. *)
let batch_jobs ~tenants =
  let slacks = [| 0.3; 0.4; 0.5 |] in
  Array.init tenants (fun i ->
      {
        Heuristics.Batch.algo = Heuristics.Algorithms.metahvplight;
        instance =
          Experiments.Corpus.instance
            {
              Experiments.Corpus.hosts = 10;
              services = 40;
              cov = 0.5;
              slack = slacks.(i mod Array.length slacks);
              cpu_homogeneous = false;
              mem_homogeneous = false;
              rep = i;
            };
      })

let results_identical a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri
    (fun i x -> if not (solutions_identical x b.(i)) then ok := false)
    a;
  !ok

(* One (tenants, domains) point: the serial arm is passed in (it is
   shared across the pool sizes); the batched arm runs [reps] passes over
   one scheduler, timed best-of and checked identical to each other.
   Counters come from pass 1 alone — one deterministic batch
   execution. *)
let batch_measure ~tenants ~domains ~reps
    ~serial:(serial_results, b_serial_s, b_serial_rounds) jobs =
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let was_enabled = Obs.Metrics.enabled () in
  Fun.protect ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ();
      Obs.Metrics.set_enabled was_enabled)
  @@ fun () ->
  let first, b_batched_s, b_sched_rounds, b_waste, passes_identical =
    Par.Pool.with_pool ~domains @@ fun pool ->
    let sched = Par.Scheduler.create ~pool in
    let pass () =
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ();
      Obs.Metrics.set_enabled true;
      let r, dt = time (fun () -> Heuristics.Batch.solve_batch ~sched jobs) in
      Obs.Metrics.set_enabled false;
      (r, dt, Obs.Metrics.snapshot ())
    in
    let first, dt1, snap1 = pass () in
    let v = Obs.Metrics.Snapshot.counter_value snap1 in
    let best = ref dt1 in
    let identical = ref true in
    for _ = 2 to reps do
      let r, dt, _ = pass () in
      if not (results_identical r first) then identical := false;
      if dt < !best then best := dt
    done;
    ( first, !best, v "scheduler.rounds_interleaved",
      v "binary_search.speculative_waste", !identical )
  in
  let r =
    {
      b_tenants = tenants;
      b_domains = domains;
      b_serial_s;
      b_batched_s;
      b_serial_rounds;
      b_sched_rounds;
      b_waste;
      b_identical = passes_identical && results_identical first serial_results;
    }
  in
  batch_runs := r :: !batch_runs;
  Printf.eprintf
    "[bench] batch t=%d d=%d: serial %.2fs  batched %.2fs  waste %d\n%!"
    tenants domains b_serial_s b_batched_s b_waste;
  r

(* The serial arm: the same jobs solved back-to-back, counting the yield
   searches' sequential rounds (= probes). *)
let batch_serial_arm jobs =
  let was_enabled = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled false;
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  let t0 = Unix.gettimeofday () in
  let results =
    Array.map
      (fun j -> j.Heuristics.Batch.algo.solve j.Heuristics.Batch.instance)
      jobs
  in
  let dt = Unix.gettimeofday () -. t0 in
  Obs.Metrics.set_enabled false;
  let snap = Obs.Metrics.snapshot () in
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled was_enabled;
  ( results, dt,
    Obs.Metrics.Snapshot.counter_value snap "binary_search.rounds" )

let run_batch_bench () =
  section_header "Multi-tenant batched solving (one scheduler pool)";
  let table =
    Stats.Table.create
      ~headers:
        [ "tenants"; "domains"; "serial rounds"; "sched rounds"; "ratio";
          "identical" ]
  in
  List.iter
    (fun tenants ->
      let jobs = batch_jobs ~tenants in
      let serial = batch_serial_arm jobs in
      List.iter
        (fun domains ->
          let r = batch_measure ~tenants ~domains ~reps:2 ~serial jobs in
          Stats.Table.add_row table
            [
              string_of_int r.b_tenants;
              string_of_int r.b_domains;
              string_of_int r.b_serial_rounds;
              string_of_int r.b_sched_rounds;
              Printf.sprintf "%.2fx"
                (float_of_int r.b_serial_rounds
                /. float_of_int (max 1 r.b_sched_rounds));
              (if r.b_identical then "yes" else "NO (scheduler bug!)");
            ])
        [ 1; 2; 4 ])
    [ 1; 4; 16 ];
  Stats.Table.print table

(* Per-algorithm operation counts on one mid-size instance (the probepar
   corpus point), plus the disabled-sink overhead check. The counter
   snapshots are deterministic — sequential solves, no probe pool — so they
   print to stdout; the overhead wall times go to stderr and
   BENCH_par.json. *)
let run_obs () =
  section_header "Observability: per-algorithm operation counts";
  let inst = corpus_instance () in
  let was_enabled = Obs.Metrics.enabled () in
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled was_enabled)
  @@ fun () ->
  let algorithms =
    Heuristics.Algorithms.majors ~seed:1
    @ [ Heuristics.Algorithms.metahvplight ]
  in
  List.iter
    (fun (algo : Heuristics.Algorithms.t) ->
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ();
      Obs.Metrics.set_enabled true;
      ignore (algo.solve inst);
      Obs.Metrics.set_enabled false;
      let snap = Obs.Metrics.snapshot () in
      obs_snapshots :=
        (algo.name, Obs.Metrics.Snapshot.to_json snap) :: !obs_snapshots;
      Printf.printf "-- %s --\n%s" algo.name
        (Obs.Metrics.Snapshot.render snap))
    algorithms;
  (* Disabled-path overhead: every instrumentation call is one atomic load
     and branch, so enabled-vs-disabled wall time on the most heavily
     instrumented solver should be within run-to-run noise. Best of 3 per
     arm to damp that noise. *)
  let time_solve () =
    let t0 = Unix.gettimeofday () in
    ignore (Heuristics.Algorithms.metahvp.solve inst);
    Unix.gettimeofday () -. t0
  in
  let best_of_3 () =
    List.fold_left (fun acc _ -> min acc (time_solve ())) infinity [ 1; 2; 3 ]
  in
  Obs.Metrics.set_enabled false;
  let disabled_s = best_of_3 () in
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset ();
  let enabled_s = best_of_3 () in
  obs_overhead := Some (disabled_s, enabled_s);
  Printf.eprintf
    "[bench] obs overhead (METAHVP, best of 3): disabled %.3fs  enabled \
     %.3fs  (ratio %.3f)\n%!"
    disabled_s enabled_s
    (if disabled_s > 0. then enabled_s /. disabled_s else 0.)

(* LP section helpers (also used by the backfill fallbacks).

   The paper generator scales total CPU need to exactly match total CPU
   capacity, so the rational relaxation is feasible at yield 1 and the
   yield search returns after a single probe — useless for measuring
   warm-started probe sequences. This builder oversubscribes CPU by
   [factor], forcing max yield ~ 1/factor and a full bisection. *)
let oversubscribed_instance ~seed ~nodes:n_nodes ~services:n_services ~factor =
  let rng = Prng.Rng.create ~seed in
  let nodes =
    Array.init n_nodes (fun id ->
        Model.Node.make_cores ~id ~cores:4
          ~cpu:(Prng.Rng.uniform_range rng 1.5 2.5)
          ~mem:1.0)
  in
  let total_cpu =
    Array.fold_left
      (fun acc (nd : Model.Node.t) ->
        acc +. Vec.Vector.get nd.capacity.Vec.Epair.aggregate 0)
      0. nodes
  in
  let per_service = factor *. total_cpu /. Float.of_int n_services in
  let services =
    Array.init n_services (fun id ->
        let agg = per_service *. Prng.Rng.uniform_range rng 0.7 1.3 in
        Model.Service.make_2d ~id
          ~mem_req:(Prng.Rng.uniform_range rng 0.05 0.15)
          ~cpu_need:(agg /. 2., agg) ())
  in
  Model.Instance.v ~nodes ~services

(* One LP through both solvers; objectives must agree (lp.solver block). *)
let lp_solver_measure ~label p =
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let rd, l_dense_s = time (fun () -> Oracles.Dense_simplex.solve p) in
  let rr, l_revised_s = time (fun () -> Lp.Simplex.solve p) in
  let l_agree =
    match (rd, rr) with
    | Oracles.Dense_simplex.Optimal d, Lp.Simplex.Optimal r ->
        Float.abs (d.objective -. r.objective)
        <= 1e-6 *. (1. +. Float.abs d.objective)
    | Oracles.Dense_simplex.Infeasible, Lp.Simplex.Infeasible
    | Oracles.Dense_simplex.Unbounded, Lp.Simplex.Unbounded ->
        true
    | _ -> false
  in
  let run =
    { l_label = label; l_n_vars = p.Lp.Problem.n_vars;
      l_n_cons = Lp.Problem.n_constraints p; l_dense_s; l_revised_s; l_agree }
  in
  lp_solver_runs := run :: !lp_solver_runs;
  Printf.eprintf "[bench] lp solver %s: dense %.3fs  revised %.3fs\n%!" label
    l_dense_s l_revised_s;
  run

(* The full relaxed yield search, cold then warm-started; total revised
   pivots across the probe sequence come from the obs counters (lp.probe
   block). Pivot counts and yields are deterministic; wall times are not. *)
let lp_probe_measure ~label instance =
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let was_enabled = Obs.Metrics.enabled () in
  Fun.protect ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ();
      Obs.Metrics.set_enabled was_enabled)
  @@ fun () ->
  let arm warm =
    Obs.Metrics.set_enabled false;
    Obs.Metrics.reset ();
    Obs.Metrics.set_enabled true;
    let r, dt =
      time (fun () -> Heuristics.Milp.relaxed_yield_search ~warm instance)
    in
    Obs.Metrics.set_enabled false;
    let snap = Obs.Metrics.snapshot () in
    let v name = Obs.Metrics.Snapshot.counter_value snap name in
    (r, dt, v "simplex.pivots", v "simplex.warm_starts")
  in
  let rc, l_cold_s, l_cold_pivots, _ = arm false in
  let rw, l_warm_s, l_warm_pivots, l_warm_starts = arm true in
  let l_same_yield =
    match (rc, rw) with
    | Some (_, yc), Some (_, yw) ->
        Float.abs (yc -. yw)
        <= 2. *. Heuristics.Binary_search.default_tolerance
    | None, None -> true
    | _ -> false
  in
  let run =
    { l_instance = label; l_cold_pivots; l_warm_pivots; l_warm_starts;
      l_cold_s; l_warm_s; l_same_yield }
  in
  lp_probe_runs := run :: !lp_probe_runs;
  Printf.eprintf "[bench] lp probe %s: cold %.3fs  warm %.3fs\n%!" label
    l_cold_s l_warm_s;
  run

(* One LP through the revised simplex on both factorizations — the
   production sparse LU (Lp.Simplex) and the dense-LU oracle
   (Oracles.Dense_lu): a cold solve plus three warm re-solves from the
   optimal basis. The arms must return bit-identical solutions (locked
   exhaustively by test_simplex_diff.ml); here identity doubles as a
   sanity bit in the artifact — verdict and objective bits here; the full
   vectors only on the lp_gen corpus, see below — and the flop counters
   quantify how much factorization work the Markowitz ordering saves
   (lp.sparse_lu block). *)
let lp_sparse_lu_measure ~label p =
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let was_enabled = Obs.Metrics.enabled () in
  Fun.protect ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ();
      Obs.Metrics.set_enabled was_enabled)
  @@ fun () ->
  let arm (module Solver : Lp.Simplex.SOLVER) =
    Obs.Metrics.set_enabled false;
    Obs.Metrics.reset ();
    Obs.Metrics.set_enabled true;
    let results, dt =
      time @@ fun () ->
      let r, basis = Solver.solve_basis p in
      r
      ::
      (match basis with
      | Some b -> List.init 3 (fun _ -> Solver.solve ~warm_basis:b p)
      | None -> [])
    in
    Obs.Metrics.set_enabled false;
    let snap = Obs.Metrics.snapshot () in
    let v name = Obs.Metrics.Snapshot.counter_value snap name in
    ( results, dt, v "simplex.lu_flops", v "simplex.lu_fill_in",
      v "simplex.ft_updates", v "simplex.refactorizations" )
  in
  let rs, s_sparse_s, s_sparse_flops, s_fill_in, s_ft_updates,
      s_sparse_refactors =
    arm (module Lp.Simplex)
  in
  let rd, s_dense_s, s_dense_flops, _, _, s_dense_refactors =
    arm (module Oracles.Dense_lu)
  in
  (* Verdicts and optimal objectives must match to the last bit. The full
     solution vector is bit-identical too on the lp_gen corpus (locked by
     test_simplex_diff.ml), but the paper relaxations at this scale have
     massively degenerate alternative optima — only the yield variable
     carries objective weight — so the backends may legitimately stop at
     different vertices of the same optimal face. *)
  let s_identical =
    List.length rs = List.length rd
    && List.for_all2
         (fun a b ->
           match (a, b) with
           | Lp.Simplex.Optimal a, Lp.Simplex.Optimal b ->
               Int64.bits_of_float a.objective
               = Int64.bits_of_float b.objective
           | Lp.Simplex.Infeasible, Lp.Simplex.Infeasible
           | Lp.Simplex.Unbounded, Lp.Simplex.Unbounded ->
               true
           | _ -> false)
         rs rd
  in
  let run =
    { s_label = label; s_n_vars = p.Lp.Problem.n_vars;
      s_n_cons = Lp.Problem.n_constraints p; s_sparse_flops; s_dense_flops;
      s_fill_in; s_ft_updates; s_sparse_refactors; s_dense_refactors;
      s_sparse_s; s_dense_s; s_identical }
  in
  lp_sparse_lu_runs := run :: !lp_sparse_lu_runs;
  Printf.eprintf "[bench] lp sparse_lu %s: sparse %.3fs  dense-LU %.3fs\n%!"
    label s_sparse_s s_dense_s;
  run

let run_lp () =
  section_header "LP: revised simplex vs dense oracle; warm vs cold probes";
  let solver_table =
    Stats.Table.create ~headers:[ "LP"; "vars"; "cons"; "agree" ]
  in
  List.iter
    (fun family ->
      let label = Printf.sprintf "lp_gen:%s 9x12" (Lp_gen.family_name family) in
      let r =
        lp_solver_measure ~label
          (Lp_gen.generate ~seed:0 ~n_vars:9 ~n_cons:12 family)
      in
      Stats.Table.add_row solver_table
        [ label; string_of_int r.l_n_vars; string_of_int r.l_n_cons;
          (if r.l_agree then "yes" else "NO (solver bug!)") ])
    [ Lp_gen.Feasible; Lp_gen.Degenerate ];
  List.iter
    (fun (nodes, services) ->
      let inst = oversubscribed_instance ~seed:2 ~nodes ~services ~factor:2. in
      let p, _ = Heuristics.Milp.formulation ~integer:false inst in
      let label = Printf.sprintf "relaxation %dnx%ds" nodes services in
      let r = lp_solver_measure ~label p in
      Stats.Table.add_row solver_table
        [ label; string_of_int r.l_n_vars; string_of_int r.l_n_cons;
          (if r.l_agree then "yes" else "NO (solver bug!)") ])
    [ (4, 12); (6, 24); (8, 32) ];
  Stats.Table.print solver_table;
  let probe_table =
    Stats.Table.create
      ~headers:
        [ "instance"; "cold pivots"; "warm pivots"; "warm starts"; "ratio";
          "same yield" ]
  in
  List.iter
    (fun (nodes, services) ->
      let label = Printf.sprintf "%dnx%ds 2x-oversub" nodes services in
      let r =
        lp_probe_measure ~label
          (oversubscribed_instance ~seed:1 ~nodes ~services ~factor:2.)
      in
      Stats.Table.add_row probe_table
        [ label; string_of_int r.l_cold_pivots;
          string_of_int r.l_warm_pivots; string_of_int r.l_warm_starts;
          Printf.sprintf "%.2fx"
            (if r.l_warm_pivots > 0 then
               float_of_int r.l_cold_pivots /. float_of_int r.l_warm_pivots
             else 0.);
          (if r.l_same_yield then "yes" else "NO (warm-start bug!)") ])
    [ (6, 24); (10, 40) ];
  Stats.Table.print probe_table;
  (* Factorization backends up to 100x the Table-1 LP scale: the sparse
     families where Markowitz ordering pays. Block-diagonal runs at the
     full 100x point (2000x1500 — its bases stay nearly fill-free, so
     both arms finish in CI time and the flop ratio shows what the
     ordering buys at scale); banded runs at 3x linear scale (600x450),
     the largest point whose fill-in-heavy dense arm stays within the CI
     budget. A paper relaxation keeps the dense-ish baseline shape. *)
  let sparse_table =
    Stats.Table.create
      ~headers:
        [ "LP"; "sparse flops"; "dense flops"; "ratio"; "fill-in";
          "FT updates"; "same obj bits" ]
  in
  let add_sparse_row label p =
    let r = lp_sparse_lu_measure ~label p in
    Stats.Table.add_row sparse_table
      [ label; string_of_int r.s_sparse_flops; string_of_int r.s_dense_flops;
        Printf.sprintf "%.1fx"
          (if r.s_sparse_flops > 0 then
             float_of_int r.s_dense_flops /. float_of_int r.s_sparse_flops
           else 0.);
        string_of_int r.s_fill_in; string_of_int r.s_ft_updates;
        (if r.s_identical then "yes" else "NO (backend bug!)") ]
  in
  List.iter
    (fun (family, n_vars, n_cons) ->
      add_sparse_row
        (Printf.sprintf "lp_gen:%s %dx%d" (Lp_gen.family_name family) n_vars
           n_cons)
        (Lp_gen.generate ~seed:0 ~n_vars ~n_cons family))
    [ (Lp_gen.Banded, 600, 450); (Lp_gen.Block_diag, 2000, 1500) ];
  (let inst = oversubscribed_instance ~seed:2 ~nodes:8 ~services:64 ~factor:2. in
   let p, _ = Heuristics.Milp.formulation ~integer:false inst in
   add_sparse_row "relaxation 8nx64s" p);
  Stats.Table.print sparse_table

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
   deployment loop the paper's conclusion sketches. *)
(* One placement-policy arm: run the engine with metrics on, read the
   simulator.* counters, and record an [online_run]. Shared with the
   backfill fallback. *)
let online_policy_measure ~hosts ~config placement =
  let platform =
    Array.init hosts (fun id ->
        if id < hosts / 2 then
          Model.Node.make_cores ~id ~cores:4 ~cpu:0.4 ~mem:0.4
        else Model.Node.make_cores ~id ~cores:4 ~cpu:0.8 ~mem:0.8)
  in
  let config = { config with Simulator.Engine.placement } in
  let was_enabled = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled false;
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  let t0 = Unix.gettimeofday () in
  let stats =
    Simulator.Engine.run ~rng:(Prng.Rng.create ~seed:11) config ~platform
  in
  let o_seconds = Unix.gettimeofday () -. t0 in
  Obs.Metrics.set_enabled false;
  let snap = Obs.Metrics.snapshot () in
  Obs.Metrics.set_enabled was_enabled;
  let counter = Obs.Metrics.Snapshot.counter_value snap in
  let run =
    {
      o_policy = Simulator.Policy.to_string placement;
      o_hosts = hosts;
      o_events = stats.arrivals + stats.departures;
      o_bins_touched = counter "simulator.bins_touched";
      o_repairs = counter "simulator.repairs";
      o_fallbacks = counter "simulator.repair_fallbacks";
      o_admitted = stats.admitted;
      o_mean_yield = stats.mean_min_yield;
      o_seconds;
    }
  in
  online_runs := run :: !online_runs;
  run

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
  (* Placement policies at 100x the Table-1 platform scale: the probe
     policies should touch at least 5x fewer bins per event than the full
     re-solve path (its admission scan alone walks every node per
     arrival). The epoch/fallback re-solver is the cheap single-pass
     greedy so the resolve arm's wall time stays bounded. *)
  print_newline ();
  print_endline "Placement policies (1000 hosts, 100x Table-1 scale):";
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
  List.iter
    (fun placement ->
      let r = online_policy_measure ~hosts:1000 ~config:policy_config placement in
      let bpe =
        if r.o_events > 0 then
          float_of_int r.o_bins_touched /. float_of_int r.o_events
        else 0.
      in
      if placement = Simulator.Policy.Resolve then resolve_bpe := bpe;
      Stats.Table.add_row ptable
        [
          r.o_policy;
          string_of_int r.o_admitted;
          Printf.sprintf "%.4f" r.o_mean_yield;
          Printf.sprintf "%.1f" bpe;
          string_of_int r.o_repairs;
          string_of_int r.o_fallbacks;
        ];
      Printf.eprintf "[bench] online policy %s: %.3fs\n%!" r.o_policy
        r.o_seconds;
      if placement <> Simulator.Policy.Resolve then
        Printf.printf "%s touches >=5x fewer bins per event than resolve: %s\n"
          r.o_policy
          (if !resolve_bpe >= 5. *. bpe then "yes"
           else "NO (incremental-path regression!)"))
    Simulator.Policy.all;
  Stats.Table.print ptable

(* Online-simulator section: (1) arrival-path scaling — with a bounded
   steady-state active set, total cost must grow ~linearly in admitted
   services now that the engine's arrival/departure paths are O(log n)
   (the former list-append copy made the constant grow with the live set);
   (2) the rejected-arrival re-evaluation skip counter; (3) sharded runs:
   shards=4 merged deterministically, byte-identical at any domain count.
   Counts and identity flags are deterministic (stdout); wall times go to
   stderr and the sim block of BENCH_par.json. *)
let run_sim () =
  section_header "Online simulator (sharded engine, hot-path scaling)";
  let platform =
    Array.init 8 (fun id ->
        if id < 4 then Model.Node.make_cores ~id ~cores:4 ~cpu:0.4 ~mem:0.4
        else Model.Node.make_cores ~id ~cores:4 ~cpu:0.8 ~mem:0.8)
  in
  let config horizon =
    {
      Simulator.Engine.default_config with
      horizon;
      arrival_rate = 2.;
      mean_lifetime = 12.;
      reallocation_period = 20.;
      (* Tight enough that a few arrivals are rejected — the skip-path
         measurement needs them — while the steady-state set stays
         bounded. *)
      memory_scale = 1.4;
    }
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* Arrival-path scaling: doubling the horizon doubles admitted arrivals
     while the steady-state active set stays bounded. *)
  List.iter
    (fun horizon ->
      let stats, s_seconds =
        time (fun () ->
            Simulator.Engine.run
              ~rng:(Prng.Rng.create ~seed:0)
              (config horizon) ~platform)
      in
      sim_scaling :=
        { s_horizon = horizon; s_admitted = stats.admitted; s_seconds }
        :: !sim_scaling;
      Printf.printf "horizon %4.0f: %4d admitted, %3d rejected\n" horizon
        stats.admitted stats.rejected;
      Printf.eprintf "[bench] sim horizon %.0f: %.3fs (%.1f us/admitted)\n%!"
        horizon s_seconds
        (if stats.admitted > 0 then
           s_seconds /. float_of_int stats.admitted *. 1e6
         else 0.))
    [ 100.; 200.; 400. ];
  (* Rejected-arrival skip counter on the default sim scenario. *)
  let was_enabled = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled false;
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  let skip_stats =
    Simulator.Engine.run ~rng:(Prng.Rng.create ~seed:0) (config 200.)
      ~platform
  in
  Obs.Metrics.set_enabled false;
  let snap = Obs.Metrics.snapshot () in
  Obs.Metrics.set_enabled was_enabled;
  let skips = Obs.Metrics.Snapshot.counter_value snap "simulator.reeval_skips" in
  sim_skips := Some skips;
  Printf.printf
    "re-evaluation skips (rejected arrivals): %d of %d rejected — %s\n" skips
    skip_stats.rejected
    (if skips = skip_stats.rejected && skips > 0 then "ok"
     else "UNEXPECTED (skip-path bug!)");
  (* Sharded runs: 4 shards, sequential vs the session pool. *)
  let sharded ?pool domains =
    let r, seconds =
      time (fun () ->
          Simulator.Sharded.run ?pool ~seed:0 ~shards:4 (config 200.)
            ~platform)
    in
    (r, domains, seconds)
  in
  let base, _, base_s = sharded 1 in
  sim_shard_runs :=
    { sh_shards = 4; sh_domains = 1; sh_seconds = base_s;
      sh_identical = true }
    :: !sim_shard_runs;
  (match !pool with
  | Some p ->
      let par, domains, par_s = sharded ~pool:p (Par.Pool.size p) in
      let identical = par.Simulator.Sharded.merged = base.Simulator.Sharded.merged in
      sim_shard_runs :=
        { sh_shards = 4; sh_domains = domains; sh_seconds = par_s;
          sh_identical = identical }
        :: !sim_shard_runs;
      Printf.printf "sharded (4 shards) merged stats identical at %d domains: %s\n"
        domains
        (if identical then "yes" else "NO (determinism bug!)")
  | None ->
      Printf.printf
        "sharded (4 shards) merged stats identical at 1 domain: yes\n");
  Printf.printf "sharded admitted: %d  merged min-yield samples: %d\n"
    base.Simulator.Sharded.merged.admitted
    (List.length base.Simulator.Sharded.merged.yield_samples)

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

(* Bechamel micro-benchmarks: per-algorithm cost on one fixed mid-size
   instance (complements Table 2's wall-clock averages). *)
let run_micro () =
  section_header "Micro-benchmarks (Bechamel)";
  let open Bechamel in
  let inst = corpus_instance () in
  let solver name (algo : Heuristics.Algorithms.t) =
    Test.make ~name (Staged.stage (fun () -> ignore (algo.solve inst)))
  in
  let tests =
    Test.make_grouped ~name:"solvers" ~fmt:"%s/%s"
      [
        solver "metagreedy" Heuristics.Algorithms.metagreedy;
        solver "metavp" Heuristics.Algorithms.metavp;
        solver "metahvplight" Heuristics.Algorithms.metahvplight;
        solver "rrnz" (Heuristics.Algorithms.rrnz ~seed:1);
      ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 2.0) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun measure tbl ->
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
              Printf.printf "%-24s %12.0f ns/run (%s)\n" name est measure
          | _ -> Printf.printf "%-24s (no estimate)\n" name)
        tbl)
    merged

(* Satellite: BENCH_par.json must never ship hollow arrays. When a run
   selects a subset of sections (e.g. CI's `bench -- obs sim`), any block
   whose section didn't run gets one cheap fallback measurement here, so
   every consumer sees at least one entry per block at every scale. The
   fallbacks use METAHVPLIGHT (60 strategies) and a short sim horizon to
   stay a few hundred milliseconds each. *)
let backfill_bench_blocks () =
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let inst = lazy (corpus_instance ()) in
  if !kernel_runs = [] then begin
    progress "backfill: kernel block (METAHVPLIGHT, 1 domain)";
    ignore
      (kernel_measure ~algorithm:"METAHVPLIGHT"
         ~strategies:Packing.Strategy.hvp_light ~domains:1 ~reps:1
         (Lazy.force inst))
  end;
  if !comparisons = [] then begin
    progress "backfill: comparisons block (METAHVPLIGHT, 1 vs 2 domains)";
    let solve pool () =
      ignore
        (Heuristics.Vp_solver.solve_multi ?pool Packing.Strategy.hvp_light
           (Lazy.force inst))
    in
    let (), sequential_s = time (solve None) in
    let (), parallel_s =
      time (fun () ->
          Par.Pool.with_pool ~domains:2 (fun p -> solve (Some p) ()))
    in
    comparisons :=
      { c_section = "fallback:hvplight-solve"; c_domains = 2; sequential_s;
        parallel_s }
      :: !comparisons
  end;
  if !probe_comparisons = [] then begin
    progress "backfill: probe_par block (METAHVPLIGHT, 2 domains)";
    let solve pool rounds =
      ignore
        (Heuristics.Vp_solver.solve_multi ?pool
           ~on_round:(fun _ -> incr rounds)
           Packing.Strategy.hvp_light (Lazy.force inst))
    in
    let seq_rounds = ref 0 in
    let (), p_seq_s = time (fun () -> solve None seq_rounds) in
    let par_rounds = ref 0 in
    let (), p_par_s =
      time (fun () ->
          Par.Pool.with_pool ~domains:2 (fun p -> solve (Some p) par_rounds))
    in
    probe_comparisons :=
      { p_algorithm = "METAHVPLIGHT"; p_domains = 2;
        p_seq_rounds = !seq_rounds; p_par_rounds = !par_rounds; p_seq_s;
        p_par_s }
      :: !probe_comparisons
  end;
  if !obs_snapshots = [] || !obs_overhead = None then begin
    progress "backfill: obs block (METAHVPLIGHT counters + overhead)";
    let was_enabled = Obs.Metrics.enabled () in
    Fun.protect ~finally:(fun () ->
        Obs.Metrics.set_enabled false;
        Obs.Metrics.reset ();
        Obs.Metrics.set_enabled was_enabled)
    @@ fun () ->
    let solve () =
      ignore (Heuristics.Algorithms.metahvplight.solve (Lazy.force inst))
    in
    if !obs_snapshots = [] then begin
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ();
      Obs.Metrics.set_enabled true;
      solve ();
      Obs.Metrics.set_enabled false;
      let snap = Obs.Metrics.snapshot () in
      obs_snapshots :=
        ("METAHVPLIGHT", Obs.Metrics.Snapshot.to_json snap)
        :: !obs_snapshots
    end;
    if !obs_overhead = None then begin
      Obs.Metrics.set_enabled false;
      let (), disabled_s = time solve in
      Obs.Metrics.set_enabled true;
      Obs.Metrics.reset ();
      let (), enabled_s = time solve in
      obs_overhead := Some (disabled_s, enabled_s)
    end
  end;
  if !batch_runs = [] then begin
    progress "backfill: batch block (4 tenants, 2 domains)";
    let jobs = batch_jobs ~tenants:4 in
    let serial = batch_serial_arm jobs in
    ignore (batch_measure ~tenants:4 ~domains:2 ~reps:2 ~serial jobs)
  end;
  if !lp_solver_runs = [] then begin
    progress "backfill: lp.solver block (lp_gen 9x12)";
    ignore
      (lp_solver_measure ~label:"fallback:lp_gen:feasible 9x12"
         (Lp_gen.generate ~seed:0 ~n_vars:9 ~n_cons:12 Lp_gen.Feasible))
  end;
  if !lp_probe_runs = [] then begin
    progress "backfill: lp.probe block (3nx8s 2x-oversub)";
    ignore
      (lp_probe_measure ~label:"fallback:3nx8s 2x-oversub"
         (oversubscribed_instance ~seed:1 ~nodes:3 ~services:8 ~factor:2.))
  end;
  if !lp_sparse_lu_runs = [] then begin
    progress "backfill: lp.sparse_lu block (banded 200x150)";
    ignore
      (lp_sparse_lu_measure ~label:"fallback:lp_gen:banded 200x150"
         (Lp_gen.generate ~seed:0 ~n_vars:200 ~n_cons:150 Lp_gen.Banded))
  end;
  if !sim_scaling = [] || !sim_skips = None || !sim_shard_runs = [] then begin
    progress "backfill: sim block (horizon 50)";
    let platform =
      Array.init 4 (fun id ->
          if id < 2 then Model.Node.make_cores ~id ~cores:4 ~cpu:0.4 ~mem:0.4
          else Model.Node.make_cores ~id ~cores:4 ~cpu:0.8 ~mem:0.8)
    in
    let config =
      {
        Simulator.Engine.default_config with
        horizon = 50.;
        arrival_rate = 2.;
        mean_lifetime = 12.;
        reallocation_period = 20.;
        memory_scale = 1.4;
      }
    in
    if !sim_scaling = [] || !sim_skips = None then begin
      let was_enabled = Obs.Metrics.enabled () in
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ();
      Obs.Metrics.set_enabled true;
      let stats, s_seconds =
        time (fun () ->
            Simulator.Engine.run ~rng:(Prng.Rng.create ~seed:0) config
              ~platform)
      in
      Obs.Metrics.set_enabled false;
      let snap = Obs.Metrics.snapshot () in
      Obs.Metrics.set_enabled was_enabled;
      if !sim_scaling = [] then
        sim_scaling :=
          { s_horizon = 50.; s_admitted = stats.admitted; s_seconds }
          :: !sim_scaling;
      if !sim_skips = None then
        sim_skips :=
          Some
            (Obs.Metrics.Snapshot.counter_value snap "simulator.reeval_skips")
    end;
    if !sim_shard_runs = [] then begin
      let _, sh_seconds =
        time (fun () ->
            Simulator.Sharded.run ~seed:0 ~shards:2 config ~platform)
      in
      sim_shard_runs :=
        { sh_shards = 2; sh_domains = 1; sh_seconds; sh_identical = true }
        :: !sim_shard_runs
    end
  end;
  if !online_runs = [] then begin
    progress "backfill: online block (40 hosts, resolve vs greedy-random)";
    let config =
      {
        Simulator.Engine.default_config with
        horizon = 40.;
        arrival_rate = 4.;
        mean_lifetime = 20.;
        reallocation_period = 10.;
        memory_scale = 0.5;
        algorithm =
          Heuristics.Algorithms.single_greedy Heuristics.Greedy.S7
            Heuristics.Greedy.P4;
      }
    in
    ignore (online_policy_measure ~hosts:40 ~config Simulator.Policy.Resolve);
    ignore
      (online_policy_measure ~hosts:40 ~config Simulator.Policy.Greedy_random)
  end

let all_sections =
  [
    "table1"; "table2"; "fig2"; "fig3"; "fig4"; "fig5"; "fig6"; "fig7";
    "figfamilies"; "successrate"; "ranking"; "hvplight"; "theorem";
    "ablation"; "online"; "parbench"; "probepar"; "kernel"; "batch"; "lp";
    "obs"; "sim"; "micro";
  ]

let () =
  let scale = Experiments.Scale.from_env () in
  let domains = Experiments.Scale.domains_from_env () in
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
  let t0 = Unix.gettimeofday () in
  let timed_section name f =
    let s0 = Unix.gettimeofday () in
    f ();
    section_times := (name, Unix.gettimeofday () -. s0) :: !section_times
  in
  List.iter
    (fun section ->
      timed_section section @@ fun () ->
      match section with
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
      | "parbench" -> run_parbench scale
      | "probepar" -> run_probe_par ()
      | "kernel" -> run_kernel ()
      | "batch" -> run_batch_bench ()
      | "lp" -> run_lp ()
      | "obs" -> run_obs ()
      | "sim" -> run_sim ()
      | "micro" -> run_micro ()
      | other -> Printf.eprintf "unknown section %S (skipped)\n" other)
    requested;
  timed_section "backfill" backfill_bench_blocks;
  let total = Unix.gettimeofday () -. t0 in
  Printf.eprintf "[bench] total bench time: %.1fs\n%!" total;
  write_bench_par_json ~scale_label:scale.Experiments.Scale.label ~total
    "BENCH_par.json";
  persist_history "BENCH_par.json";
  Option.iter Par.Pool.shutdown !pool
