(* vmalloc — command-line front end.

   Subcommands:
     generate   write a random problem instance to a file
     solve      run one algorithm on an instance (file or generated)
     compare    run the major algorithms on an instance and tabulate
     inspect    parse an instance file and print a summary
     simulate   run the online-hosting simulation (extension)
     theorem    print the Theorem 1 table

   Examples:
     vmalloc generate -o inst.txt --hosts 16 --services 64 --cov 0.7
     vmalloc solve inst.txt --algo metahvplight
     vmalloc compare inst.txt
     vmalloc solve --hosts 8 --services 24 --algo metavp   (generate ad hoc) *)

open Cmdliner

(* Shared generation options. *)

type gen_opts = {
  hosts : int;
  services : int;
  cov : float;
  slack : float;
  cpu_homogeneous : bool;
  mem_homogeneous : bool;
  seed : int;
}

let gen_opts_term =
  let hosts =
    Arg.(value & opt int 16 & info [ "hosts" ] ~docv:"H"
           ~doc:"Number of nodes.")
  in
  let services =
    Arg.(value & opt int 48 & info [ "services" ] ~docv:"J"
           ~doc:"Number of services.")
  in
  let cov =
    Arg.(value & opt float 0.5 & info [ "cov" ] ~docv:"C"
           ~doc:"Coefficient of variation of node capacities (0 = \
                 homogeneous).")
  in
  let slack =
    Arg.(value & opt float 0.4 & info [ "slack" ] ~docv:"S"
           ~doc:"Memory slack in (0,1); lower is harder.")
  in
  let cpu_h =
    Arg.(value & flag & info [ "cpu-homogeneous" ]
           ~doc:"Hold CPU capacities at 0.5.")
  in
  let mem_h =
    Arg.(value & flag & info [ "mem-homogeneous" ]
           ~doc:"Hold memory capacities at 0.5.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N"
           ~doc:"Random seed.")
  in
  let make hosts services cov slack cpu_homogeneous mem_homogeneous seed =
    { hosts; services; cov; slack; cpu_homogeneous; mem_homogeneous; seed }
  in
  Term.(const make $ hosts $ services $ cov $ slack $ cpu_h $ mem_h $ seed)

let generate_instance (o : gen_opts) =
  Workload.Generator.generate
    ~rng:(Prng.Rng.create ~seed:o.seed)
    {
      Workload.Generator.hosts = o.hosts;
      services = o.services;
      cov = o.cov;
      slack = o.slack;
      cpu_homogeneous = o.cpu_homogeneous;
      mem_homogeneous = o.mem_homogeneous;
    }

let load_or_generate file opts =
  match file with
  | Some path -> (
      match Model.Codec.read_file path with
      | Ok inst -> Ok inst
      | Error e -> Error (Printf.sprintf "cannot read %s: %s" path e))
  | None -> (
      try Ok (generate_instance opts)
      with Invalid_argument e -> Error e)

let instance_file_term =
  Arg.(value & pos 0 (some file) None
       & info [] ~docv:"INSTANCE"
           ~doc:"Instance file (omit to generate one from the options).")

(* generate *)

let generate_cmd =
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Output file (default: stdout).")
  in
  let run opts output =
    match (try Ok (generate_instance opts) with Invalid_argument e -> Error e)
    with
    | Error e -> `Error (false, e)
    | Ok inst -> (
        match output with
        | Some path ->
            Model.Codec.write_file path inst;
            Printf.printf "wrote %s (%d nodes, %d services)\n" path
              (Model.Instance.n_nodes inst)
              (Model.Instance.n_services inst);
            `Ok ()
        | None ->
            print_string (Model.Codec.to_string inst);
            `Ok ())
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a random problem instance (paper §4).")
    Term.(ret (const run $ gen_opts_term $ output))

(* solve *)

(* [--domains 0] is the documented "read $VMALLOC_DOMAINS" sentinel;
   anything negative is a usage error, reported on one line with nonzero
   exit rather than silently clamped. *)
let check_domains = function
  | 0 -> Ok (Par.Pool.domains_from_env ())
  | d when d > 0 -> Ok d
  | d ->
      Error
        (Printf.sprintf
           "--domains %d: the domain count must be positive (or 0 to read \
            $VMALLOC_DOMAINS)"
           d)

(* Runs [f] on a [domains]-wide pool. The runtime caps the domains a
   process may run (128 on OCaml 5.1); a count past it is a usage error on
   --domains, not a crash. *)
let with_pool ~domains f =
  match Par.Pool.create ~domains with
  | exception Invalid_argument e ->
      `Error (false, Printf.sprintf "--domains %d: %s" domains e)
  | pool ->
      Fun.protect ~finally:(fun () -> Par.Pool.shutdown pool) (fun () -> f pool)

let unknown_algorithm name =
  Printf.sprintf "unknown algorithm %S (valid: %s)" name
    (String.concat ", " Heuristics.Algorithms.valid_names)

let algo_term =
  Arg.(value & opt string "metahvplight"
       & info [ "algo" ] ~docv:"NAME"
           ~doc:"Algorithm: rrnd, rrnz, rrnd-probed, rrnz-probed (rounding \
                 from warm-started yield probes), metagreedy, metavp, \
                 metahvp, metahvplight, or milp (exact, small instances \
                 only).")

(* ---- Observation ----------------------------------------------------- *)

(* Every file-producing option (--trace, --trace-folded, --timeline,
   --timeline-prom, --stats-out) goes through one registry: the path is
   validated writable up front — a typo'd directory is a one-line usage
   error before the run, not a lost trace after it — and the content is
   flushed by an at_exit hook, so even a run that dies mid-way leaves
   whatever was captured on disk. Each file is written exactly once: a
   flush empties the registry, so the hook writes only what the normal
   path did not. *)
let pending : (string * (unit -> string)) list ref = ref []

let flush_files () =
  let files = List.rev !pending in
  pending := [];
  List.iter
    (fun (path, render) ->
      try
        let oc = open_out path in
        output_string oc (render ());
        close_out oc
      with Sys_error _ -> ())
    files

let () = at_exit flush_files

(* Registers [(path, render, _)] files left to right, stopping at the
   first unwritable path. *)
let rec register_files = function
  | [] -> Ok ()
  | (path, render, _) :: rest -> (
      match open_out path with
      | exception Sys_error e -> Error e
      | oc ->
          close_out oc;
          pending := (path, render) :: !pending;
          register_files rest)

(* What a run is asked to observe: the counter snapshot, printed after the
   result (--stats) or written as JSON (--stats-out), and the span trace,
   written as Chrome trace-event JSON (--trace) or collapsed stacks
   (--trace-folded). *)
type observe = {
  stats : bool;
  stats_out : string option;
  trace : string option;
  trace_folded : string option;
}

(* The term of those options; [trace_doc] documents --trace, and without
   it the command offers neither trace option. *)
let observe_term ?trace_doc () =
  let stats =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"Collect the deterministic operation counters (oracle \
                   probes, strategy wins, bins examined, ...) during the \
                   run and print the merged snapshot after the result.")
  in
  let stats_out =
    Arg.(value & opt (some string) None
         & info [ "stats-out" ] ~docv:"FILE"
             ~doc:"Write the merged counter/histogram snapshot as JSON to \
                   $(docv) when the run ends (implies counter collection, \
                   with or without --stats).")
  in
  let make stats stats_out trace trace_folded =
    { stats; stats_out; trace; trace_folded }
  in
  let term = Term.(const make $ stats $ stats_out) in
  match trace_doc with
  | None -> Term.(term $ const None $ const None)
  | Some doc ->
      let trace =
        Arg.(value & opt (some string) None
             & info [ "trace" ] ~docv:"FILE" ~doc)
      in
      let trace_folded =
        Arg.(value & opt (some string) None
             & info [ "trace-folded" ] ~docv:"FILE"
                 ~doc:"Fold the span trace into collapsed stacks — one \
                       $(b,root;child;leaf self-microseconds) line per \
                       distinct stack, the format flamegraph.pl and \
                       speedscope consume — and write them to $(docv).")
      in
      Term.(term $ trace $ trace_folded)

(* [observed o ~files run] runs [run] observed as [o] asks. It registers
   o's files, then [files] — a subcommand's own (path, render, stderr
   note) triples — and turns on the counters and the tracer. After a run
   that returns [`Ok], it prints the snapshot, stops the tracer, writes
   every file and notes each one on stderr. *)
let observed o ?(files = []) run =
  let trace_note path =
    Printf.sprintf "wrote trace %s (%d events)" path (Obs.Trace.event_count ())
  in
  let snapshot_json () =
    Obs.Metrics.Snapshot.to_json (Obs.Metrics.snapshot ())
  in
  let files =
    List.filter_map
      (fun (path, render, note) ->
        Option.map (fun path -> (path, render, note)) path)
      ([
         (o.trace, Obs.Trace.to_json, trace_note);
         ( o.trace_folded,
           (fun () -> Obs.Trace.to_folded ()),
           Printf.sprintf "wrote folded stacks %s" );
         (o.stats_out, snapshot_json, Printf.sprintf "wrote stats %s");
       ]
      @ files)
  in
  match register_files files with
  | Error e -> `Error (false, e)
  | Ok () -> (
      if o.stats || o.stats_out <> None then begin
        Obs.Metrics.reset ();
        Obs.Metrics.set_enabled true
      end;
      let tracing = o.trace <> None || o.trace_folded <> None in
      if tracing then Obs.Trace.start ();
      match run () with
      | `Ok _ as ok ->
          if o.stats then
            print_string
              (Obs.Metrics.Snapshot.render (Obs.Metrics.snapshot ()));
          if tracing then Obs.Trace.stop ();
          flush_files ();
          List.iter (fun (path, _, note) -> prerr_endline (note path)) files;
          ok
      | error -> error)

(* ---- solve --batch --------------------------------------------------- *)

(* One job per non-empty, non-[#] line of the batch file. A line is either
   a bare instance-file path, or whitespace-separated [key=value] pairs
   overriding the command-line generator options — [hosts], [services],
   [cov], [slack], [seed] — plus [algo=NAME] to pick the per-job
   algorithm. Results come back in line order whatever the pool size. *)
let parse_batch_line ~(defaults : gen_opts) ~default_algo lineno line =
  let fail fmt =
    Printf.ksprintf (fun m -> Error (Printf.sprintf "line %d: %s" lineno m))
      fmt
  in
  let tokens =
    String.split_on_char ' ' line
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun s -> s <> "")
  in
  match tokens with
  | [] -> Ok None
  | [ path ] when not (String.contains path '=') -> (
      match Model.Codec.read_file path with
      | Ok inst -> Ok (Some (default_algo, defaults.seed, inst))
      | Error e -> fail "cannot read %s: %s" path e)
  | tokens -> (
      let parse acc tok =
        match acc with
        | Error _ -> acc
        | Ok (opts, algo) -> (
            match String.index_opt tok '=' with
            | None -> fail "bad token %S (expected key=value or a file path)" tok
            | Some i ->
                let key = String.lowercase_ascii (String.sub tok 0 i) in
                let v = String.sub tok (i + 1) (String.length tok - i - 1) in
                let int_v f =
                  match int_of_string_opt v with
                  | Some n -> Ok (f n)
                  | None -> fail "%s=%S: expected an integer" key v
                in
                let float_v f =
                  match float_of_string_opt v with
                  | Some x -> Ok (f x)
                  | None -> fail "%s=%S: expected a number" key v
                in
                let opt r = Result.map (fun o -> (o, algo)) r in
                (match key with
                | "hosts" -> opt (int_v (fun n -> { opts with hosts = n }))
                | "services" ->
                    opt (int_v (fun n -> { opts with services = n }))
                | "seed" -> opt (int_v (fun n -> { opts with seed = n }))
                | "cov" -> opt (float_v (fun x -> { opts with cov = x }))
                | "slack" -> opt (float_v (fun x -> { opts with slack = x }))
                | "algo" -> Ok (opts, v)
                | k ->
                    fail "unknown key %S (expected hosts, services, cov, \
                          slack, seed, or algo)" k))
      in
      match List.fold_left parse (Ok (defaults, default_algo)) tokens with
      | Error _ as e -> e
      | Ok (opts, algo) -> (
          match generate_instance opts with
          | inst -> Ok (Some (algo, opts.seed, inst))
          | exception Invalid_argument e -> fail "%s" e))

let load_batch_jobs ~defaults ~default_algo path =
  let cannot_read e = Error (Printf.sprintf "cannot read %s: %s" path e) in
  match open_in path with
  | exception Sys_error e -> cannot_read e
  | ic ->
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let rec go lineno acc =
    match input_line ic with
    | exception End_of_file -> Ok (List.rev acc)
    | exception Sys_error e -> cannot_read e
    | line ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go (lineno + 1) acc
        else
          match parse_batch_line ~defaults ~default_algo lineno line with
          | Error _ as e -> e
          | Ok None -> go (lineno + 1) acc
          | Ok (Some (algo_name, seed, inst)) -> (
              match Heuristics.Algorithms.by_name ~seed algo_name with
              | None ->
                  Error
                    (Printf.sprintf "line %d: %s" lineno
                       (unknown_algorithm algo_name))
              | Some algo ->
                  go (lineno + 1)
                    ({ Heuristics.Batch.algo; instance = inst } :: acc))
  in
  go 1 []

let run_batch ~pool jobs =
  let jobs = Array.of_list jobs in
  let t0 = Unix.gettimeofday () in
  let results =
    Heuristics.Batch.solve_batch ~sched:pool jobs
  in
  let dt = Unix.gettimeofday () -. t0 in
  Array.iteri
    (fun i result ->
      match result with
      | Some (sol : Heuristics.Vp_solver.solution) ->
          Printf.printf "[%d] %s: minimum yield %.4f\n" i
            jobs.(i).Heuristics.Batch.algo.name sol.min_yield
      | None ->
          Printf.printf "[%d] %s: no feasible placement\n" i
            jobs.(i).Heuristics.Batch.algo.name)
    results;
  Printf.printf "%d jobs on %d domain(s): %.3fs total, %.3fs/job\n"
    (Array.length jobs) (Par.Pool.size pool) dt
    (dt /. float_of_int (max 1 (Array.length jobs)))

let solve_cmd =
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ]
           ~doc:"Print per-service yields and the placement.")
  in
  let batch =
    Arg.(value & opt (some file) None
         & info [ "batch" ] ~docv:"FILE"
             ~doc:"Solve a multi-tenant batch over one shared domain pool: \
                   one job per non-empty, non-# line of $(docv) — either a \
                   bare instance-file path or key=value overrides (hosts, \
                   services, cov, slack, seed, algo) of this command's \
                   options. Each job runs as one task on the pool; \
                   results print in line order and are bit-identical to \
                   solving each line separately.")
  in
  let domains =
    Arg.(value & opt int 1
         & info [ "domains" ] ~docv:"N"
             ~doc:"Worker domains of the $(b,--batch) pool (0 = read \
                   \\$VMALLOC_DOMAINS, defaulting to the recommended \
                   domain count; 1 = sequential). Results are \
                   bit-identical at any value. A single solve runs \
                   sequentially, so without $(b,--batch) any value other \
                   than 1 is a usage error.")
  in
  let obs =
    observe_term
      ~trace_doc:"Record a span trace of the solve and write it to $(docv) \
                  in Chrome trace-event JSON (open in chrome://tracing or \
                  Perfetto)."
      ()
  in
  let run file opts algo_name verbose domains obs batch =
    match
      if batch = None && domains <> 1 then
        Error
          (Printf.sprintf
             "--domains %d: only a --batch solve uses a pool; a single \
              solve runs sequentially (drop --domains or pass --batch)"
             domains)
      else check_domains domains
    with
    | Error e -> `Error (false, e)
    | Ok domains -> (
        observed obs @@ fun () ->
        match batch with
        | Some batch_file -> (
            if file <> None then
              `Error
                ( false,
                  "--batch and a positional INSTANCE are mutually exclusive \
                   (reference instance files from the batch lines instead)" )
            else
              match
                load_batch_jobs ~defaults:opts ~default_algo:algo_name
                  batch_file
              with
              | Error e -> `Error (false, e)
              | Ok [] -> `Error (false, Printf.sprintf "%s: no jobs" batch_file)
              | Ok jobs ->
                  with_pool ~domains (fun pool ->
                      run_batch ~pool jobs;
                      `Ok ()))
        | None -> (
            match load_or_generate file opts with
            | Error e -> `Error (false, e)
            | Ok inst -> (
                match
                  Heuristics.Algorithms.by_name ~seed:opts.seed algo_name
                with
                | None -> `Error (false, unknown_algorithm algo_name)
                | Some algo ->
                    let t0 = Sys.time () in
                    let result = algo.solve inst in
                    let dt = Sys.time () -. t0 in
                    (match result with
                    | None ->
                        Printf.printf "%s: no feasible placement (%.3fs)\n"
                          algo.name dt
                    | Some sol ->
                        Printf.printf "%s: minimum yield %.4f (%.3fs)\n"
                          algo.name sol.min_yield dt;
                        if verbose then begin
                          match
                            Model.Placement.water_fill inst sol.placement
                          with
                          | None -> ()
                          | Some alloc ->
                              print_string (Model.Report.render inst alloc)
                        end);
                    `Ok ())))
  in
  Cmd.v
    (Cmd.info "solve"
       ~doc:"Place services with one algorithm (--batch fans many jobs \
             out over one pool of --domains worker domains; --stats / \
             --stats-out / --trace / --trace-folded observe the run).")
    Term.(ret (const run $ instance_file_term $ gen_opts_term $ algo_term
               $ verbose $ domains $ obs $ batch))

(* compare *)

let domains_term =
  Arg.(value & opt int 0
       & info [ "domains" ] ~docv:"N"
           ~doc:"Worker domains for running the algorithms in parallel \
                 (0 = read \\$VMALLOC_DOMAINS, defaulting to the \
                 recommended domain count; 1 = sequential).")

let compare_cmd =
  let run file opts domains obs =
    match load_or_generate file opts with
    | Error e -> `Error (false, e)
    | Ok inst -> (
        match check_domains domains with
        | Error e -> `Error (false, e)
        | Ok domains ->
            observed obs @@ fun () ->
            let table =
              Stats.Table.create
                ~headers:[ "algorithm"; "min yield"; "time (s)" ]
            in
            let all =
              Array.of_list
                (Heuristics.Algorithms.majors ~seed:opts.seed
                @ [ Heuristics.Algorithms.metahvplight ])
            in
            (* One task per algorithm; rows land in registry order either
               way. *)
            with_pool ~domains @@ fun pool ->
            let rows =
              Par.Pool.map pool all (fun (algo : Heuristics.Algorithms.t) ->
                  let t0 = Unix.gettimeofday () in
                  let cell =
                    match algo.solve inst with
                    | Some sol -> Printf.sprintf "%.4f" sol.min_yield
                    | None -> "fail"
                  in
                  [ algo.name; cell;
                    Printf.sprintf "%.3f" (Unix.gettimeofday () -. t0) ])
            in
            Array.iter (Stats.Table.add_row table) rows;
            Stats.Table.print table;
            `Ok ())
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Run the paper's major algorithms on one instance (in parallel \
             with --domains > 1; --stats prints the merged operation \
             counters, --stats-out writes them as JSON).")
    Term.(ret (const run $ instance_file_term $ gen_opts_term $ domains_term
               $ observe_term ()))

(* inspect *)

let inspect_cmd =
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"INSTANCE" ~doc:"Instance file.")
  in
  let run file =
    match Model.Codec.read_file file with
    | Error e -> `Error (false, e)
    | Ok inst ->
        let open Vec in
        let total = Model.Instance.total_capacity inst in
        let reqs = Model.Instance.total_requirement inst in
        let needs = Model.Instance.total_need inst in
        Format.printf "%a@." Model.Analysis.pp (Model.Analysis.analyze inst);
        Printf.printf "total capacity:    %s\n" (Vector.to_string total);
        Printf.printf "total requirement: %s\n" (Vector.to_string reqs);
        Printf.printf "total need:        %s\n" (Vector.to_string needs);
        (match Heuristics.Milp.relaxed_bound inst with
        | Some b -> Printf.printf "LP yield bound:    %.4f\n" b
        | None -> print_endline "LP yield bound:    infeasible");
        `Ok ()
  in
  Cmd.v
    (Cmd.info "inspect" ~doc:"Summarize an instance file.")
    Term.(ret (const run $ file))

(* simulate *)

let simulate_cmd =
  let horizon =
    Arg.(value & opt float 150. & info [ "horizon" ] ~docv:"T"
           ~doc:"Simulated time units.")
  in
  let arrival_rate =
    Arg.(value & opt float 0.8 & info [ "arrival-rate" ] ~docv:"R"
           ~doc:"Poisson arrival intensity.")
  in
  let mean_lifetime =
    Arg.(value & opt float 30. & info [ "lifetime" ] ~docv:"L"
           ~doc:"Mean (exponential) service lifetime.")
  in
  let period =
    Arg.(value & opt float 10. & info [ "period" ] ~docv:"P"
           ~doc:"Reallocation period.")
  in
  let max_error =
    Arg.(value & opt float 0.0 & info [ "error" ] ~docv:"E"
           ~doc:"Max CPU-need estimation error.")
  in
  let threshold =
    Arg.(value & opt string "0" & info [ "threshold" ] ~docv:"T"
           ~doc:"Mitigation threshold: a number, or 'adaptive'.")
  in
  let hosts =
    Arg.(value & opt int 10 & info [ "hosts" ] ~docv:"H"
           ~doc:"Number of nodes (two generations).")
  in
  let seed =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")
  in
  let shards =
    Arg.(value & opt int 1
         & info [ "shards" ] ~docv:"K"
             ~doc:"Partition the platform into $(docv) disjoint node shards \
                   simulated independently; stats and event logs are merged \
                   deterministically by (time, shard). 1 = the plain \
                   single-engine run.")
  in
  let domains =
    Arg.(value & opt int 1
         & info [ "domains" ] ~docv:"N"
             ~doc:"Worker domains for running the shards in parallel (0 = \
                   read \\$VMALLOC_DOMAINS, defaulting to the recommended \
                   domain count; 1 = sequential). The merged output is \
                   byte-identical at any value.")
  in
  let obs =
    observe_term
      ~trace_doc:"Record shard/reallocation spans and write them to $(docv) \
                  in Chrome trace-event JSON."
      ()
  in
  let policy =
    Arg.(value & opt string "resolve"
         & info [ "policy" ] ~docv:"POLICY"
             ~doc:"Placement policy: 'resolve' re-solves each shard every \
                   reallocation epoch; 'greedy-random' and 'best-fit' place \
                   arrivals by probing candidate bins and repair locally on \
                   departures, falling back to a full re-solve only on \
                   drift.")
  in
  let repair_budget =
    Arg.(value & opt int 8
         & info [ "repair-budget" ] ~docv:"N"
             ~doc:"Max services re-packed per departure-triggered repair \
                   pass (probe policies only).")
  in
  let algo =
    Arg.(value & opt string "metahvplight"
         & info [ "algo" ] ~docv:"NAME"
             ~doc:"Placement algorithm for epoch/fallback re-solves \
                   ('greedy' is the cheap single-pass choice for large \
                   runs).")
  in
  let partition =
    Arg.(value & opt string "contiguous"
         & info [ "partition" ] ~docv:"P"
             ~doc:"Node partition across shards: 'contiguous' index \
                   ranges, or 'capacity' for the LPT capacity-balanced \
                   assignment.")
  in
  let timeline =
    Arg.(value & opt (some string) None
         & info [ "timeline" ] ~docv:"FILE"
             ~doc:"Sample sim-clock gauges (global yield, active services, \
                   shard imbalance, repair/bins/pivot rates) on a fixed \
                   virtual-time grid and write them to $(docv) as JSONL. \
                   Byte-identical at any --domains value.")
  in
  let timeline_prom =
    Arg.(value & opt (some string) None
         & info [ "timeline-prom" ] ~docv:"FILE"
             ~doc:"Like --timeline, in the Prometheus text exposition \
                   format (sim time as the sample timestamp).")
  in
  let timeline_interval =
    Arg.(value & opt float 5.
         & info [ "timeline-interval" ] ~docv:"DT"
             ~doc:"Virtual-time sampling interval for --timeline / \
                   --timeline-prom.")
  in
  let run horizon arrival_rate mean_lifetime period max_error threshold hosts
      seed shards domains obs policy repair_budget algo partition timeline
      timeline_prom timeline_interval =
    let threshold_mode =
      if String.lowercase_ascii threshold = "adaptive" then
        Ok (Simulator.Engine.Adaptive
              (Sharing.Adaptive_threshold.create ~quantile:90. ()))
      else
        match float_of_string_opt threshold with
        | Some t when Float.is_finite t && t >= 0. ->
            Ok (Simulator.Engine.Fixed t)
        | _ ->
            Error
              (Printf.sprintf
                 "bad threshold: %s (expected a finite number >= 0 or \
                  'adaptive')"
                 threshold)
    in
    let placement_mode =
      match Simulator.Policy.of_string policy with
      | Some p -> Ok p
      | None ->
          Error
            (Printf.sprintf "bad policy: %s (expected %s)" policy
               (String.concat " | " Simulator.Policy.valid_names))
    in
    let algorithm_mode =
      match Heuristics.Algorithms.by_name ~seed algo with
      | Some a -> Ok a
      | None ->
          Error
            (Printf.sprintf "bad algorithm: %s (expected %s)" algo
               (String.concat " | " Heuristics.Algorithms.valid_names))
    in
    let partition_mode =
      match String.lowercase_ascii partition with
      | "contiguous" -> Ok Simulator.Sharded.Contiguous
      | "capacity" | "capacity-balanced" ->
          Ok Simulator.Sharded.Capacity_balanced
      | _ ->
          Error
            (Printf.sprintf
               "bad partition: %s (expected contiguous | capacity)" partition)
    in
    match
      ( threshold_mode,
        check_domains domains,
        placement_mode,
        algorithm_mode,
        partition_mode )
    with
    | Error e, _, _, _, _
    | _, Error e, _, _, _
    | _, _, Error e, _, _
    | _, _, _, Error e, _
    | _, _, _, _, Error e ->
        `Error (false, e)
    | Ok threshold, Ok domains, Ok placement, Ok algorithm, Ok partition -> (
        let want_timeline = timeline <> None || timeline_prom <> None in
        if
          want_timeline
          && not (Float.is_finite timeline_interval && timeline_interval > 0.)
        then
          `Error
            ( false,
              Printf.sprintf
                "--timeline-interval %g: must be positive and finite"
                timeline_interval )
        else
        let tl = ref None in
        let timeline_file path render =
          ( path,
            (fun () -> Option.fold ~none:"" ~some:render !tl),
            fun path ->
              Printf.sprintf "wrote timeline %s (%d samples)" path
                (Option.fold ~none:0 ~some:Obs.Timeline.length !tl) )
        in
        observed obs
          ~files:
            [
              timeline_file timeline Obs.Timeline.to_jsonl;
              timeline_file timeline_prom Obs.Timeline.to_prom;
            ]
        @@ fun () ->
        let platform =
          Array.init hosts (fun id ->
              if id < hosts / 2 then
                Model.Node.make_cores ~id ~cores:4 ~cpu:0.4 ~mem:0.4
              else Model.Node.make_cores ~id ~cores:4 ~cpu:0.8 ~mem:0.8)
        in
        let config =
          {
            Simulator.Engine.default_config with
            horizon;
            arrival_rate;
            mean_lifetime;
            reallocation_period = period;
            max_error;
            threshold;
            memory_scale = 0.5;
            placement;
            repair_budget;
            algorithm;
          }
        in
        let timeline_interval =
          if want_timeline then Some timeline_interval else None
        in
        let simulate pool =
          match
            Simulator.Sharded.run ?pool ~seed ~shards ~partition
              ?timeline_interval config ~platform
          with
          | { merged; _ } as result ->
              if shards > 1 then Printf.printf "shards: %d\n" shards;
              if placement <> Simulator.Policy.Resolve then
                Printf.printf "policy: %s (repair budget %d)\n"
                  (Simulator.Policy.to_string placement)
                  repair_budget;
              Printf.printf
                "horizon %.0f: %d arrivals (%d rejected), %d departures\n\
                 %d reallocations (%d failed), %d migrations\n\
                 time-averaged minimum yield: %.4f\n\
                 final threshold: %.3f\n"
                horizon merged.arrivals merged.rejected merged.departures
                merged.reallocations merged.failed_reallocations
                merged.migrations merged.mean_min_yield merged.final_threshold;
              tl := result.Simulator.Sharded.timeline;
              `Ok ()
          | exception Invalid_argument e -> `Error (false, e)
        in
        if domains > 1 && shards > 1 then
          with_pool ~domains (fun pool -> simulate (Some pool))
        else simulate None)
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Run the online-hosting simulation (arrivals/departures with \
             periodic reallocation; --shards partitions the platform into \
             independent shards, --domains runs them in parallel, --stats / \
             --stats-out / --trace / --trace-folded / --timeline observe \
             the run).")
    Term.(ret (const run $ horizon $ arrival_rate $ mean_lifetime $ period
               $ max_error $ threshold $ hosts $ seed $ shards $ domains
               $ obs $ policy $ repair_budget $ algo $ partition $ timeline
               $ timeline_prom $ timeline_interval))

(* theorem *)

let theorem_cmd =
  let run () =
    print_string
      (Experiments.Theorem_check.report (Experiments.Theorem_check.run ()));
    `Ok ()
  in
  Cmd.v
    (Cmd.info "theorem"
       ~doc:"Check the EQUALWEIGHTS competitive-ratio theorem empirically.")
    Term.(ret (const run $ const ()))

let () =
  let doc =
    "virtual machine resource allocation on heterogeneous platforms \
     (Casanova, Stillwell, Vivien; IPDPS 2012)"
  in
  let info = Cmd.info "vmalloc" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ generate_cmd; solve_cmd; compare_cmd; inspect_cmd; simulate_cmd;
            theorem_cmd ]))
