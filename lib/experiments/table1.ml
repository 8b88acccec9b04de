type scenario = {
  services : int;
  hosts : int;
  n_instances : int;
  names : string array;
  yields : float option array array;
  mean_runtime : float array;
}

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* One trial = one (instance, algorithm) solve. The counter totals are
   domain-count-invariant (trials do identical work wherever they run);
   the trace spans carry the per-trial record — algorithm, scenario size,
   outcome — stamped with the executing domain. *)
let c_trials = Obs.Metrics.counter "experiments.table1.trials"

let run ?(progress = fun _ -> ()) ?pool (scale : Scale.t) =
  let algorithms = Array.of_list (Heuristics.Algorithms.majors ~seed:1) in
  List.map
    (fun services ->
      (* The corpus (and with it every per-spec RNG stream) is derived
         sequentially, before any dispatch; each trial below is then a pure
         function of its instance, so the parallel fan-out returns
         bit-for-bit the sequential results. *)
      let instances =
        Array.of_list
          (Corpus.sweep ~hosts:scale.table1_hosts ~services
             ~covs:scale.table1_covs ~slacks:scale.table1_slacks
             ~reps:scale.table1_reps ())
      in
      let n = Array.length instances in
      progress
        (Printf.sprintf "table1: %d services, %d instances%s" services n
           (match pool with
           | Some p when Par.Pool.size p > 1 ->
               Printf.sprintf " on %d domains" (Par.Pool.size p)
           | _ -> ""));
      let per_instance =
        Run.map ?pool instances (fun (_, inst) ->
            Array.map
              (fun (algo : Heuristics.Algorithms.t) ->
                Obs.Metrics.incr c_trials;
                Obs.Trace.span "trial"
                  ~args:
                    [ ("algorithm", algo.name);
                      ("services", string_of_int services) ]
                  (fun () -> timed (fun () -> algo.solve inst)))
              algorithms)
      in
      let yields = Array.map (fun _ -> Array.make n None) algorithms in
      let time_sum = Array.make (Array.length algorithms) 0. in
      Array.iteri
        (fun i row ->
          Array.iteri
            (fun a (result, dt) ->
              time_sum.(a) <- time_sum.(a) +. dt;
              yields.(a).(i) <-
                Option.map
                  (fun (s : Heuristics.Vp_solver.solution) -> s.min_yield)
                  result)
            row)
        per_instance;
      progress (Printf.sprintf "table1: %d services done" services);
      {
        services;
        hosts = scale.table1_hosts;
        n_instances = n;
        names = Array.map (fun (a : Heuristics.Algorithms.t) -> a.name)
            algorithms;
        yields;
        mean_runtime =
          Array.map (fun t -> t /. float_of_int (max 1 n)) time_sum;
      })
    scale.table1_services

let cell (c : Stats.Pairwise.comparison) =
  let y =
    match c.yield_diff_pct with
    | None -> "n/a"
    | Some v -> Printf.sprintf "%+.1f%%" v
  in
  Printf.sprintf "(%s, %+.1f%%)" y c.success_diff_pct

let report_table1 scenarios =
  let buf = Buffer.create 4096 in
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf
           "== Table 1: %d services on %d hosts (%d instances) ==\n\
            cell A/B = (Y_A,B: avg %% min-yield difference of A relative \
            to B where both succeed,\n\
           \            S_A,B: %% instances only A solves minus %% only B \
            solves)\n"
           s.services s.hosts s.n_instances);
      let table =
        Stats.Table.create
          ~headers:("A/B" :: Array.to_list s.names)
      in
      Array.iteri
        (fun i name_a ->
          let row =
            Array.to_list
              (Array.mapi
                 (fun j _ ->
                   if i = j then "-"
                   else
                     cell
                       (Stats.Pairwise.compare ~a:s.yields.(i)
                          ~b:s.yields.(j)))
                 s.names)
          in
          Stats.Table.add_row table (name_a :: row))
        s.names;
      Buffer.add_string buf (Stats.Table.render table);
      Buffer.add_string buf "\n\n")
    scenarios;
  Buffer.contents buf

let report_table2 scenarios =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "== Table 2: mean run times (seconds) ==\n";
  match scenarios with
  | [] -> Buffer.contents buf
  | first :: _ ->
      let headers =
        "Algorithm"
        :: List.map
             (fun (s : scenario) -> Printf.sprintf "%d tasks" s.services)
             scenarios
      in
      let table = Stats.Table.create ~headers in
      Array.iteri
        (fun a name ->
          let row =
            List.map
              (fun (s : scenario) ->
                Printf.sprintf "%.3f" s.mean_runtime.(a))
              scenarios
          in
          Stats.Table.add_row table (name :: row))
        first.names;
      Buffer.add_string buf (Stats.Table.render table);
      Buffer.add_string buf "\n";
      Buffer.contents buf
