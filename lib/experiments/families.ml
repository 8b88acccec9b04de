type cov_family_cell = {
  slack : float;
  cov : float;
  algorithm : string;
  mean_diff : float;
  solved : int;
}

let cov_family ?(progress = fun _ -> ()) ?pool
    ?(slacks = [ 0.1; 0.3; 0.5; 0.7; 0.9 ]) ?(covs = [ 0.; 0.5; 1. ])
    ?(reps = 2) (scale : Scale.t) =
  (* One independent task per (slack, cov) grid cell; the task order (and
     with it the returned cell order) matches the sequential nesting. *)
  let grid =
    List.concat_map (fun slack -> List.map (fun cov -> (slack, cov)) covs)
      slacks
  in
  Run.concat_map_list ?pool grid (fun (slack, cov) ->
      progress (Printf.sprintf "cov-family: slack %.1f cov %.1f" slack cov);
      (* Fig. 2 at this cell, METAGREEDY and METAVP against METAHVP. The
         cell is already a pool task, so its run takes no pool. *)
      let result =
        Fig_cov.run ~slack
          {
            scale with
            fig_cov_covs = [ cov ];
            fig_cov_reps = reps;
            fig_cov_include_rrnz = false;
          }
          Fig_cov.Fully_heterogeneous
      in
      List.map
        (fun (series : Fig_cov.series) ->
          let solved = List.length series.samples in
          {
            slack;
            cov;
            algorithm = series.algorithm;
            mean_diff =
              (if solved = 0 then 0.
               else
                 List.fold_left (fun sum (_, d) -> sum +. d) 0. series.samples
                 /. float_of_int solved);
            solved;
          })
        result.series)

let report_cov_family cells =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    "== Fig. 8-34 family: mean yield difference vs METAHVP across the \
     slack x cov grid ==\n";
  let algorithms =
    List.sort_uniq compare (List.map (fun c -> c.algorithm) cells)
  in
  let covs = List.sort_uniq compare (List.map (fun c -> c.cov) cells) in
  let slacks = List.sort_uniq compare (List.map (fun c -> c.slack) cells) in
  List.iter
    (fun algorithm ->
      Buffer.add_string buf (Printf.sprintf "\n%s - METAHVP:\n" algorithm);
      let table =
        Stats.Table.create
          ~headers:
            ("slack \\ cov"
            :: List.map (fun c -> Printf.sprintf "%.1f" c) covs)
      in
      List.iter
        (fun slack ->
          let row =
            List.map
              (fun cov ->
                match
                  List.find_opt
                    (fun c ->
                      c.algorithm = algorithm && c.slack = slack
                      && c.cov = cov)
                    cells
                with
                | Some c when c.solved > 0 ->
                    Printf.sprintf "%+.4f" c.mean_diff
                | _ -> "n/a")
              covs
          in
          Stats.Table.add_row table (Printf.sprintf "%.1f" slack :: row))
        slacks;
      Buffer.add_string buf (Stats.Table.render table);
      Buffer.add_char buf '\n')
    algorithms;
  Buffer.add_string buf
    "\nPaper's shape: every cell <= 0, magnitudes growing with cov and \
     shrinking with slack.\n";
  Buffer.contents buf

type error_family_cell = {
  slack : float;
  cov : float;
  max_error : float;
  ideal : float option;
  weight_t0 : float option;
  weight_t1 : float option;
  zero_knowledge : float option;
}

let error_family ?(progress = fun _ -> ()) ?pool
    ?(slacks = [ 0.2; 0.6; 0.8 ]) ?(covs = [ 0.; 0.5; 1. ])
    ?(max_errors = [ 0.; 0.2; 0.4 ]) ?(reps = 2) (scale : Scale.t) =
  let services = List.nth scale.error_services 1 in
  let metahvp = Heuristics.Algorithms.metahvp in
  (* One independent task per (slack, cov) grid cell, ordered as the
     sequential nesting; every RNG inside is derived from the spec hash. *)
  let grid =
    List.concat_map (fun slack -> List.map (fun cov -> (slack, cov)) covs)
      slacks
  in
  Run.concat_map_list ?pool grid (fun (slack, cov) ->
      progress (Printf.sprintf "error-family: slack %.1f cov %.1f" slack cov);
      let instances =
        Corpus.sweep ~hosts:scale.error_hosts ~services ~covs:[ cov ]
          ~slacks:[ slack ] ~reps ()
      in
      List.map
        (fun max_error ->
          let sums = Array.make 4 0. and counts = Array.make 4 0 in
          let push i = function
            | Some y ->
                sums.(i) <- sums.(i) +. y;
                counts.(i) <- counts.(i) + 1
            | None -> ()
          in
          List.iter
            (fun ((spec : Corpus.spec), true_instance) ->
              push 0
                (Option.map
                   (fun (s : Heuristics.Vp_solver.solution) -> s.min_yield)
                   (metahvp.solve true_instance));
              push 3
                (match Sharing.Zero_knowledge.place true_instance with
                | None -> None
                | Some placement ->
                    Sharing.Runtime_eval.actual_min_yield
                      Sharing.Policy.Equal_weights ~true_instance
                      ~estimated:true_instance placement);
              let rng =
                Corpus.rng_of_spec { spec with rep = spec.rep + 2000 }
              in
              let estimated_base =
                Workload.Errors.perturb ~rng ~max_error true_instance
              in
              List.iteri
                (fun i threshold ->
                  let estimated =
                    Workload.Errors.apply_threshold ~threshold estimated_base
                  in
                  match metahvp.solve estimated with
                  | None -> ()
                  | Some sol ->
                      push (1 + i)
                        (Sharing.Runtime_eval.actual_min_yield
                           Sharing.Policy.Alloc_weights ~true_instance
                           ~estimated sol.placement))
                [ 0.; 0.1 ])
            instances;
          let cell i =
            if counts.(i) = 0 then None
            else Some (sums.(i) /. float_of_int counts.(i))
          in
          {
            slack;
            cov;
            max_error;
            ideal = cell 0;
            weight_t0 = cell 1;
            weight_t1 = cell 2;
            zero_knowledge = cell 3;
          })
        max_errors)

let report_error_family cells =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    "== Fig. 35-66 family: achieved min yield across slack x cov x error \
     (ALLOCWEIGHTS) ==\n";
  let table =
    Stats.Table.create
      ~headers:
        [ "slack"; "cov"; "max err"; "ideal"; "weight t=0"; "weight t=0.1";
          "zero-knowledge" ]
  in
  let fmt = function
    | Some y -> Printf.sprintf "%.4f" y
    | None -> "n/a"
  in
  List.iter
    (fun c ->
      Stats.Table.add_row table
        [
          Printf.sprintf "%.1f" c.slack;
          Printf.sprintf "%.1f" c.cov;
          Printf.sprintf "%.1f" c.max_error;
          fmt c.ideal;
          fmt c.weight_t0;
          fmt c.weight_t1;
          fmt c.zero_knowledge;
        ])
    cells;
  Buffer.add_string buf (Stats.Table.render table);
  Buffer.add_string buf
    "\nPaper's shape: weight t=0 tracks ideal at error 0 and collapses as \
     error grows; t=0.1 flattens the decay; zero-knowledge is \
     error-independent.\n";
  Buffer.contents buf
