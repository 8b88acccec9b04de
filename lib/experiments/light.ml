type result = {
  hosts : int;
  services : int;
  n_instances : int;
  both_solved : int;
  only_hvp : int;
  only_light : int;
  mean_yield_hvp : float;
  mean_yield_light : float;
  mean_time_hvp : float;
  mean_time_light : float;
}

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* One trial = one instance solved by both algorithms; the spans record
   the per-algorithm half so the METAHVP-vs-LIGHT cost gap shows up in a
   trace viewer, not just in the mean wall times. *)
let c_trials = Obs.Metrics.counter "experiments.light.trials"

let solve_traced name (algo : Heuristics.Algorithms.t) inst =
  Obs.Trace.span "trial" ~args:[ ("algorithm", name) ] @@ fun () ->
  timed (fun () -> algo.solve inst)

let run ?(progress = fun _ -> ()) ?pool (scale : Scale.t) =
  let instances =
    Array.of_list
      (Corpus.sweep ~hosts:scale.light_hosts ~services:scale.light_services
         ~covs:[ 0.25; 0.5; 1.0 ] ~slacks:[ 0.3; 0.5 ]
         ~reps:scale.light_reps ())
  in
  let n = Array.length instances in
  progress
    (Printf.sprintf "light: %d hosts, %d services, %d instances"
       scale.light_hosts scale.light_services n);
  let trials =
    Run.map ?pool instances (fun (_, inst) ->
        Obs.Metrics.incr c_trials;
        let hvp = solve_traced "METAHVP" Heuristics.Algorithms.metahvp inst in
        let light =
          solve_traced "METAHVPLIGHT" Heuristics.Algorithms.metahvplight inst
        in
        (hvp, light))
  in
  (* Folded in instance order, so the float sums are the sequential
     ones at any pool size. *)
  let both = ref 0 and only_hvp = ref 0 and only_light = ref 0 in
  let yield_hvp = ref 0. and yield_light = ref 0. in
  let time_hvp = ref 0. and time_light = ref 0. in
  Array.iter
    (fun ((hvp, t_hvp), (light, t_light)) ->
      time_hvp := !time_hvp +. t_hvp;
      time_light := !time_light +. t_light;
      match (hvp, light) with
      | ( Some (a : Heuristics.Vp_solver.solution),
          Some (b : Heuristics.Vp_solver.solution) ) ->
          incr both;
          yield_hvp := !yield_hvp +. a.min_yield;
          yield_light := !yield_light +. b.min_yield
      | Some _, None -> incr only_hvp
      | None, Some _ -> incr only_light
      | None, None -> ())
    trials;
  progress (Printf.sprintf "light: %d instances done" n);
  let fdiv a b = if b = 0 then 0. else a /. float_of_int b in
  {
    hosts = scale.light_hosts;
    services = scale.light_services;
    n_instances = n;
    both_solved = !both;
    only_hvp = !only_hvp;
    only_light = !only_light;
    mean_yield_hvp = fdiv !yield_hvp !both;
    mean_yield_light = fdiv !yield_light !both;
    mean_time_hvp = fdiv !time_hvp n;
    mean_time_light = fdiv !time_light n;
  }

let report r =
  Printf.sprintf
    "== §5.1: METAHVPLIGHT vs METAHVP (%d hosts, %d services, %d instances) \
     ==\n\
     solved by both: %d   only METAHVP: %d   only METAHVPLIGHT: %d\n\
     mean min-yield where both solve: METAHVP %.4f   METAHVPLIGHT %.4f\n\
     paper's shape: identical-to-near-identical quality, ~10x faster.\n"
    r.hosts r.services r.n_instances r.both_solved r.only_hvp r.only_light
    r.mean_yield_hvp r.mean_yield_light
