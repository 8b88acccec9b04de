type counts = { probes : int Atomic.t; attempts : int Atomic.t }

let counts () = { probes = Atomic.make 0; attempts = Atomic.make 0 }

let probe ?counts strategies instance y =
  Option.iter (fun c -> Atomic.incr c.probes) counts;
  List.find_map
    (fun strategy ->
      Option.iter (fun c -> Atomic.incr c.attempts) counts;
      Heuristics.Vp_solver.pack_at_yield strategy instance y)
    strategies

let solve_multi ?tolerance ?pool ?counts strategies instance =
  let oracle = probe ?counts strategies instance in
  let found =
    match pool with
    | Some pool when Par.Pool.size pool > 1 ->
        Heuristics.Binary_search.maximize_par ?tolerance ~pool oracle
    | Some _ | None -> Heuristics.Binary_search.maximize ?tolerance oracle
  in
  Option.bind found (fun (placement, _probed_yield) ->
      Heuristics.Vp_solver.evaluate instance placement)

let solve ?tolerance ?pool ?counts strategy instance =
  solve_multi ?tolerance ?pool ?counts [ strategy ] instance
