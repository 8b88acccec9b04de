type counts = { probes : int Atomic.t; attempts : int Atomic.t }

let counts () = { probes = Atomic.make 0; attempts = Atomic.make 0 }

let probe ?counts strategies instance y =
  Option.iter (fun c -> Atomic.incr c.probes) counts;
  List.find_map
    (fun strategy ->
      Option.iter (fun c -> Atomic.incr c.attempts) counts;
      Heuristics.Vp_solver.pack_at_yield strategy instance y)
    strategies

let solve_multi ?tolerance ?counts strategies instance =
  let oracle = probe ?counts strategies instance in
  Option.bind (Heuristics.Binary_search.maximize ?tolerance oracle)
    (fun (placement, _probed_yield) ->
      Heuristics.Vp_solver.evaluate instance placement)

let solve ?tolerance ?counts strategy instance =
  solve_multi ?tolerance ?counts [ strategy ] instance
