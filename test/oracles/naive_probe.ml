open Packing

let items_at_yield instance y =
  Array.init (Model.Instance.n_services instance) (fun j ->
      let s = Model.Instance.service instance j in
      Item.v ~id:j ~demand:(Model.Service.demand_at_yield s y))

let fresh_bins instance =
  Array.init (Model.Instance.n_nodes instance) (fun h ->
      let node = Model.Instance.node instance h in
      Bin.v ~id:h ~capacity:node.Model.Node.capacity)

let run (t : Strategy.t) ~bins ~items =
  let items = Vec.Metric.sort t.item_order Item.size items in
  let bins =
    match (t.variant, t.algo) with
    | Strategy.Vp, _ | _, Strategy.Best_fit -> bins
    | Strategy.Hvp, (Strategy.First_fit | Strategy.Permutation_pack _) ->
        Vec.Metric.sort t.bin_order Bin.size bins
  in
  let ok =
    match t.algo with
    | Strategy.First_fit -> Record_fit.first_fit ~bins ~items
    | Strategy.Best_fit ->
        let rank =
          match t.variant with
          | Strategy.Vp -> Fit.By_load
          | Strategy.Hvp -> Fit.By_remaining
        in
        Record_fit.best_fit ~rank ~bins ~items
    | Strategy.Permutation_pack { flavour; window } ->
        let ranking =
          match t.variant with
          | Strategy.Vp -> Permutation_pack.By_load
          | Strategy.Hvp -> Permutation_pack.By_remaining_capacity
        in
        Pp_scan.pack ~flavour ?window ~ranking ~bins ~items ()
  in
  if ok then Some (Record_fit.assignment ~bins ~n_items:(Array.length items))
  else None

let pack_at_yield strategy instance y =
  run strategy ~bins:(fresh_bins instance) ~items:(items_at_yield instance y)

type counts = { probes : int Atomic.t; attempts : int Atomic.t }

let counts () = { probes = Atomic.make 0; attempts = Atomic.make 0 }

let probe ?counts strategies instance y =
  Option.iter (fun c -> Atomic.incr c.probes) counts;
  List.find_map
    (fun strategy ->
      Option.iter (fun c -> Atomic.incr c.attempts) counts;
      pack_at_yield strategy instance y)
    strategies

let solve_multi ?tolerance ?counts strategies instance =
  let oracle = probe ?counts strategies instance in
  Option.bind (Heuristics.Binary_search.maximize ?tolerance oracle)
    (fun (placement, _probed_yield) ->
      Heuristics.Vp_solver.evaluate instance placement)

let solve ?tolerance ?counts strategy instance =
  solve_multi ?tolerance ?counts [ strategy ] instance
