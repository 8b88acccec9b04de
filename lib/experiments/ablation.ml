type window_row = {
  window : int;
  successes : int;
  mean_yield : float;
}

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let pp_strategy ~window =
  {
    Packing.Strategy.algo =
      Packing.Strategy.Permutation_pack
        { flavour = Packing.Permutation_pack.Permutation;
          window = Some window };
    item_order = Vec.Metric.Desc (Vec.Metric.Scalar Vec.Metric.Max);
    bin_order = Vec.Metric.Asc (Vec.Metric.Scalar Vec.Metric.Sum);
    variant = Packing.Strategy.Hvp;
  }

let window_sweep ?pool ?(hosts = 12) ?(services = 60) ?(reps = 10) () =
  let instances =
    Array.of_list
      (Corpus.sweep ~hosts ~services ~covs:[ 0.5; 1.0 ] ~slacks:[ 0.3 ]
         ~reps ())
  in
  List.map
    (fun window ->
      let results =
        Run.map ?pool instances (fun (_, inst) ->
            Heuristics.Vp_solver.solve (pp_strategy ~window) inst)
      in
      let successes = ref 0 and yield_sum = ref 0. in
      Array.iter
        (function
          | Some (sol : Heuristics.Vp_solver.solution) ->
              incr successes;
              yield_sum := !yield_sum +. sol.min_yield
          | None -> ())
        results;
      {
        window;
        successes = !successes;
        mean_yield =
          (if !successes = 0 then 0.
           else !yield_sum /. float_of_int !successes);
      })
    [ 1; 2 ]

type pp_impl_row = {
  dims : int;
  items : int;
  fast_seconds : float;
  naive_seconds : float;
  identical : bool;
}

(* A synthetic packing instance: D-dimensional items and bins with mild
   heterogeneity, exercised at the raw packing layer (the model layer is
   2-D by workload design), as a state whose bins and items are in
   generation order. *)
let synthetic_packing ~seed ~dims ~items ~bins =
  let rng = Prng.Rng.create ~seed in
  let pair lo hi =
    let agg =
      Vec.Vector.init dims (fun _ -> Prng.Rng.uniform_range rng lo hi)
    in
    Vec.Epair.v ~elementary:(Vec.Vector.scale 0.5 agg) ~aggregate:agg
  in
  let demands = Array.init items (fun _ -> pair 0.01 0.3) in
  let capacities = Array.init bins (fun _ -> pair 0.5 1.0) in
  let st = Packing.State.create ~dims ~capacities ~n_items:items in
  Array.iteri (Packing.State.set_item st) demands;
  st

let pp_implementation ?pool ?(dims_list = [ 2; 3; 4; 5; 6; 7 ]) ?(items = 80)
    ?(bins = 20)
    ?(reps = 5) () =
  Run.concat_map_list ?pool dims_list (fun dims ->
      let fast_time = ref 0. and naive_time = ref 0. in
      let identical = ref true in
      for rep = 1 to reps do
        let seed = (dims * 1000) + rep in
        let st_a = synthetic_packing ~seed ~dims ~items ~bins in
        let st_b = synthetic_packing ~seed ~dims ~items ~bins in
        let order = Array.init items Fun.id
        and bin_order = Array.init bins Fun.id in
        (* The solves' path: cursor selection, on a fresh scratch per
           pack. *)
        let ok_a, t_fast =
          timed (fun () ->
              Packing.Permutation_pack.pack
                ~scratch:(Packing.Permutation_pack.scratch ())
                st_a ~bins:bin_order ~items:order ())
        in
        let ok_b, t_naive =
          timed (fun () ->
              Packing.Naive_permutation_pack.pack st_b ~bins:bin_order
                ~items:order ())
        in
        fast_time := !fast_time +. t_fast;
        naive_time := !naive_time +. t_naive;
        let open Packing.State in
        if
          ok_a <> ok_b
          || assignment st_a <> assignment st_b
          || placement_order st_a <> placement_order st_b
        then identical := false
      done;
      [
        {
          dims;
          items;
          fast_seconds = !fast_time /. float_of_int reps;
          naive_seconds = !naive_time /. float_of_int reps;
          identical = !identical;
        };
      ])

type tolerance_row = {
  tolerance : float;
  mean_yield : float;
  mean_seconds : float;
}

let tolerance_sweep ?pool ?(hosts = 12) ?(services = 60) ?(reps = 5) () =
  let instances =
    Array.of_list
      (Corpus.sweep ~hosts ~services ~covs:[ 0.5 ] ~slacks:[ 0.4 ] ~reps ())
  in
  List.map
    (fun tolerance ->
      let results =
        Run.map ?pool instances (fun (_, inst) ->
            timed (fun () ->
                Heuristics.Vp_solver.solve_multi ~tolerance
                  Packing.Strategy.hvp_light inst))
      in
      let yield_sum = ref 0. and time_sum = ref 0. and count = ref 0 in
      Array.iter
        (fun (result, dt) ->
          time_sum := !time_sum +. dt;
          match result with
          | Some (sol : Heuristics.Vp_solver.solution) ->
              incr count;
              yield_sum := !yield_sum +. sol.min_yield
          | None -> ())
        results;
      {
        tolerance;
        mean_yield =
          (if !count = 0 then 0. else !yield_sum /. float_of_int !count);
        mean_seconds = !time_sum /. float_of_int (Array.length instances);
      })
    [ 1e-1; 1e-2; 1e-3; 1e-4 ]

type dimension_row = {
  n_dims : int;
  resource_names : string;
  solved : int;
  total : int;
  mean_yield : float;
  mean_seconds : float;
}

let dimension_sweep ?pool ?(hosts = 8) ?(services = 32) ?(reps = 5) () =
  let resource_sets =
    [
      [| Workload.Generator_nd.cpu; Workload.Generator_nd.memory |];
      [|
        Workload.Generator_nd.cpu; Workload.Generator_nd.memory;
        Workload.Generator_nd.network;
      |];
      Workload.Generator_nd.default_resources;
    ]
  in
  Run.concat_map_list ?pool resource_sets (fun resources ->
      let solved = ref 0 and yield_sum = ref 0. and time_sum = ref 0. in
      for rep = 1 to reps do
        let inst =
          Workload.Generator_nd.generate
            ~rng:(Prng.Rng.create ~seed:(rep * 7919))
            { Workload.Generator_nd.hosts; services; cov = 0.5; resources }
        in
        let result, dt =
          timed (fun () -> Heuristics.Algorithms.metahvplight.solve inst)
        in
        time_sum := !time_sum +. dt;
        match result with
        | Some sol ->
            incr solved;
            yield_sum := !yield_sum +. sol.min_yield
        | None -> ()
      done;
      [
        {
          n_dims = Array.length resources;
          resource_names =
            String.concat "+"
              (Array.to_list
                 (Array.map
                    (fun r -> r.Workload.Generator_nd.name)
                    resources));
          solved = !solved;
          total = reps;
          mean_yield =
            (if !solved = 0 then 0. else !yield_sum /. float_of_int !solved);
          mean_seconds = !time_sum /. float_of_int reps;
        };
      ])

let report_window rows =
  let table =
    Stats.Table.create ~headers:[ "window"; "successes"; "mean yield" ]
  in
  List.iter
    (fun r ->
      Stats.Table.add_row table
        [
          string_of_int r.window;
          string_of_int r.successes;
          Printf.sprintf "%.4f" r.mean_yield;
        ])
    rows;
  "== Ablation: Permutation-Pack window size (D = 2) ==\n"
  ^ Stats.Table.render table ^ "\n"

let report_pp_implementation rows =
  let table =
    Stats.Table.create
      ~headers:[ "D"; "items"; "identical" ]
  in
  List.iter
    (fun r ->
      Stats.Table.add_row table
        [
          string_of_int r.dims;
          string_of_int r.items;
          (if r.identical then "yes" else "NO");
        ])
    rows;
  "== Ablation: cursor PP selection (scratch path) vs literal D!-list scan ==\n"
  ^ Stats.Table.render table
  ^ "\nIdentical packings; the naive implementation's cost grows with D!.\n"

let report_dimension rows =
  let table =
    Stats.Table.create
      ~headers:
        [ "D"; "resources"; "solved"; "mean yield" ]
  in
  List.iter
    (fun r ->
      Stats.Table.add_row table
        [
          string_of_int r.n_dims;
          r.resource_names;
          Printf.sprintf "%d/%d" r.solved r.total;
          Printf.sprintf "%.4f" r.mean_yield;
        ])
    rows;
  "== Ablation: resource dimensionality (METAHVPLIGHT on N-D workloads) ==\n"
  ^ Stats.Table.render table ^ "\n"

let report_tolerance rows =
  let table =
    Stats.Table.create
      ~headers:[ "tolerance"; "mean yield" ]
  in
  List.iter
    (fun r ->
      Stats.Table.add_row table
        [ Printf.sprintf "%g" r.tolerance; Printf.sprintf "%.4f" r.mean_yield ])
    rows;
  "== Ablation: binary-search stopping width (METAHVPLIGHT) ==\n"
  ^ Stats.Table.render table ^ "\n"
