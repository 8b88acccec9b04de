(* Tests for the placement heuristics: binary search, VP solvers, greedy
   family, the MILP formulation, and randomized rounding. *)

let check_float = Alcotest.(check (float 1e-9))

(* Small deterministic instances. *)

let instance_fig1 =
  Model.Instance.v
    ~nodes:
      [|
        Model.Node.make_cores ~id:0 ~cores:4 ~cpu:3.2 ~mem:1.0;
        Model.Node.make_cores ~id:1 ~cores:2 ~cpu:2.0 ~mem:0.5;
      |]
    ~services:
      [|
        Model.Service.make_2d ~id:0 ~cpu_req:(0.5, 1.0) ~mem_req:0.5
          ~cpu_need:(0.5, 1.0) ();
      |]

let gen_instance ~seed ~hosts ~services ~slack =
  Workload.Generator.generate
    ~rng:(Prng.Rng.create ~seed)
    {
      Workload.Generator.hosts;
      services;
      cov = 0.5;
      slack;
      cpu_homogeneous = false;
      mem_homogeneous = false;
    }

(* Binary search. *)

let test_binary_search_exact_one () =
  match Heuristics.Binary_search.maximize (fun y -> if y <= 1. then Some y else None)
  with
  | Some (_, y) -> check_float "reaches 1" 1. y
  | None -> Alcotest.fail "should succeed"

let test_binary_search_threshold () =
  let target = 0.37 in
  match
    Heuristics.Binary_search.maximize (fun y -> if y <= target then Some y else None)
  with
  | Some (_, y) ->
      Alcotest.(check bool) "within tolerance below target" true
        (y <= target && target -. y <= 2. *. Heuristics.Binary_search.default_tolerance)
  | None -> Alcotest.fail "should succeed"

let test_binary_search_zero_fail () =
  Alcotest.(check bool) "failure at 0 propagates" true
    (Heuristics.Binary_search.maximize (fun _ -> None) = None)

(* A non-positive tolerance must be clamped to the default, not trusted:
   with the bracket never allowed to close, [~tolerance:0.] would bisect
   forever. The oracle below fails at 1 so the search cannot take the
   feasible-at-1 shortcut — it has to run (and terminate) the loop. *)
let test_binary_search_nonpositive_tolerance_clamped () =
  let target = 0.37 in
  let oracle y = if y <= target then Some y else None in
  let expected = Heuristics.Binary_search.maximize oracle in
  List.iter
    (fun tolerance ->
      match (Heuristics.Binary_search.maximize ~tolerance oracle, expected) with
      | Some (_, y), Some (_, y') ->
          check_float
            (Printf.sprintf "tolerance %g clamped to default" tolerance)
            y' y
      | _ -> Alcotest.fail "should terminate and succeed")
    [ 0.; -1e-6; neg_infinity ]

(* VP solver on Fig. 1: the only service should land on node B with yield
   1. *)

let any_strategy =
  {
    Packing.Strategy.algo = Packing.Strategy.First_fit;
    item_order = Vec.Metric.Unsorted;
    bin_order = Vec.Metric.Unsorted;
    variant = Packing.Strategy.Vp;
  }

let test_vp_solver_fig1 () =
  match Heuristics.Vp_solver.solve any_strategy instance_fig1 with
  | Some sol ->
      check_float "yield 1 on node B" 1.0 sol.min_yield;
      Alcotest.(check int) "node B" 1 sol.placement.(0)
  | None -> Alcotest.fail "should solve"

let test_items_at_yield () =
  let items = Oracles.Naive_probe.items_at_yield instance_fig1 0.6 in
  check_float "aggregate demand" 1.6
    (Vec.Vector.get items.(0).Oracles.Item.demand.Vec.Epair.aggregate 0)

(* Greedy. *)

let test_greedy_counts () =
  Alcotest.(check int) "49 combinations" 49
    (List.length Heuristics.Greedy.all_combinations)

let test_greedy_fig1 () =
  (* Worst-fit P6 places the service on the biggest node (A, yield 0.6);
     METAGREEDY must find B (yield 1.0). *)
  (match Heuristics.Greedy.solve Heuristics.Greedy.S1 Heuristics.Greedy.P6
           instance_fig1
   with
  | Some sol -> check_float "P6 lands on A" 0.6 sol.min_yield
  | None -> Alcotest.fail "P6 should place");
  match Heuristics.Greedy.metagreedy instance_fig1 with
  | Some sol -> check_float "METAGREEDY finds B" 1.0 sol.min_yield
  | None -> Alcotest.fail "METAGREEDY should place"

let test_greedy_infeasible () =
  let inst =
    Model.Instance.v
      ~nodes:[| Model.Node.make_cores ~id:0 ~cores:4 ~cpu:0.5 ~mem:0.2 |]
      ~services:[| Model.Service.make_2d ~id:0 ~mem_req:0.5 () |]
  in
  Alcotest.(check bool) "no greedy placement" true
    (Heuristics.Greedy.metagreedy inst = None)

let test_metagreedy_beats_singletons () =
  let inst = gen_instance ~seed:5 ~hosts:6 ~services:18 ~slack:0.4 in
  match Heuristics.Greedy.metagreedy inst with
  | None -> Alcotest.fail "metagreedy failed"
  | Some best ->
      List.iter
        (fun (s, p) ->
          match Heuristics.Greedy.solve s p inst with
          | None -> ()
          | Some sol ->
              Alcotest.(check bool)
                (Printf.sprintf "META >= %s/%s" (Heuristics.Greedy.sort_name s)
                   (Heuristics.Greedy.place_name p))
                true
                (best.min_yield >= sol.min_yield -. 1e-12))
        Heuristics.Greedy.all_combinations

(* MILP formulation. *)

let test_milp_formulation_shape () =
  let problem, mapping = Heuristics.Milp.formulation instance_fig1 in
  Alcotest.(check int) "variables" ((2 * 1 * 2) + 1) problem.Lp.Problem.n_vars;
  Alcotest.(check int) "objective var" 4 mapping.Heuristics.Milp.y_min;
  Alcotest.(check bool) "e vars integral" true problem.Lp.Problem.integer.(0);
  Alcotest.(check bool) "y vars rational" false
    problem.Lp.Problem.integer.(mapping.Heuristics.Milp.y 0 0)

let test_milp_exact_fig1 () =
  match Heuristics.Milp.solve_exact instance_fig1 with
  | Some (Some e) ->
      check_float "optimal Y" 1.0 e.milp_objective;
      Alcotest.(check int) "places on B" 1 e.solution.placement.(0)
  | _ -> Alcotest.fail "exact solve failed"

let test_milp_infeasible_instance () =
  let inst =
    Model.Instance.v
      ~nodes:[| Model.Node.make_cores ~id:0 ~cores:4 ~cpu:0.5 ~mem:0.2 |]
      ~services:[| Model.Service.make_2d ~id:0 ~mem_req:0.5 () |]
  in
  Alcotest.(check bool) "infeasible" true
    (Heuristics.Milp.solve_exact inst = Some None)

let test_relaxed_e_matrix_rows_sum_to_one () =
  let inst = gen_instance ~seed:13 ~hosts:4 ~services:8 ~slack:0.5 in
  match Heuristics.Milp.relaxed_e_matrix inst with
  | None -> Alcotest.fail "relaxation should be feasible"
  | Some e ->
      Array.iteri
        (fun j row ->
          let sum = Array.fold_left ( +. ) 0. row in
          Alcotest.(check (float 1e-6))
            (Printf.sprintf "row %d sums to 1" j)
            1.0 sum)
        e

(* Rounding. *)

let test_round_probabilities_respects_requirements () =
  (* Two services of 0.6 memory, two nodes of 1.0 memory: both cannot share
     a node; rounding must split them even with probabilities pushing
     together. *)
  let inst =
    Model.Instance.v
      ~nodes:
        [|
          Model.Node.make_cores ~id:0 ~cores:4 ~cpu:1.0 ~mem:1.0;
          Model.Node.make_cores ~id:1 ~cores:4 ~cpu:1.0 ~mem:1.0;
        |]
      ~services:
        [|
          Model.Service.make_2d ~id:0 ~mem_req:0.6 ();
          Model.Service.make_2d ~id:1 ~mem_req:0.6 ();
        |]
  in
  let e_matrix = [| [| 1.0; 0.0 |]; [| 1.0; 0.0 |] |] in
  (* RRND-style: service 1's only nonzero probability is node 0, which is
     full after service 0 -> failure. *)
  Alcotest.(check bool) "rrnd-style fails" true
    (Heuristics.Rounding.round_probabilities
       ~rng:(Prng.Rng.create ~seed:0)
       ~e_matrix inst
     = None);
  (* RRNZ fixes it by injecting epsilon. *)
  match Heuristics.Rounding.rrnz ~rng:(Prng.Rng.create ~seed:0) inst with
  | Some sol ->
      Alcotest.(check bool) "services split" true
        (sol.placement.(0) <> sol.placement.(1))
  | None -> Alcotest.fail "rrnz should succeed"

let test_rounding_deterministic_given_seed () =
  let inst = gen_instance ~seed:17 ~hosts:4 ~services:10 ~slack:0.5 in
  let a = Heuristics.Rounding.rrnz ~rng:(Prng.Rng.create ~seed:9) inst in
  let b = Heuristics.Rounding.rrnz ~rng:(Prng.Rng.create ~seed:9) inst in
  match (a, b) with
  | Some sa, Some sb ->
      Alcotest.(check bool) "same placement" true
        (sa.placement = sb.placement)
  | None, None -> ()
  | _ -> Alcotest.fail "nondeterministic"

(* Meta algorithms. *)

let test_metavp_at_least_single_strategies () =
  let inst = gen_instance ~seed:23 ~hosts:6 ~services:20 ~slack:0.4 in
  match Heuristics.Algorithms.metavp.solve inst with
  | None ->
      List.iter
        (fun strategy ->
          Alcotest.(check bool)
            (Packing.Strategy.name strategy ^ " also fails")
            true
            (Heuristics.Vp_solver.solve strategy inst = None))
        Packing.Strategy.vp_all
  | Some meta ->
      List.iter
        (fun strategy ->
          match Heuristics.Vp_solver.solve strategy inst with
          | None -> ()
          | Some sol ->
              Alcotest.(check bool)
                ("METAVP >= " ^ Packing.Strategy.name strategy)
                true
                (meta.min_yield >= sol.min_yield -. 1e-3))
        Packing.Strategy.vp_all

let test_algorithm_registry () =
  Alcotest.(check int) "5 majors" 5
    (List.length (Heuristics.Algorithms.majors ~seed:0));
  Alcotest.(check bool) "lookup" true
    (Heuristics.Algorithms.by_name ~seed:0 "metahvplight" <> None);
  Alcotest.(check bool) "unknown" true
    (Heuristics.Algorithms.by_name ~seed:0 "nope" = None)

(* Properties. *)

let small_instance_gen =
  QCheck2.Gen.(
    let* seed = int_range 0 10_000 in
    let* hosts = int_range 2 5 in
    let* services = int_range 2 12 in
    let* slack10 = int_range 3 7 in
    pure (seed, hosts, services, float_of_int slack10 /. 10.))

let solutions_are_valid ~name solve =
  QCheck2.Test.make ~name ~count:60 small_instance_gen
    (fun (seed, hosts, services, slack) ->
      let inst = gen_instance ~seed ~hosts ~services ~slack in
      match solve inst with
      | None -> true
      | Some (sol : Heuristics.Vp_solver.solution) -> (
          sol.min_yield >= -1e-9
          && sol.min_yield <= 1. +. 1e-9
          &&
          match Model.Placement.water_fill inst sol.placement with
          | None -> false
          | Some alloc -> (
              match Model.Placement.check_constraints inst alloc with
              | Ok () -> true
              | Error _ -> false)))

let prop_metahvp_valid =
  solutions_are_valid ~name:"METAHVP solutions valid"
    Heuristics.Algorithms.metahvp.solve

let prop_metagreedy_valid =
  solutions_are_valid ~name:"METAGREEDY solutions valid"
    Heuristics.Greedy.metagreedy

let prop_rrnz_valid =
  solutions_are_valid ~name:"RRNZ solutions valid" (fun inst ->
      Heuristics.Rounding.rrnz ~rng:(Prng.Rng.create ~seed:1) inst)

(* Invariants every registry algorithm must satisfy on any reported
   solution: the placement is structurally valid and feasible at yield 0 in
   every dimension (elementary and aggregate requirements both fit), its
   water-filled allocation passes the MILP constraints (1)-(7), and the
   reported minimum yield has the bits of both an independent
   [Model.Placement.min_yield] recomputation and the list reference
   [Oracles.Yield_ref]: all algorithms score through the same water-fill
   kernel, so any drift indicates a stale or hand-edited [min_yield].

   Instances come from [Instance_gen] (the 2-D generator, or D = 1, 3
   and 4 through [Generator_nd]; requirement-only services in half the
   cases) in one of four shapes: as generated, on a single node, with
   every node's elementary capacity raised to its aggregate one, or with
   every third service emptied of requirements and needs alike. *)

type shape = As_generated | Single_node | Elementary_is_aggregate | Empty_services

let edge_gen ~max_hosts ~max_services =
  QCheck2.Gen.(
    let* p = Instance_gen.gen in
    let* shape =
      oneofl [ As_generated; Single_node; Elementary_is_aggregate; Empty_services ]
    in
    let hosts = if shape = Single_node then 1 else min p.hosts max_hosts in
    pure ({ p with hosts; services = min p.services max_services }, shape))

let print_edge (p, shape) =
  Instance_gen.print p ^ " "
  ^
  match shape with
  | As_generated -> "as generated"
  | Single_node -> "single node"
  | Elementary_is_aggregate -> "elementary = aggregate"
  | Empty_services -> "empty services"

let edge_instance (p, shape) =
  let inst = Instance_gen.instance p in
  match shape with
  | As_generated | Single_node -> inst
  | Elementary_is_aggregate ->
      Model.Instance.v
        ~nodes:
          (Array.map
             (fun (n : Model.Node.t) ->
               let agg = n.capacity.Vec.Epair.aggregate in
               Model.Node.v ~id:n.id
                 ~capacity:(Vec.Epair.v ~elementary:agg ~aggregate:agg))
             inst.Model.Instance.nodes)
        ~services:inst.Model.Instance.services
  | Empty_services ->
      Model.Instance.map_services
        (fun (s : Model.Service.t) ->
          if s.id mod 3 <> 0 then s
          else
            let zero = Vec.Epair.zero (Model.Service.dim s) in
            Model.Service.v ~id:s.id ~requirement:zero ~need:zero)
        inst

let placement_invariants ~name ~gen solve =
  QCheck2.Test.make ~name ~count:40 ~print:print_edge gen (fun spec ->
      let inst = edge_instance spec in
      match solve inst with
      | None -> true
      | Some (sol : Heuristics.Vp_solver.solution) -> (
          let same_bits = function
            | Some y ->
                Int64.bits_of_float y = Int64.bits_of_float sol.min_yield
            | None -> false
          in
          Model.Placement.is_valid inst sol.placement
          && Oracles.Yield_ref.placement_feasible inst sol.placement
          && (match Model.Placement.water_fill inst sol.placement with
             | None -> false
             | Some alloc ->
                 Model.Placement.check_constraints inst alloc = Ok ())
          && same_bits (Model.Placement.min_yield inst sol.placement)
          && same_bits
               (Oracles.Yield_ref.placement_min_yield inst sol.placement)))

(* The exact MILP is only tractable on tiny instances. *)
let milp_instance_gen =
  QCheck2.Gen.(
    let* seed = int_range 0 1000 in
    let* hosts = int_range 2 3 in
    let* services = int_range 2 6 in
    pure (seed, hosts, services, 0.5))

let registry =
  List.map
    (fun name ->
      match Heuristics.Algorithms.by_name ~seed:3 name with
      | Some algo -> algo
      | None -> Alcotest.failf "registry name %S does not resolve" name)
    Heuristics.Algorithms.valid_names

let is_milp (algo : Heuristics.Algorithms.t) = algo.name = "MILP"

let prop_registry_invariants =
  List.map
    (fun (algo : Heuristics.Algorithms.t) ->
      placement_invariants
        ~name:(algo.name ^ ": feasible placement, yield recomputes")
        ~gen:
          (if is_milp algo then edge_gen ~max_hosts:3 ~max_services:6
           else edge_gen ~max_hosts:6 ~max_services:16)
        algo.solve)
    registry

(* The relaxation's optimum bounds every heuristic's minimum yield (paper
   §3.2). The generator sets total CPU need to total capacity, so its
   instances have a bound of 1; on CPU-oversubscribed ones the bound is
   about 1/2, where a heuristic above it would show. *)
let test_relaxed_bound_dominates () =
  let check ~ctx algos inst =
    match Heuristics.Milp.relaxed_bound inst with
    | None -> Alcotest.fail (ctx ^ ": relaxation should be feasible")
    | Some bound ->
        List.iter
          (fun (a : Heuristics.Algorithms.t) ->
            match a.solve inst with
            | None -> ()
            | Some sol ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s: %s yield %.6f <= LP bound %.6f" ctx
                     a.name sol.min_yield bound)
                  true
                  (sol.min_yield <= bound +. 1e-6))
          algos;
        bound
  in
  let heuristics = List.filter (fun a -> not (is_milp a)) registry in
  ignore
    (check ~ctx:"4x10 seed 11" heuristics
       (gen_instance ~seed:11 ~hosts:4 ~services:10 ~slack:0.5));
  List.iter
    (fun seed ->
      let ctx = Printf.sprintf "oversubscribed 3x8 seed %d" seed in
      let bound =
        check ~ctx heuristics
          (Instance_gen.oversubscribed ~seed ~nodes:3 ~services:8 ~factor:2.)
      in
      Alcotest.(check bool) (ctx ^ ": bound below 1") true (bound < 1.))
    [ 1; 2; 3 ];
  List.iter
    (fun seed ->
      ignore
        (check
           ~ctx:(Printf.sprintf "10x40 seed %d" seed)
           heuristics
           (gen_instance ~seed ~hosts:10 ~services:40 ~slack:0.5)))
    [ 1; 2; 3; 4; 5 ];
  let packing =
    List.filter
      (fun (a : Heuristics.Algorithms.t) ->
        List.mem a.name [ "METAGREEDY"; "METAVP"; "METAHVPLIGHT"; "METAHVP" ])
      registry
  in
  ignore
    (check ~ctx:"64x100 seed 3" packing
       (gen_instance ~seed:3 ~hosts:64 ~services:100 ~slack:0.6))

let prop_heuristics_below_milp_optimum =
  QCheck2.Test.make ~name:"heuristics never beat the exact MILP" ~count:25
    milp_instance_gen
    (fun (seed, hosts, services, slack) ->
      let inst = gen_instance ~seed ~hosts ~services ~slack in
      let heuristics = List.filter (fun a -> not (is_milp a)) registry in
      match Heuristics.Milp.solve_exact ~node_limit:50_000 inst with
      | None -> QCheck2.assume_fail () (* truncated: skip *)
      | Some None ->
          (* Infeasible: heuristics must fail too. *)
          List.for_all
            (fun (a : Heuristics.Algorithms.t) -> a.solve inst = None)
            heuristics
      | Some (Some exact) ->
          (* Water-filling can exceed the MILP's uniform-yield optimum for
             individual services but the minimum yield cannot. *)
          List.for_all
            (fun (a : Heuristics.Algorithms.t) ->
              match a.solve inst with
              | None -> true
              | Some sol -> sol.min_yield <= exact.solution.min_yield +. 1e-6)
            heuristics)

(* Rounding (§3.3) and the zero-knowledge spread (§6) admit one service
   at a time through a packing state at yield 0. The reference runs the
   same loops over record bins ([Oracles.Bin], [Oracles.Item]) whose
   items carry each service's demand at yield 0: the same weighted draws
   with the same RNG seed, and the fewest residents with ties to the
   lowest node. Probability rows hold zero entries, and some are all
   zero, where RRND fails. *)
type admission_case = {
  a_inst : Instance_gen.t;
  a_rng_seed : int;
  a_e_matrix : float array array;
}

let admission_gen =
  QCheck2.Gen.(
    let* a_inst = Instance_gen.gen in
    let* a_rng_seed = int_range 0 100_000 in
    let entry = frequency [ (1, pure 0.); (3, float_range 0.01 1.) ] in
    let row =
      frequency
        [
          (1, pure (Array.make a_inst.hosts 0.));
          (12, array_size (pure a_inst.hosts) entry);
        ]
    in
    let* a_e_matrix = array_size (pure a_inst.services) row in
    pure { a_inst; a_rng_seed; a_e_matrix })

let print_admission c =
  Printf.sprintf "%s, rng seed %d, e = [%s]" (Instance_gen.print c.a_inst)
    c.a_rng_seed
    (String.concat "; "
       (Array.to_list
          (Array.map
             (fun r ->
               String.concat " "
                 (Array.to_list (Array.map (Printf.sprintf "%g") r)))
             c.a_e_matrix)))

(* The instance's services in id order as items at yield 0, each placed
   where [choose] says. *)
let record_loop inst choose =
  let items = Oracles.Naive_probe.items_at_yield inst 0. in
  let placement = Array.make (Array.length items) (-1) in
  let rec go j =
    if j = Array.length items then Some placement
    else
      match choose items.(j) with
      | None -> None
      | Some h ->
          placement.(j) <- h;
          go (j + 1)
  in
  go 0

let record_round ~rng ~e_matrix inst =
  let bins = Oracles.Naive_probe.fresh_bins inst in
  record_loop inst (fun (item : Oracles.Item.t) ->
      let probs = Array.copy e_matrix.(item.id) in
      let rec draw () =
        if Array.for_all (fun p -> p <= 0.) probs then None
        else
          let h = Prng.Rng.choose_weighted rng probs in
          if Oracles.Bin.fits bins.(h) item then begin
            Oracles.Bin.place bins.(h) item;
            Some h
          end
          else begin
            probs.(h) <- 0.;
            draw ()
          end
      in
      draw ())

let record_spread inst =
  let bins = Oracles.Naive_probe.fresh_bins inst in
  let residents (b : Oracles.Bin.t) = List.length b.contents in
  record_loop inst (fun item ->
      let best = ref None in
      Array.iter
        (fun (b : Oracles.Bin.t) ->
          if Oracles.Bin.fits b item then
            match !best with
            | Some (c : Oracles.Bin.t) when residents c <= residents b -> ()
            | _ -> best := Some b)
        bins;
      Option.map
        (fun (b : Oracles.Bin.t) ->
          Oracles.Bin.place b item;
          b.id)
        !best)

let prop_admission_matches_record_bins =
  QCheck2.Test.make
    ~name:"rounding and zero-knowledge admission = record bins (D = 1-4)"
    ~count:400 ~print:print_admission admission_gen (fun c ->
      let inst = Instance_gen.instance c.a_inst in
      let rng = Prng.Rng.create ~seed:c.a_rng_seed
      and ref_rng = Prng.Rng.create ~seed:c.a_rng_seed in
      Heuristics.Rounding.round_probabilities ~rng ~e_matrix:c.a_e_matrix
        inst
      = record_round ~rng:ref_rng ~e_matrix:c.a_e_matrix inst
      && Prng.Rng.bits64 rng = Prng.Rng.bits64 ref_rng
      && Sharing.Zero_knowledge.place inst = record_spread inst)

(* The generator reaches placements and refusals on both paths. *)
let test_admission_cases_reached () =
  let outcomes =
    List.map
      (fun c ->
        let inst = Instance_gen.instance c.a_inst in
        ( Heuristics.Rounding.round_probabilities
            ~rng:(Prng.Rng.create ~seed:c.a_rng_seed)
            ~e_matrix:c.a_e_matrix inst
          <> None,
          Sharing.Zero_knowledge.place inst <> None ))
      (QCheck2.Gen.generate ~n:400 ~rand:(Random.State.make [| 13 |])
         admission_gen)
  in
  let reached name f =
    Alcotest.(check bool) name true (List.exists f outcomes)
  in
  reached "rounding places" fst;
  reached "rounding refuses" (fun (r, _) -> not r);
  reached "zero-knowledge places" snd;
  reached "zero-knowledge refuses" (fun (_, z) -> not z)

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("binary search reaches 1", test_binary_search_exact_one);
      ("binary search threshold", test_binary_search_threshold);
      ("binary search fails at 0", test_binary_search_zero_fail);
      ("binary search clamps non-positive tolerance",
       test_binary_search_nonpositive_tolerance_clamped);
      ("vp solver on Fig. 1", test_vp_solver_fig1);
      ("items at yield", test_items_at_yield);
      ("greedy 49 combinations", test_greedy_counts);
      ("greedy on Fig. 1", test_greedy_fig1);
      ("greedy infeasible", test_greedy_infeasible);
      ("metagreedy >= each greedy", test_metagreedy_beats_singletons);
      ("MILP formulation shape", test_milp_formulation_shape);
      ("MILP exact on Fig. 1", test_milp_exact_fig1);
      ("MILP infeasible", test_milp_infeasible_instance);
      ("LP bound dominates heuristics", test_relaxed_bound_dominates);
      ("relaxed e rows sum to 1", test_relaxed_e_matrix_rows_sum_to_one);
      ("rounding respects requirements", test_round_probabilities_respects_requirements);
      ("rounding deterministic", test_rounding_deterministic_given_seed);
      ("METAVP >= single strategies", test_metavp_at_least_single_strategies);
      ("algorithm registry", test_algorithm_registry);
    ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_metahvp_valid;
        prop_metagreedy_valid;
        prop_rrnz_valid;
        prop_heuristics_below_milp_optimum;
      ]
  @ List.map QCheck_alcotest.to_alcotest prop_registry_invariants
  @ [
      QCheck_alcotest.to_alcotest prop_admission_matches_record_bins;
      Alcotest.test_case "admission cases reached" `Quick
        test_admission_cases_reached;
    ]
