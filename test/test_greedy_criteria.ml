(* Focused semantics tests for the greedy node-selection criteria P1-P7 on
   hand-crafted platforms where each criterion's choice is unambiguous. *)

let node id ~cpu ~mem = Model.Node.make_cores ~id ~cores:4 ~cpu ~mem

(* A service with memory requirement and CPU need; memory is its largest
   requirement dimension, CPU its largest need dimension. *)
let svc ?(mem = 0.1) ?(cpu = 0.2) id =
  Model.Service.make_2d ~id ~mem_req:mem ~cpu_need:(cpu /. 4., cpu) ()

let place_first sort place nodes services =
  let inst =
    Model.Instance.v ~nodes:(Array.of_list nodes)
      ~services:(Array.of_list services)
  in
  match Heuristics.Greedy.place sort place inst with
  | Some placement -> placement.(0)
  | None -> Alcotest.fail "greedy should place"

let test_p1_most_available_in_need_dimension () =
  (* Max need dim is CPU: node 1 has more CPU. *)
  let nodes = [ node 0 ~cpu:0.4 ~mem:1.0; node 1 ~cpu:0.9 ~mem:0.3 ] in
  Alcotest.(check int) "picks the CPU-rich node" 1
    (place_first Heuristics.Greedy.S1 Heuristics.Greedy.P1 nodes [ svc 0 ])

let test_p3_best_fit_in_requirement_dimension () =
  (* Largest requirement dim is memory: best fit = least remaining memory
     after placement. *)
  let nodes = [ node 0 ~cpu:0.5 ~mem:1.0; node 1 ~cpu:0.5 ~mem:0.2 ] in
  Alcotest.(check int) "picks the tighter memory node" 1
    (place_first Heuristics.Greedy.S1 Heuristics.Greedy.P3 nodes [ svc 0 ])

let test_p5_worst_fit_in_requirement_dimension () =
  let nodes = [ node 0 ~cpu:0.5 ~mem:1.0; node 1 ~cpu:0.5 ~mem:0.2 ] in
  Alcotest.(check int) "picks the roomier memory node" 0
    (place_first Heuristics.Greedy.S1 Heuristics.Greedy.P5 nodes [ svc 0 ])

let test_p4_least_aggregate_available () =
  let nodes = [ node 0 ~cpu:0.9 ~mem:0.9; node 1 ~cpu:0.3 ~mem:0.3 ] in
  Alcotest.(check int) "picks the smaller node" 1
    (place_first Heuristics.Greedy.S1 Heuristics.Greedy.P4 nodes [ svc 0 ])

let test_p6_most_total_available () =
  let nodes = [ node 0 ~cpu:0.9 ~mem:0.9; node 1 ~cpu:0.3 ~mem:0.3 ] in
  Alcotest.(check int) "picks the bigger node" 0
    (place_first Heuristics.Greedy.S1 Heuristics.Greedy.P6 nodes [ svc 0 ])

let test_p7_first_fit () =
  let nodes = [ node 0 ~cpu:0.3 ~mem:0.05; node 1 ~cpu:0.3 ~mem:1.0 ] in
  (* Node 0 cannot satisfy the 0.1 memory requirement; P7 takes the first
     feasible node. *)
  Alcotest.(check int) "first feasible" 1
    (place_first Heuristics.Greedy.S1 Heuristics.Greedy.P7 nodes [ svc 0 ])

let test_p2_ratio_accounts_for_virtual_load () =
  (* Equal capacities; node 0 already carries a committed service's virtual
     load, so P2's after-placement ratio favours node 1. *)
  let nodes = [ node 0 ~cpu:1.0 ~mem:1.0; node 1 ~cpu:1.0 ~mem:1.0 ] in
  let services = [ svc ~cpu:0.8 0; svc 1 ] in
  let inst =
    Model.Instance.v ~nodes:(Array.of_list nodes)
      ~services:(Array.of_list services)
  in
  match Heuristics.Greedy.place Heuristics.Greedy.S1 Heuristics.Greedy.P2 inst
  with
  | Some placement ->
      Alcotest.(check bool) "spread across nodes" true
        (placement.(0) <> placement.(1))
  | None -> Alcotest.fail "should place"

let test_sort_strategies_order () =
  (* S3 sorts by total need descending: the hungry service is placed first
     and P7 puts it on node 0. *)
  let nodes = [ node 0 ~cpu:1.0 ~mem:1.0 ] in
  let hungry = svc ~cpu:0.9 0 and modest = svc ~cpu:0.1 1 in
  let inst =
    Model.Instance.v ~nodes:(Array.of_list nodes)
      ~services:[| hungry; modest |]
  in
  (* Both fit; this mostly checks the sort doesn't crash and respects
     yields downstream. *)
  match Heuristics.Greedy.solve Heuristics.Greedy.S3 Heuristics.Greedy.P7 inst
  with
  | Some sol ->
      Alcotest.(check bool) "yield positive" true (sol.min_yield > 0.)
  | None -> Alcotest.fail "should place"

let test_tie_breaks_to_lowest_node () =
  let nodes = [ node 0 ~cpu:0.5 ~mem:0.5; node 1 ~cpu:0.5 ~mem:0.5 ] in
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Heuristics.Greedy.place_name p ^ " ties to node 0")
        0
        (place_first Heuristics.Greedy.S1 p nodes [ svc 0 ]))
    [ Heuristics.Greedy.P1; P2; P3; P4; P5; P6; P7 ]

(* Naive PP with the heterogeneous (remaining-capacity) ranking must also
   match the fast implementation. *)
let test_naive_pp_hvp_ranking () =
  let rng = Prng.Rng.create ~seed:99 in
  for _ = 1 to 25 do
    let dims = 2 + Prng.Rng.int rng 3 in
    let mk lo hi =
      Vec.Epair.uniform
        (Vec.Vector.init dims (fun _ -> Prng.Rng.uniform_range rng lo hi))
    in
    let capacities = Array.init 5 (fun _ -> mk 0.4 1.0) in
    let demands = Array.init 15 (fun _ -> mk 0.01 0.35) in
    let state () =
      let st = Packing.State.create ~dims ~capacities ~n_items:15 in
      Array.iteri (Packing.State.set_item st) demands;
      st
    in
    let st_a = state () and st_b = state () in
    let bins = Array.init 5 Fun.id and items = Array.init 15 Fun.id in
    let ok_a =
      Packing.Permutation_pack.pack
        ~ranking:Packing.Permutation_pack.By_remaining_capacity
        ~scratch:(Packing.Permutation_pack.scratch ()) st_a ~bins ~items ()
    in
    let ok_b =
      Packing.Naive_permutation_pack.pack
        ~ranking:Packing.Permutation_pack.By_remaining_capacity st_b ~bins
        ~items ()
    in
    Alcotest.(check bool) "same success" ok_a ok_b;
    Alcotest.(check (array int)) "same assignment"
      (Packing.State.assignment st_a)
      (Packing.State.assignment st_b)
  done

let test_strategy_ranking_smoke () =
  let rows =
    Experiments.Strategy_ranking.run ~hosts:3 ~services:6 ~covs:[ 0.5 ]
      ~slacks:[ 0.5 ] ~reps:1 ()
  in
  Alcotest.(check int) "253 strategies ranked" 253 (List.length rows);
  (* Sorted by success desc then yield desc. *)
  let rec sorted = function
    | (a : Experiments.Strategy_ranking.row) :: (b :: _ as rest) ->
        (a.successes > b.successes
        || (a.successes = b.successes && a.mean_yield >= b.mean_yield))
        && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "ranking order" true (sorted rows);
  Alcotest.(check bool) "report renders" true
    (String.length (Experiments.Strategy_ranking.report ~top:5 rows) > 0)

(* The flat node scan against the reference scan it replaced
   ({!Oracles.Naive_greedy}): every (S, P) combination places the same
   services on the same nodes with the same work counters, and METAGREEDY
   returns the same placement and the same min-yield bits. *)
let prop_greedy_equals_reference =
  QCheck2.Test.make ~name:"greedy = reference scan on every (S, P)"
    ~count:100 ~print:Instance_gen.print Instance_gen.gen (fun p ->
      let inst = Instance_gen.instance p in
      let same_work run reference =
        let naive = Oracles.Naive_greedy.counts () in
        let expected = reference naive in
        let got, counter = Counters.with_metrics run in
        (got, expected,
         counter "greedy.candidate_evals" = !(naive.candidate_evals)
         && counter "greedy.placements" = !(naive.placements))
      in
      List.for_all
        (fun (s, pl) ->
          let got, expected, work =
            same_work
              (fun () -> Heuristics.Greedy.place s pl inst)
              (fun counts -> Oracles.Naive_greedy.place ~counts s pl inst)
          in
          work && got = expected)
        Heuristics.Greedy.all_combinations
      &&
      let got, expected, work =
        same_work
          (fun () -> Heuristics.Greedy.metagreedy inst)
          (fun counts -> Oracles.Naive_greedy.metagreedy ~counts inst)
      in
      work
      &&
      match (got, expected) with
      | None, None -> true
      | Some a, Some b ->
          a.placement = b.placement
          && Int64.bits_of_float a.min_yield = Int64.bits_of_float b.min_yield
      | _ -> false)

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("P1 most available in need dim", test_p1_most_available_in_need_dimension);
      ("P2 load ratio spreads", test_p2_ratio_accounts_for_virtual_load);
      ("P3 best fit in requirement dim", test_p3_best_fit_in_requirement_dimension);
      ("P4 least aggregate available", test_p4_least_aggregate_available);
      ("P5 worst fit in requirement dim", test_p5_worst_fit_in_requirement_dimension);
      ("P6 most total available", test_p6_most_total_available);
      ("P7 first fit", test_p7_first_fit);
      ("S3 sorting", test_sort_strategies_order);
      ("ties to lowest node", test_tie_breaks_to_lowest_node);
      ("naive PP matches fast (HVP ranking)", test_naive_pp_hvp_ranking);
      ("strategy ranking smoke", test_strategy_ranking_smoke);
    ]
  @ [ QCheck_alcotest.to_alcotest prop_greedy_equals_reference ]
