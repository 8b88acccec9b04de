(* Branch-and-bound coverage: MILP optima cross-checked against
   exhaustive enumeration of every integer point, plus unit tests for the
   search-shape counters (nodes / infeasible / pruned). *)

let c = Lp.Problem.c

let with_metrics = Counters.with_metrics

(* The optimum over every integer point of the box [lower, upper] that
   satisfies the constraints to the revised solver's feasibility
   tolerance; [None] when no point does. Exponential, so only for the
   small all-integer problems of [Lp_gen.generate_milp]. *)
let enumerate_optimum (p : Lp.Problem.t) =
  let x = Array.copy p.lower in
  let best = ref None in
  let better a b =
    match p.sense with
    | Lp.Problem.Maximize -> a > b
    | Lp.Problem.Minimize -> a < b
  in
  let rec go v =
    if v = p.n_vars then begin
      if Lp.Problem.is_feasible ~tol:Lp.Simplex.feasibility_tol p x then
        let obj = Lp.Problem.objective_value p x in
        match !best with
        | Some b when not (better obj b) -> ()
        | _ -> best := Some obj
    end
    else begin
      let k = ref p.lower.(v) in
      while !k <= p.upper.(v) do
        x.(v) <- !k;
        go (v + 1);
        k := !k +. 1.
      done
    end
  in
  go 0;
  !best

(* Property: on random feasible bounded MILPs, branch-and-bound finds the
   enumerated optimum. [generate_milp] makes every variable an integer in
   [0, 1] or [0, 2], so five variables span at most 3^5 = 243 points. The
   instances are feasible by construction (integral witness), so both
   must find one. *)

let test_milp_optima_match_enumeration () =
  List.iter
    (fun seed ->
      let p = Lp_gen.generate_milp ~seed ~n_vars:5 ~n_cons:5 () in
      let ctx = Printf.sprintf "milp seed=%d" seed in
      let bb =
        match Lp.Branch_bound.solve p with
        | Lp.Branch_bound.Optimal s -> s.objective
        | Lp.Branch_bound.Infeasible ->
            Alcotest.fail (ctx ^ ": constructed-feasible MILP reported infeasible")
        | Lp.Branch_bound.Unbounded ->
            Alcotest.fail (ctx ^ ": bounded MILP reported unbounded")
        | Lp.Branch_bound.Node_limit _ ->
            Alcotest.fail (ctx ^ ": unexpected node limit")
      in
      match enumerate_optimum p with
      | None -> Alcotest.fail (ctx ^ ": enumeration found no feasible point")
      | Some best ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: branch-and-bound %.9f = enumeration %.9f"
               ctx bb best)
            true
            (Float.abs (bb -. best) <= 1e-6 *. (1. +. Float.abs best)))
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]

(* Infeasible-node accounting: x integer in [0,1] squeezed into [0.4, 0.6].
   The root relaxation is feasible (x = 0.5) but both children's LPs are
   infeasible, so the search proves infeasibility through exactly two
   infeasible nodes. *)

let test_infeasible_node_pruning () =
  let p =
    Lp.Problem.create ~n_vars:1 ~objective:[| 1. |] ~upper:[| 1. |]
      ~integer:[ 0 ]
      ~constraints:[ c [ (0, 1.) ] Ge 0.4; c [ (0, 1.) ] Le 0.6 ]
      ()
  in
  let result, v = with_metrics (fun () -> Lp.Branch_bound.solve p) in
  (match result with
  | Lp.Branch_bound.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible");
  Alcotest.(check int) "three relaxations solved" 3 (v "branch_bound.nodes");
  Alcotest.(check int) "both children infeasible" 2
    (v "branch_bound.infeasible_nodes");
  Alcotest.(check int) "nothing bound-pruned" 0 (v "branch_bound.pruned_nodes")

(* Incumbent pruning: max x0 + x1 with x0 + x1 <= 1.5 on 0/1 variables.
   The root relaxation hits 1.5 fractionally; the first integral incumbent
   reaches 1, after which the sibling branch (LP bound also 1) cannot
   improve and must land on the pruned counter. *)

let test_incumbent_pruning () =
  let p =
    Lp.Problem.create ~n_vars:2 ~objective:[| 1.; 1. |] ~upper:[| 1.; 1. |]
      ~integer:[ 0; 1 ]
      ~constraints:[ c [ (0, 1.); (1, 1.) ] Le 1.5 ]
      ()
  in
  let result, v = with_metrics (fun () -> Lp.Branch_bound.solve p) in
  (match result with
  | Lp.Branch_bound.Optimal s -> Alcotest.(check (float 1e-6)) "optimum" 1. s.objective
  | _ -> Alcotest.fail "expected optimal");
  Alcotest.(check bool) "nodes counted" true (v "branch_bound.nodes" >= 3);
  Alcotest.(check bool) "incumbent pruned a branch" true
    (v "branch_bound.pruned_nodes" >= 1)

(* Warm-start plumbing: a branchy MILP solved with metrics on must record
   warm starts (children re-optimize from the parent basis). *)

let test_bb_warm_starts_recorded () =
  let p = Lp_gen.generate_milp ~seed:3 ~n_vars:6 ~n_cons:5 () in
  let result, v = with_metrics (fun () -> Lp.Branch_bound.solve p) in
  (match result with
  | Lp.Branch_bound.Optimal _ -> ()
  | _ -> Alcotest.fail "constructed-feasible MILP must be optimal");
  if v "branch_bound.nodes" > 1 then
    Alcotest.(check bool) "warm starts recorded" true
      (v "simplex.warm_starts" > 0)

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("MILP optima match enumeration", test_milp_optima_match_enumeration);
      ("infeasible-node accounting", test_infeasible_node_pruning);
      ("incumbent pruning", test_incumbent_pruning);
      ("warm starts recorded", test_bb_warm_starts_recorded);
    ]
