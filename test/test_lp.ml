(* Tests for the LP/MILP substrate: known solutions, degenerate cases, and
   randomized cross-checks of optimality certificates. *)

let check_float = Alcotest.(check (float 1e-6))

let c = Lp.Problem.c

let solve p =
  match Lp.Simplex.solve p with
  | Lp.Simplex.Optimal s -> s
  | Lp.Simplex.Infeasible -> Alcotest.fail "unexpected infeasible"
  | Lp.Simplex.Unbounded -> Alcotest.fail "unexpected unbounded"

let test_basic_max () =
  (* max 3x+2y; x+y<=4; x+3y<=6 -> obj 12 at (4,0). *)
  let p =
    Lp.Problem.create ~n_vars:2 ~objective:[| 3.; 2. |]
      ~constraints:[ c [ (0, 1.); (1, 1.) ] Le 4.; c [ (0, 1.); (1, 3.) ] Le 6. ]
      ()
  in
  let s = solve p in
  check_float "objective" 12. s.objective;
  check_float "x" 4. s.x.(0)

let test_basic_min () =
  (* min x+y; x+2y>=3; 2x+y>=3 -> 2 at (1,1). *)
  let p =
    Lp.Problem.create ~sense:Lp.Problem.Minimize ~n_vars:2
      ~objective:[| 1.; 1. |]
      ~constraints:[ c [ (0, 1.); (1, 2.) ] Ge 3.; c [ (0, 2.); (1, 1.) ] Ge 3. ]
      ()
  in
  let s = solve p in
  check_float "objective" 2. s.objective;
  check_float "x" 1. s.x.(0);
  check_float "y" 1. s.x.(1)

let test_equality () =
  (* max x + y; x + y = 2; x <= 0.5 -> 2 with x in [0,0.5]. *)
  let p =
    Lp.Problem.create ~n_vars:2 ~objective:[| 1.; 1. |]
      ~upper:[| 0.5; infinity |]
      ~constraints:[ c [ (0, 1.); (1, 1.) ] Eq 2. ]
      ()
  in
  let s = solve p in
  check_float "objective" 2. s.objective;
  Alcotest.(check bool) "x within bound" true (s.x.(0) <= 0.5 +. 1e-9)

let test_infeasible () =
  let p =
    Lp.Problem.create ~n_vars:1 ~objective:[| 1. |]
      ~constraints:[ c [ (0, 1.) ] Le 1.; c [ (0, 1.) ] Ge 2. ]
      ()
  in
  match Lp.Simplex.solve p with
  | Lp.Simplex.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_unbounded () =
  let p = Lp.Problem.create ~n_vars:1 ~objective:[| 1. |] ~constraints:[] () in
  match Lp.Simplex.solve p with
  | Lp.Simplex.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_lower_bounds () =
  (* min x + y with x >= 2, y >= 3, x + y >= 6 -> 6. *)
  let p =
    Lp.Problem.create ~sense:Lp.Problem.Minimize ~n_vars:2
      ~objective:[| 1.; 1. |] ~lower:[| 2.; 3. |]
      ~constraints:[ c [ (0, 1.); (1, 1.) ] Ge 6. ]
      ()
  in
  let s = solve p in
  check_float "objective" 6. s.objective;
  Alcotest.(check bool) "x >= 2" true (s.x.(0) >= 2. -. 1e-9);
  Alcotest.(check bool) "y >= 3" true (s.x.(1) >= 3. -. 1e-9)

let test_upper_bound_binding () =
  let p =
    Lp.Problem.create ~n_vars:2 ~objective:[| 2.; 1. |]
      ~upper:[| 0.5; infinity |]
      ~constraints:[ c [ (0, 1.); (1, 1.) ] Le 0.8 ]
      ()
  in
  let s = solve p in
  check_float "objective" 1.3 s.objective;
  check_float "x at bound" 0.5 s.x.(0)

let test_degenerate () =
  (* Degenerate vertex: several constraints through the optimum. *)
  let p =
    Lp.Problem.create ~n_vars:2 ~objective:[| 1.; 1. |]
      ~constraints:
        [
          c [ (0, 1.) ] Le 1.;
          c [ (1, 1.) ] Le 1.;
          c [ (0, 1.); (1, 1.) ] Le 2.;
          c [ (0, 1.); (1, -1.) ] Le 0.;
        ]
      ()
  in
  let s = solve p in
  check_float "objective" 2. s.objective

let test_redundant_equalities () =
  (* x + y = 1 written twice: phase 1 must cope with a redundant row. *)
  let p =
    Lp.Problem.create ~n_vars:2 ~objective:[| 1.; 0. |]
      ~constraints:[ c [ (0, 1.); (1, 1.) ] Eq 1.; c [ (0, 1.); (1, 1.) ] Eq 1. ]
      ()
  in
  let s = solve p in
  check_float "objective" 1. s.objective

let test_feasibility_checker () =
  let p =
    Lp.Problem.create ~n_vars:2 ~objective:[| 1.; 1. |]
      ~upper:[| 1.; 1. |]
      ~constraints:[ c [ (0, 1.); (1, 1.) ] Le 1.5 ]
      ()
  in
  Alcotest.(check bool) "feasible point" true
    (Lp.Problem.is_feasible p [| 0.5; 0.5 |]);
  Alcotest.(check bool) "constraint violated" false
    (Lp.Problem.is_feasible p [| 1.; 1. |]);
  Alcotest.(check bool) "bound violated" false
    (Lp.Problem.is_feasible p [| 1.2; 0. |])

(* MILP. *)

let test_knapsack () =
  let p =
    Lp.Problem.create ~n_vars:3 ~objective:[| 10.; 6.; 4. |]
      ~upper:[| 1.; 1.; 1. |] ~integer:[ 0; 1; 2 ]
      ~constraints:
        [
          c [ (0, 1.); (1, 1.); (2, 1.) ] Le 2.;
          c [ (0, 5.); (1, 4.); (2, 3.) ] Le 9.;
        ]
      ()
  in
  match Lp.Branch_bound.solve p with
  | Lp.Branch_bound.Optimal s ->
      check_float "objective" 16. s.objective;
      check_float "a" 1. s.x.(0);
      check_float "b" 1. s.x.(1);
      check_float "c" 0. s.x.(2)
  | _ -> Alcotest.fail "expected optimal"

let test_milp_infeasible () =
  let p =
    Lp.Problem.create ~n_vars:1 ~objective:[| 1. |] ~upper:[| 1. |]
      ~integer:[ 0 ]
      ~constraints:[ c [ (0, 1.) ] Ge 0.4; c [ (0, 1.) ] Le 0.6 ]
      ()
  in
  match Lp.Branch_bound.solve p with
  | Lp.Branch_bound.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible (no integer in [0.4, 0.6])"

let test_milp_relaxation_gap () =
  (* Relaxation reaches 1.5; integrality forces 1. *)
  let p =
    Lp.Problem.create ~n_vars:2 ~objective:[| 1.; 1. |]
      ~upper:[| 1.; 1. |] ~integer:[ 0; 1 ]
      ~constraints:[ c [ (0, 1.); (1, 1.) ] Le 1.5 ]
      ()
  in
  (match Lp.Simplex.solve (Lp.Problem.relax p) with
  | Lp.Simplex.Optimal s -> check_float "relaxed" 1.5 s.objective
  | _ -> Alcotest.fail "relaxation should solve");
  match Lp.Branch_bound.solve p with
  | Lp.Branch_bound.Optimal s -> check_float "integer" 1. s.objective
  | _ -> Alcotest.fail "expected optimal"

let test_milp_node_limit () =
  let p =
    Lp.Problem.create ~n_vars:6 ~objective:(Array.make 6 1.)
      ~upper:(Array.make 6 1.)
      ~integer:[ 0; 1; 2; 3; 4; 5 ]
      ~constraints:[ c (List.init 6 (fun i -> (i, 1.))) Le 3.5 ]
      ()
  in
  match Lp.Branch_bound.solve ~node_limit:1 p with
  | Lp.Branch_bound.Node_limit _ -> ()
  | Lp.Branch_bound.Optimal _ ->
      (* A single node can already be integral on some platforms; accept. *)
      ()
  | _ -> Alcotest.fail "unexpected outcome"

let test_transportation () =
  (* Balanced transportation problem: 2 sources (supply 20, 30), 3 sinks
     (demand 10, 25, 15), unit costs rows [8 6 10; 9 12 13]. Shipping
     everything from source 1 costs 585; source 0's 20 units save the most
     on sink 1 (6 per unit), so the optimum is 585 - 20*6 = 465 with
     x = [0 20 0; 10 5 15]. *)
  let x i j = (i * 3) + j in
  let costs = [| 8.; 6.; 10.; 9.; 12.; 13. |] in
  let supply = [ (0, 20.); (1, 30.) ] in
  let demand = [ (0, 10.); (1, 25.); (2, 15.) ] in
  let constraints =
    List.map
      (fun (i, s) ->
        c (List.init 3 (fun j -> (x i j, 1.))) Lp.Problem.Le s)
      supply
    @ List.map
        (fun (j, d) ->
          c (List.init 2 (fun i -> (x i j, 1.))) Lp.Problem.Eq d)
        demand
  in
  let p =
    Lp.Problem.create ~sense:Lp.Problem.Minimize ~n_vars:6 ~objective:costs
      ~constraints ()
  in
  let s = solve p in
  check_float "transportation optimum" 465. s.objective

let test_moderate_random_lp_stress () =
  (* A denser random-but-fixed LP exercises many pivots; we only assert
     solver self-consistency (feasible point, objective match). *)
  let rng = Prng.Rng.create ~seed:123 in
  for _ = 1 to 10 do
    let n = 12 and m = 18 in
    let constraints =
      List.init m (fun _ ->
          let coeffs =
            List.init n (fun v -> (v, Prng.Rng.uniform_range rng 0.05 1.))
          in
          c coeffs Lp.Problem.Le (Prng.Rng.uniform_range rng 1. 5.))
    in
    let objective =
      Array.init n (fun _ -> Prng.Rng.uniform_range rng 0.1 1.)
    in
    let p = Lp.Problem.create ~n_vars:n ~objective ~constraints () in
    match Lp.Simplex.solve p with
    | Lp.Simplex.Optimal s ->
        Alcotest.(check bool) "feasible" true (Lp.Problem.is_feasible p s.x);
        Alcotest.(check (float 1e-5)) "objective consistent"
          (Lp.Problem.objective_value p s.x)
          s.objective
    | _ -> Alcotest.fail "random positive LP must be optimal"
  done

(* Random LPs: verify the returned point is feasible and that its objective
   matches the claimed optimum; verify optimality against a brute-force
   scan of constraint-intersection vertices in 2-D. *)

let random_lp_gen =
  QCheck2.Gen.(
    let* n_cons = int_range 1 5 in
    let* rows =
      list_size (pure n_cons)
        (triple (float_range 0.1 1.) (float_range 0.1 1.) (float_range 0.5 2.))
    in
    let* obj = pair (float_range 0.1 1.) (float_range 0.1 1.) in
    pure (rows, obj))

let prop_simplex_feasible_and_consistent =
  QCheck2.Test.make ~name:"simplex point feasible, objective consistent"
    ~count:200 random_lp_gen (fun (rows, (c0, c1)) ->
      let constraints =
        List.map (fun (a, b, r) -> c [ (0, a); (1, b) ] Lp.Problem.Le r) rows
      in
      let p =
        Lp.Problem.create ~n_vars:2 ~objective:[| c0; c1 |] ~constraints ()
      in
      match Lp.Simplex.solve p with
      | Lp.Simplex.Optimal s ->
          Lp.Problem.is_feasible p s.x
          && Float.abs (Lp.Problem.objective_value p s.x -. s.objective)
             <= 1e-6
      | Lp.Simplex.Infeasible -> false (* origin is always feasible *)
      | Lp.Simplex.Unbounded -> false (* all coefficients positive *))

let prop_simplex_2d_optimal =
  QCheck2.Test.make ~name:"simplex beats vertex enumeration in 2-D"
    ~count:200 random_lp_gen (fun (rows, (c0, c1)) ->
      let constraints =
        List.map (fun (a, b, r) -> c [ (0, a); (1, b) ] Lp.Problem.Le r) rows
      in
      let p =
        Lp.Problem.create ~n_vars:2 ~objective:[| c0; c1 |] ~constraints ()
      in
      match Lp.Simplex.solve p with
      | Lp.Simplex.Optimal s ->
          (* Enumerate all pairwise constraint intersections plus axis
             intercepts; the optimum of a bounded 2-D LP is one of them. *)
          let rows_arr = Array.of_list rows in
          let candidates = ref [ (0., 0.) ] in
          let n = Array.length rows_arr in
          for i = 0 to n - 1 do
            let ai, bi, ri = rows_arr.(i) in
            candidates := (ri /. ai, 0.) :: (0., ri /. bi) :: !candidates;
            for j = i + 1 to n - 1 do
              let aj, bj, rj = rows_arr.(j) in
              let det = (ai *. bj) -. (aj *. bi) in
              if Float.abs det > 1e-9 then begin
                let x = ((ri *. bj) -. (rj *. bi)) /. det in
                let y = ((ai *. rj) -. (aj *. ri)) /. det in
                candidates := (x, y) :: !candidates
              end
            done
          done;
          let best =
            List.fold_left
              (fun acc (x, y) ->
                if x >= -1e-9 && y >= -1e-9
                   && Lp.Problem.is_feasible p [| x; y |]
                then Float.max acc ((c0 *. x) +. (c1 *. y))
                else acc)
              0. !candidates
          in
          s.objective >= best -. 1e-5
      | _ -> false)

(* Simplex obs counters: a solve that needs phase 1 (an equality
   constraint forces an artificial basis) must record pivots and phase-1
   iterations; a degenerate vertex must land on the degenerate-pivot
   counter. Counter totals are deterministic, but asserting > 0 keeps the
   test robust to pivoting-rule changes. *)
let test_simplex_counters () =
  let was_enabled = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled false;
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ();
      Obs.Metrics.set_enabled was_enabled)
  @@ fun () ->
  (* Equality constraint -> artificial variable -> phase-1 work. *)
  let p =
    Lp.Problem.create ~n_vars:2 ~objective:[| 1.; 1. |]
      ~constraints:[ c [ (0, 1.); (1, 1.) ] Eq 2.; c [ (0, 1.) ] Le 1. ]
      ()
  in
  ignore (solve p);
  (* Degenerate vertex: two constraints active at the same point. *)
  let d =
    Lp.Problem.create ~n_vars:2 ~objective:[| 1.; 1. |]
      ~constraints:
        [ c [ (0, 1.) ] Le 1.; c [ (0, 1.); (1, 1.) ] Le 1.;
          c [ (1, 1.) ] Le 1. ]
      ()
  in
  ignore (solve d);
  Obs.Metrics.set_enabled false;
  let snap = Obs.Metrics.snapshot () in
  let v name = Obs.Metrics.Snapshot.counter_value snap name in
  Alcotest.(check bool) "pivots counted" true (v "simplex.pivots" > 0);
  Alcotest.(check bool) "phase-1 iterations counted" true
    (v "simplex.phase1_iterations" > 0);
  Alcotest.(check bool) "degenerate pivots counted" true
    (v "simplex.degenerate_pivots" > 0)

(* Beale's classic cycling LP: under pure Dantzig pricing with naive
   tie-breaking this example cycles forever at the degenerate origin.
   Forcing the Bland switchover after a single degenerate pivot
   ([~bland_after_degenerate:1]) proves the anti-cycling path terminates at
   the true optimum (-0.05 at x = (0.04, 0, 1, 0)) and lands on the
   [simplex.bland_switches] counter; the default-parameter solve and the
   revised solver must reach the same optimum. *)
let beale =
  Lp.Problem.create ~sense:Lp.Problem.Minimize ~n_vars:4
    ~objective:[| -0.75; 150.; -0.02; 6. |]
    ~constraints:
      [
        c [ (0, 0.25); (1, -60.); (2, -0.04); (3, 9.) ] Le 0.;
        c [ (0, 0.5); (1, -90.); (2, -0.02); (3, 3.) ] Le 0.;
        c [ (2, 1.) ] Le 1.;
      ]
    ()

let test_beale_bland_switchover () =
  let was_enabled = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled false;
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ();
      Obs.Metrics.set_enabled was_enabled)
  @@ fun () ->
  (match Oracles.Dense_simplex.solve ~bland_after_degenerate:1 beale with
  | Oracles.Dense_simplex.Optimal s ->
      check_float "forced-Bland optimum" (-0.05) s.objective;
      check_float "x1" 0.04 s.x.(0);
      check_float "x3" 1. s.x.(2)
  | _ -> Alcotest.fail "Beale LP must be optimal under Bland's rule");
  Obs.Metrics.set_enabled false;
  let snap = Obs.Metrics.snapshot () in
  Alcotest.(check bool) "bland switchover recorded" true
    (Obs.Metrics.Snapshot.counter_value snap "simplex.bland_switches" >= 1)

(* The oracle's other switch, the iteration budget: with the streak
   trigger out of reach, Beale's LP cycles until the phase passes its
   budget, then Bland's rule ends it, counted once. *)
let test_beale_dense_budget_switch () =
  let result, counter =
    Counters.with_metrics (fun () ->
        Oracles.Dense_simplex.solve ~bland_after_degenerate:max_int beale)
  in
  (match result with
  | Oracles.Dense_simplex.Optimal s ->
      check_float "budget-switch optimum" (-0.05) s.objective
  | _ -> Alcotest.fail "Beale LP must be optimal under Bland's rule");
  Alcotest.(check int) "one switch to Bland's rule" 1
    (counter "simplex.bland_switches")

let test_beale_default_params () =
  (match Oracles.Dense_simplex.solve beale with
  | Oracles.Dense_simplex.Optimal s ->
      check_float "dense optimum" (-0.05) s.objective
  | _ -> Alcotest.fail "dense solve of Beale LP must terminate optimal");
  match Lp.Simplex.solve beale with
  | Lp.Simplex.Optimal s -> check_float "revised optimum" (-0.05) s.objective
  | _ -> Alcotest.fail "revised solve of Beale LP must terminate optimal"

(* The revised solver's one anti-cycling rule, reached on purpose: a phase
   switches to Bland's rule once it has spent a fifth of [max_iterations].
   At 5, Dantzig pricing takes Beale's first pivot and Bland's rule the
   second, and the third iteration proves the optimum. At 4 or fewer,
   Bland's rule runs from the first iteration and needs more. *)
let test_beale_revised_bland () =
  let result, counter =
    Counters.with_metrics (fun () -> Lp.Simplex.solve ~max_iterations:5 beale)
  in
  (match result with
  | Lp.Simplex.Optimal s ->
      check_float "Bland optimum" (-0.05) s.objective;
      Array.iteri
        (fun i v -> check_float (Printf.sprintf "x%d" (i + 1)) v s.x.(i))
        [| 0.04; 0.; 1.; 0. |]
  | _ -> Alcotest.fail "Beale LP must be optimal under Bland's rule");
  Alcotest.(check int) "one switch to Bland's rule" 1
    (counter "simplex.bland_switches");
  List.iter
    (fun k ->
      Alcotest.check_raises
        (Printf.sprintf "max_iterations %d runs out" k)
        (Failure "Lp.Simplex: iteration limit exceeded")
        (fun () -> ignore (Lp.Simplex.solve ~max_iterations:k beale)))
    [ 1; 2; 3; 4 ]

(* Non-finite LP data is rejected where the problem is built, with an
   error naming the variable or the constraint. Unchecked, each of these
   reaches the simplex, which returns [Optimal]: x0 = 1.5 past a NaN
   bound, a NaN or infinite objective, or NaN coordinates. *)
let two_var ?(upper = [| 1.; 1. |]) ?(objective = [| 1.; 1. |]) ?(coef = 1.)
    ?(rhs = 1.5) () =
  Lp.Problem.create ~n_vars:2 ~objective ~upper
    ~constraints:[ c ~name:"cap" [ (0, coef); (1, 1.) ] Le rhs ]
    ()

let rejects msg build () =
  Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
      ignore (build () : Lp.Problem.t))

let non_finite_cases =
  [
    ( "NaN upper bound rejected",
      rejects "Lp.Problem.create: variable 0 has upper bound nan" (fun () ->
          two_var ~upper:[| nan; 1. |] ()) );
    ( "NaN objective coefficient rejected",
      rejects "Lp.Problem.create: variable 1 has objective coefficient nan"
        (fun () -> two_var ~objective:[| 1.; nan |] ()) );
    ( "infinite objective coefficient rejected",
      rejects "Lp.Problem.create: variable 0 has objective coefficient inf"
        (fun () -> two_var ~objective:[| infinity; 1. |] ()) );
    ( "infinite constraint coefficient rejected",
      rejects "Lp.Problem: constraint \"cap\" has coefficient inf on variable 0"
        (fun () -> two_var ~coef:infinity ()) );
    ( "NaN constraint coefficient rejected",
      rejects "Lp.Problem: constraint \"cap\" has coefficient nan on variable 0"
        (fun () -> two_var ~coef:nan ()) );
    ( "NaN rhs rejected",
      rejects "Lp.Problem: constraint \"cap\" has rhs nan" (fun () ->
          two_var ~rhs:nan ()) );
    ( "infinite upper bound stays legal",
      fun () ->
        check_float "objective" 1.5
          (solve (two_var ~upper:[| infinity; 1. |] ())).objective );
  ]

(* A row whose rhs is infinite on its binding side ([Ge] +inf, [Le] -inf,
   [Eq] at either infinity) holds at no point: cold, warm and
   branch-and-bound solves answer [Infeasible], and the dense-LU instance
   agrees. Unchecked, the cold solve failed phase 1's "cannot happen"
   assertion and the warm one returned x = inf. [Le] +inf and [Ge] -inf
   rows stay legal and bound nothing. *)
let verdict = function
  | Lp.Simplex.Optimal s -> Printf.sprintf "Optimal %h" s.objective
  | Lp.Simplex.Infeasible -> "Infeasible"
  | Lp.Simplex.Unbounded -> "Unbounded"

let infeasible_on_both ?warm_basis p =
  Alcotest.(check string) "sparse LU" "Infeasible"
    (verdict (Lp.Simplex.solve ?warm_basis p));
  Alcotest.(check string) "dense LU" "Infeasible"
    (verdict (Oracles.Dense_lu.solve ?warm_basis p))

let one_var ~sense ~coef relation rhs =
  Lp.Problem.create ~sense ~n_vars:1 ~objective:[| coef |]
    ~constraints:[ c [ (0, coef) ] relation rhs ]
    ()

let infinite_rhs_cases =
  let min_x_ge rhs = one_var ~sense:Minimize ~coef:1. Ge rhs in
  [
    ( "x >= +inf is infeasible",
      fun () -> infeasible_on_both (min_x_ge infinity) );
    ( "-x <= -inf is infeasible",
      fun () ->
        infeasible_on_both (one_var ~sense:Maximize ~coef:(-1.) Le neg_infinity)
    );
    ( "x = +-inf is infeasible",
      fun () ->
        infeasible_on_both (one_var ~sense:Maximize ~coef:1. Eq infinity);
        infeasible_on_both (one_var ~sense:Minimize ~coef:1. Eq neg_infinity) );
    ( "x >= +inf warm from x >= 1 is infeasible",
      fun () ->
        match Lp.Simplex.solve_basis (min_x_ge 1.) with
        | Lp.Simplex.Optimal _, Some warm_basis ->
            infeasible_on_both ~warm_basis (min_x_ge infinity)
        | _ -> Alcotest.fail "x >= 1 must solve with a basis" );
    ( "MILP over x0 - x1 >= +inf is infeasible",
      fun () ->
        let p =
          Lp.Problem.create ~n_vars:2 ~objective:[| 1.; 1. |] ~integer:[ 0; 1 ]
            ~constraints:[ c [ (0, 1.); (1, -1.) ] Ge infinity ]
            ()
        in
        (match Lp.Branch_bound.solve p with
        | Lp.Branch_bound.Infeasible -> ()
        | _ -> Alcotest.fail "branch and bound must answer Infeasible");
        infeasible_on_both (Lp.Problem.relax p) );
    ( "x + y <= +inf and x - y >= -inf are vacuous",
      fun () ->
        let p =
          Lp.Problem.create ~n_vars:2 ~objective:[| 1.; 1. |]
            ~constraints:
              [
                c [ (0, 1.); (1, 1.) ] Le infinity;
                c [ (0, 1.) ] Le 2.;
                c [ (1, 1.) ] Le 3.;
                c [ (0, 1.); (1, -1.) ] Ge neg_infinity;
              ]
            ()
        in
        check_float "objective" 5. (solve p).objective;
        Alcotest.(check string) "dense LU agrees"
          (verdict (Lp.Simplex.solve p))
          (verdict (Oracles.Dense_lu.solve p)) );
  ]

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    ([
      ("basic max", test_basic_max);
      ("basic min", test_basic_min);
      ("equality constraint", test_equality);
      ("infeasible", test_infeasible);
      ("unbounded", test_unbounded);
      ("lower bounds", test_lower_bounds);
      ("upper bound binding", test_upper_bound_binding);
      ("degenerate vertex", test_degenerate);
      ("redundant equalities", test_redundant_equalities);
      ("feasibility checker", test_feasibility_checker);
      ("transportation problem", test_transportation);
      ("random LP stress", test_moderate_random_lp_stress);
      ("simplex obs counters", test_simplex_counters);
      ("Beale cycling LP: Bland switchover", test_beale_bland_switchover);
      ("Beale cycling LP: default params", test_beale_default_params);
      ("Beale cycling LP: dense budget switch",
       test_beale_dense_budget_switch);
      ("Beale cycling LP: revised Bland path", test_beale_revised_bland);
      ("MILP knapsack", test_knapsack);
      ("MILP infeasible", test_milp_infeasible);
      ("MILP relaxation gap", test_milp_relaxation_gap);
      ("MILP node limit", test_milp_node_limit);
    ]
    @ non_finite_cases @ infinite_rhs_cases)
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_simplex_feasible_and_consistent; prop_simplex_2d_optimal ]
