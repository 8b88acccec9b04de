(* LP differential test harness (DESIGN.md §12, §15).

   Locks the sparse revised {!Lp.Simplex} against the dense tableau oracle
   {!Oracles.Dense_simplex} on the {!Lp_gen} random families, its
   {!Lp.Sparse_lu} factorization against a dense Gaussian reference and
   the whole solver bitwise against the dense-LU instance
   {!Oracles.Dense_lu}, and warm-started probe sequences against cold ones
   on Table-1-style instances. Pivot-count assertions read the lib/obs
   counters. *)

let with_metrics = Counters.with_metrics

let sizes = [ (4, 3); (6, 6); (9, 12) ]
let seeds = [ 0; 1; 2; 3; 4 ]

let corpus family =
  List.concat_map
    (fun (n_vars, n_cons) ->
      List.map
        (fun seed -> (seed, n_vars, n_cons,
                      Lp_gen.generate ~seed ~n_vars ~n_cons family))
        seeds)
    sizes

(* Generator determinism: same seed => byte-identical problem. *)

let test_generator_deterministic () =
  List.iter
    (fun family ->
      let gen seed = Lp_gen.generate ~seed ~n_vars:7 ~n_cons:9 family in
      let name = Lp_gen.family_name family in
      Alcotest.(check string)
        (name ^ ": same seed, same bytes")
        (Lp_gen.to_bytes (gen 42))
        (Lp_gen.to_bytes (gen 42));
      Alcotest.(check bool)
        (name ^ ": different seed, different bytes")
        false
        (Lp_gen.to_bytes (gen 42) = Lp_gen.to_bytes (gen 43)))
    Lp_gen.all_families;
  let m seed = Lp_gen.generate_milp ~seed ~n_vars:5 ~n_cons:4 () in
  Alcotest.(check string) "milp: same seed, same bytes"
    (Lp_gen.to_bytes (m 7)) (Lp_gen.to_bytes (m 7))

(* Dense-vs-revised agreement on every family. The family fixes the
   expected verdict by construction, so a solver disagreeing with the
   oracle AND the construction cannot hide. *)

let check_optimal_pair ~ctx p =
  match (Oracles.Dense_simplex.solve p, Lp.Simplex.solve p) with
  | Oracles.Dense_simplex.Optimal d, Lp.Simplex.Optimal r ->
      let scale = 1e-6 *. (1. +. Float.abs d.objective) in
      Alcotest.(check bool)
        (ctx ^ ": objectives agree")
        true
        (Float.abs (d.objective -. r.objective) <= scale);
      Alcotest.(check bool)
        (ctx ^ ": dense point feasible")
        true
        (Lp.Problem.is_feasible ~tol:1e-5 p d.x);
      Alcotest.(check bool)
        (ctx ^ ": revised point feasible")
        true
        (Lp.Problem.is_feasible ~tol:1e-5 p r.x)
  | d, r ->
      Alcotest.failf "%s: expected Optimal/Optimal, got %s/%s" ctx
        (match d with
        | Oracles.Dense_simplex.Optimal _ -> "Optimal"
        | Oracles.Dense_simplex.Infeasible -> "Infeasible"
        | Oracles.Dense_simplex.Unbounded -> "Unbounded")
        (match r with
        | Lp.Simplex.Optimal _ -> "Optimal"
        | Lp.Simplex.Infeasible -> "Infeasible"
        | Lp.Simplex.Unbounded -> "Unbounded")

let test_family_optimal family () =
  List.iter
    (fun (seed, n_vars, n_cons, p) ->
      let ctx =
        Printf.sprintf "%s seed=%d %dx%d" (Lp_gen.family_name family) seed
          n_vars n_cons
      in
      check_optimal_pair ~ctx p)
    (corpus family)

let test_family_infeasible () =
  List.iter
    (fun (seed, n_vars, n_cons, p) ->
      let ctx = Printf.sprintf "infeasible seed=%d %dx%d" seed n_vars n_cons in
      (match Oracles.Dense_simplex.solve p with
      | Oracles.Dense_simplex.Infeasible -> ()
      | _ -> Alcotest.fail (ctx ^ ": dense must report infeasible"));
      match Lp.Simplex.solve p with
      | Lp.Simplex.Infeasible -> ()
      | _ -> Alcotest.fail (ctx ^ ": revised must report infeasible"))
    (corpus Lp_gen.Infeasible)

let test_family_unbounded () =
  List.iter
    (fun (seed, n_vars, n_cons, p) ->
      let ctx = Printf.sprintf "unbounded seed=%d %dx%d" seed n_vars n_cons in
      (match Oracles.Dense_simplex.solve p with
      | Oracles.Dense_simplex.Unbounded -> ()
      | _ -> Alcotest.fail (ctx ^ ": dense must report unbounded"));
      match Lp.Simplex.solve p with
      | Lp.Simplex.Unbounded -> ()
      | _ -> Alcotest.fail (ctx ^ ": revised must report unbounded"))
    (corpus Lp_gen.Unbounded)

(* Basis round-trip: re-solving the same problem warm from its own optimal
   basis must agree with the cold solve, and the warm re-solve must not
   pivot more than the cold one. *)

let test_warm_resolve_agrees () =
  List.iter
    (fun (seed, n_vars, n_cons, p) ->
      let ctx = Printf.sprintf "warm seed=%d %dx%d" seed n_vars n_cons in
      let (cold, basis), pivots_of =
        with_metrics (fun () -> Lp.Simplex.solve_basis p)
      in
      let cold_pivots = pivots_of "simplex.pivots" in
      match cold with
      | Lp.Simplex.Optimal c ->
          let b =
            match basis with
            | Some b -> b
            | None -> Alcotest.fail (ctx ^ ": optimal solve must yield basis")
          in
          let (warm, basis'), pivots_of' =
            with_metrics (fun () -> Lp.Simplex.solve_basis ~warm_basis:b p)
          in
          (match warm with
          | Lp.Simplex.Optimal w ->
              Alcotest.(check bool)
                (ctx ^ ": warm objective agrees")
                true
                (Float.abs (w.objective -. c.objective)
                 <= 1e-6 *. (1. +. Float.abs c.objective))
          | _ -> Alcotest.fail (ctx ^ ": warm re-solve must stay optimal"));
          Alcotest.(check bool)
            (ctx ^ ": warm re-solve returns basis")
            true (basis' <> None);
          Alcotest.(check bool) (ctx ^ ": warm start recorded") true
            (pivots_of' "simplex.warm_starts" > 0);
          Alcotest.(check int)
            (ctx ^ ": no silent warm fallback")
            0
            (pivots_of' "simplex.warm_fallbacks");
          Alcotest.(check bool)
            (ctx ^ ": warm pivots <= cold pivots")
            true
            (pivots_of' "simplex.pivots" <= cold_pivots)
      | _ -> Alcotest.fail (ctx ^ ": feasible family must be optimal"))
    (corpus Lp_gen.Feasible)

(* Pivot-count regression bound: the revised solver on the largest
   generated feasible/degenerate LPs must stay within a generous pivot
   budget — a pricing or eta regression shows up as an order-of-magnitude
   blowup long before it hits the iteration guard. *)

let test_pivot_regression_bound () =
  List.iter
    (fun family ->
      let budget = 400 in
      let _, pivots_of =
        with_metrics (fun () ->
            List.iter
              (fun seed ->
                ignore
                  (Lp.Simplex.solve
                     (Lp_gen.generate ~seed ~n_vars:9 ~n_cons:12 family)))
              seeds)
      in
      let pivots = pivots_of "simplex.pivots" in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d pivots within budget %d"
           (Lp_gen.family_name family) pivots budget)
        true (pivots <= budget))
    [ Lp_gen.Feasible; Lp_gen.Degenerate ]

(* ---- Sparse_lu unit layer (DESIGN.md §15) ----------------------------

   factor/ftran/btran/update checked against an independent dense
   Gaussian-elimination reference on random diagonally-dominant sparse
   matrices. *)

let dense_solve a b =
  let m = Array.length a in
  let w = Array.init m (fun i -> Array.copy a.(i)) in
  let x = Array.copy b in
  for k = 0 to m - 1 do
    let best = ref k in
    for i = k + 1 to m - 1 do
      if Float.abs w.(i).(k) > Float.abs w.(!best).(k) then best := i
    done;
    let t = w.(k) in
    w.(k) <- w.(!best);
    w.(!best) <- t;
    let xt = x.(k) in
    x.(k) <- x.(!best);
    x.(!best) <- xt;
    for i = k + 1 to m - 1 do
      let f = w.(i).(k) /. w.(k).(k) in
      if f <> 0. then begin
        for j = k to m - 1 do
          w.(i).(j) <- w.(i).(j) -. (f *. w.(k).(j))
        done;
        x.(i) <- x.(i) -. (f *. x.(k))
      end
    done
  done;
  for k = m - 1 downto 0 do
    let acc = ref x.(k) in
    for j = k + 1 to m - 1 do
      acc := !acc -. (w.(k).(j) *. x.(j))
    done;
    x.(k) <- !acc /. w.(k).(k)
  done;
  x

let transpose a =
  let m = Array.length a in
  Array.init m (fun i -> Array.init m (fun j -> a.(j).(i)))

(* Strictly diagonally dominant, so the matrix and every column
   replacement below stay comfortably nonsingular. *)
let random_matrix rng m ~density =
  let a = Array.init m (fun _ -> Array.make m 0.) in
  for i = 0 to m - 1 do
    for j = 0 to m - 1 do
      if i <> j && Prng.Rng.uniform rng < density then
        a.(i).(j) <- Prng.Rng.uniform_range rng (-1.) 1.
    done;
    let s = Array.fold_left (fun acc v -> acc +. Float.abs v) 0. a.(i) in
    a.(i).(i) <- s +. Prng.Rng.uniform_range rng 1. 2.
  done;
  a

let factor_dense_cols a =
  let m = Array.length a in
  Lp.Sparse_lu.factor ~size:m
    ~col:(fun j f ->
      for i = 0 to m - 1 do
        if a.(i).(j) <> 0. then f i a.(i).(j)
      done)
    ()

let check_vec ~ctx expected got =
  Array.iteri
    (fun i e ->
      let tol = 1e-8 *. (1. +. Float.abs e) in
      if Float.abs (e -. got.(i)) > tol then
        Alcotest.failf "%s: component %d: expected %.17g, got %.17g" ctx i e
          got.(i))
    expected

let test_sparse_lu_solves () =
  List.iter
    (fun (m, seed, density) ->
      let ctx = Printf.sprintf "slu m=%d seed=%d" m seed in
      let rng = Prng.Rng.create ~seed in
      let a = random_matrix rng m ~density in
      let slu = factor_dense_cols a in
      Alcotest.(check int) (ctx ^ ": size") m (Lp.Sparse_lu.size slu);
      Alcotest.(check int)
        (ctx ^ ": nnz = basis + fill")
        (Lp.Sparse_lu.basis_nnz slu + Lp.Sparse_lu.fill_in slu)
        (Lp.Sparse_lu.nnz slu);
      Alcotest.(check int) (ctx ^ ": no updates yet") 0
        (Lp.Sparse_lu.updates slu);
      let b = Array.init m (fun _ -> Prng.Rng.uniform_range rng (-2.) 2.) in
      let v = Array.copy b in
      Lp.Sparse_lu.ftran slu v;
      check_vec ~ctx:(ctx ^ " ftran") (dense_solve a b) v;
      let c = Array.init m (fun _ -> Prng.Rng.uniform_range rng (-2.) 2.) in
      let y = Array.copy c in
      Lp.Sparse_lu.btran slu y;
      check_vec ~ctx:(ctx ^ " btran") (dense_solve (transpose a) c) y)
    [ (1, 3, 1.0); (2, 4, 0.8); (5, 5, 0.5); (12, 6, 0.3); (25, 7, 0.15) ]

let test_sparse_lu_update () =
  let m = 14 in
  let rng = Prng.Rng.create ~seed:9 in
  let a = random_matrix rng m ~density:0.3 in
  let slu = factor_dense_cols a in
  for k = 0 to 7 do
    let ctx = Printf.sprintf "slu update %d" k in
    let p = k * 5 mod m in
    (* New column, kept diagonally heavy at row p. *)
    let col = Array.make m 0. in
    for i = 0 to m - 1 do
      if Prng.Rng.uniform rng < 0.4 then
        col.(i) <- Prng.Rng.uniform_range rng (-1.) 1.
    done;
    col.(p) <- Prng.Rng.uniform_range rng 4. 6.;
    (* The entering FTRAN both answers B^-1 col and stashes the spike. *)
    let d = Array.copy col in
    Lp.Sparse_lu.ftran_entering slu d;
    check_vec ~ctx:(ctx ^ " entering ftran") (dense_solve a col) d;
    Lp.Sparse_lu.update slu ~pos:p;
    for i = 0 to m - 1 do
      a.(i).(p) <- col.(i)
    done;
    Alcotest.(check int) (ctx ^ ": update count") (k + 1)
      (Lp.Sparse_lu.updates slu);
    let b = Array.init m (fun _ -> Prng.Rng.uniform_range rng (-2.) 2.) in
    let v = Array.copy b in
    Lp.Sparse_lu.ftran slu v;
    check_vec ~ctx:(ctx ^ " ftran") (dense_solve a b) v;
    let c = Array.init m (fun _ -> Prng.Rng.uniform_range rng (-2.) 2.) in
    let y = Array.copy c in
    Lp.Sparse_lu.btran slu y;
    check_vec ~ctx:(ctx ^ " btran") (dense_solve (transpose a) c) y
  done

let test_sparse_lu_singular () =
  (* A zero column is singular... *)
  (try
     ignore
       (Lp.Sparse_lu.factor ~size:2
          ~col:(fun j f -> if j = 0 then f 0 1.)
          ());
     Alcotest.fail "zero column must raise Singular"
   with Lp.Sparse_lu.Singular -> ());
  (* ... as is a duplicated column, whatever its magnitude ... *)
  (let rng = Prng.Rng.create ~seed:21 in
   let a = random_matrix rng 6 ~density:0.5 in
   for i = 0 to 5 do
     a.(i).(1) <- a.(i).(0)
   done;
   try
     ignore (factor_dense_cols a);
     Alcotest.fail "duplicate column must raise Singular"
   with Lp.Sparse_lu.Singular -> ());
  (* ... but a well-conditioned matrix scaled down to 1e-12 is NOT: the
     singularity threshold is relative to each column's magnitude (the
     absolute-threshold regression this PR fixes). *)
  let rng = Prng.Rng.create ~seed:22 in
  let a = random_matrix rng 8 ~density:0.4 in
  let scaled = Array.map (Array.map (fun v -> v *. 1e-12)) a in
  let slu = factor_dense_cols scaled in
  let b = Array.init 8 (fun _ -> Prng.Rng.uniform_range rng (-1.) 1.) in
  let v = Array.copy b in
  Lp.Sparse_lu.ftran slu v;
  Array.iteri
    (fun i e ->
      let tol = 1e-6 *. (1. +. Float.abs e) in
      if Float.abs (e -. v.(i)) > tol then
        Alcotest.failf "scaled ftran: component %d: expected %g, got %g" i e
          v.(i))
    (dense_solve scaled b)

(* ---- Factorization-backend bit-identity ------------------------------

   The Markowitz/Forrest-Tomlin instance ({!Lp.Simplex}) and the dense-LU
   + eta-file instance ({!Oracles.Dense_lu}) must return bitwise-identical
   results — verdict, objective and every coordinate, cold and warm — on
   every generator family, because both pivot through the same discrete
   bases and the final point is recomputed through one canonical
   factorization. Pool fan-out must not change a single bit either. *)

let result_bits = function
  | Lp.Simplex.Infeasible -> [ 1L ]
  | Lp.Simplex.Unbounded -> [ 2L ]
  | Lp.Simplex.Optimal { objective; x } ->
      3L
      :: Int64.bits_of_float objective
      :: Array.to_list (Array.map Int64.bits_of_float x)

(* One problem's full discrete trace under [solver]: cold solve, then a
   warm re-solve from the captured basis when one exists. *)
let solve_trace (module Solver : Lp.Simplex.SOLVER) p =
  let result, basis = Solver.solve_basis p in
  result_bits result
  @
  match basis with
  | None -> [ 0L ]
  | Some b -> 4L :: result_bits (Solver.solve ~warm_basis:b p)

let sparse_trace = solve_trace (module Lp.Simplex)
let dense_lu_trace = solve_trace (module Oracles.Dense_lu)

let bit_corpus =
  lazy
    (List.concat_map
       (fun family ->
         List.map (fun (s, _, _, p) -> (family, s, p)) (corpus family))
       Lp_gen.all_families)

let test_backend_bit_identity () =
  List.iter
    (fun (family, seed, p) ->
      let sparse = sparse_trace p in
      let dense_lu = dense_lu_trace p in
      Alcotest.(check (list int64))
        (Printf.sprintf "%s seed=%d: sparse-LU bits = dense-LU bits"
           (Lp_gen.family_name family) seed)
        dense_lu sparse)
    (Lazy.force bit_corpus)

let test_backend_bit_identity_pools () =
  let input =
    Array.of_list (List.map (fun (_, _, p) -> p) (Lazy.force bit_corpus))
  in
  let traces trace =
    List.map
      (fun domains ->
        Par.Pool.with_pool ~domains (fun pool ->
            Par.Pool.map pool input trace))
      [ 1; 2; 4 ]
  in
  let check_equal ~ctx = function
    | reference :: rest ->
        List.iter
          (fun t ->
            Alcotest.(check bool) ctx true (t = (reference : int64 list array)))
          rest;
        reference
    | [] -> assert false
  in
  let sparse =
    check_equal ~ctx:"sparse traces pool-size invariant" (traces sparse_trace)
  in
  let dense_lu =
    check_equal ~ctx:"dense-LU traces pool-size invariant"
      (traces dense_lu_trace)
  in
  Alcotest.(check bool) "sparse = dense-LU at every pool size" true
    (sparse = dense_lu)

(* The Markowitz ordering's payoff as the work counters see it: on a
   banded LP, a cold solve plus three warm re-solves from its optimal
   basis take at most half the factorization flops of the dense-LU
   instance pivoting through the same bases. *)
let test_sparse_lu_flops_vs_dense () =
  let p = Lp_gen.generate ~seed:0 ~n_vars:80 ~n_cons:60 Lp_gen.Banded in
  let flops (module Solver : Lp.Simplex.SOLVER) =
    let (), counter =
      with_metrics (fun () ->
          match Solver.solve_basis p with
          | _, Some b ->
              for _ = 1 to 3 do
                ignore (Solver.solve ~warm_basis:b p)
              done
          | _, None -> Alcotest.fail "banded LP must yield a basis")
    in
    counter "simplex.lu_flops"
  in
  let sparse = flops (module Lp.Simplex) in
  let dense = flops (module Oracles.Dense_lu) in
  Alcotest.(check bool)
    (Printf.sprintf "2 x sparse-LU %d flops <= dense-LU %d flops" sparse dense)
    true
    (2 * sparse <= dense)

(* Table-1-style probe sequences: the warm-started yield search must agree
   with the cold one on the answer while spending strictly fewer pivots.
   The paper generator scales CPU need to exactly match capacity, so its
   relaxations are feasible at yield 1 and the search returns after one
   probe; these hand-built instances oversubscribe CPU by [factor], forcing
   max yield ~ 1/factor and a full bisection (a dozen-plus probes). *)

let oversubscribed ~seed ~nodes:n_nodes ~services:n_services ~factor =
  let rng = Prng.Rng.create ~seed in
  let nodes =
    Array.init n_nodes (fun id ->
        Model.Node.make_cores ~id ~cores:4
          ~cpu:(Prng.Rng.uniform_range rng 1.5 2.5)
          ~mem:1.0)
  in
  let total_cpu =
    Array.fold_left
      (fun acc (nd : Model.Node.t) ->
        acc +. Vec.Vector.get nd.capacity.Vec.Epair.aggregate 0)
      0. nodes
  in
  let per_service = factor *. total_cpu /. Float.of_int n_services in
  let services =
    Array.init n_services (fun id ->
        let agg = per_service *. Prng.Rng.uniform_range rng 0.7 1.3 in
        Model.Service.make_2d ~id
          ~mem_req:(Prng.Rng.uniform_range rng 0.05 0.15)
          ~cpu_need:(agg /. 2., agg) ())
  in
  Model.Instance.v ~nodes ~services

(* ---- Relative-singularity regression (the Lu.factor 1e-11 bugfix) ----

   Scale every constraint row of a Table-1-style relaxation down by 1e-12:
   the feasible region is untouched, but every structural basis column's
   magnitude drops to ~1e-12. The old absolute threshold declared such
   bases singular at warm install and silently fell back to a cold solve;
   the relative threshold must warm-start them — zero fallbacks — and
   reproduce the cold objective. *)

let scale_rows s (p : Lp.Problem.t) =
  {
    p with
    Lp.Problem.constraints =
      List.map
        (fun (c : Lp.Problem.linear_constraint) ->
          {
            c with
            Lp.Problem.coeffs =
              List.map (fun (v, a) -> (v, a *. s)) c.Lp.Problem.coeffs;
            rhs = c.Lp.Problem.rhs *. s;
          })
        p.Lp.Problem.constraints;
  }

let test_scaled_rows_warm_start () =
  let instance = oversubscribed ~seed:5 ~nodes:3 ~services:6 ~factor:2. in
  let lp, _ = Heuristics.Milp.formulation ~integer:false instance in
  let p = scale_rows 1e-12 lp in
  let (cold, basis), _ = with_metrics (fun () -> Lp.Simplex.solve_basis p) in
  let cobj =
    match cold with
    | Lp.Simplex.Optimal c -> c.objective
    | _ -> Alcotest.fail "scaled relaxation must stay optimal"
  in
  let b =
    match basis with
    | Some b -> b
    | None -> Alcotest.fail "scaled cold solve must yield a basis"
  in
  let (warm, _), counters =
    with_metrics (fun () -> Lp.Simplex.solve_basis ~warm_basis:b p)
  in
  (match warm with
  | Lp.Simplex.Optimal w ->
      Alcotest.(check (float 1e-6)) "scaled warm objective = cold" cobj
        w.objective
  | _ -> Alcotest.fail "scaled warm re-solve must stay optimal");
  Alcotest.(check int) "scaled warm: zero fallbacks" 0
    (counters "simplex.warm_fallbacks");
  Alcotest.(check bool) "scaled warm: warm start recorded" true
    (counters "simplex.warm_starts" > 0)

let probe_instances =
  lazy
    (List.map
       (fun seed ->
         (seed, oversubscribed ~seed ~nodes:3 ~services:8 ~factor:2.))
       [ 1; 2; 3 ])

let run_search ~warm instance =
  with_metrics (fun () -> Heuristics.Milp.relaxed_yield_search ~warm instance)

(* Golden (cold, warm) total pivots of each seed's search. A change that
   moves them on purpose updates them here and says why. *)
let probe_pivot_pins = [ (1, (515, 82)); (2, (557, 91)); (3, (514, 81)) ]

let test_probe_sequence_warm_vs_cold () =
  List.iter
    (fun (seed, instance) ->
      let ctx = Printf.sprintf "probe seed=%d" seed in
      let cold, cold_of = run_search ~warm:false instance in
      let warm, warm_of = run_search ~warm:true instance in
      (match (cold, warm) with
      | Some (_, yc), Some (_, yw) ->
          Alcotest.(check bool)
            (ctx ^ ": warm and cold yields agree")
            true
            (Float.abs (yc -. yw)
             <= 2. *. Heuristics.Binary_search.default_tolerance)
      | None, None -> ()
      | _ -> Alcotest.fail (ctx ^ ": warm and cold verdicts differ"));
      Alcotest.(check bool) (ctx ^ ": warm starts recorded") true
        (warm_of "simplex.warm_starts" > 0);
      Alcotest.(check int)
        (ctx ^ ": no silent warm fallback")
        0
        (warm_of "simplex.warm_fallbacks");
      Alcotest.(check bool)
        (ctx ^ ": Forrest-Tomlin updates exercised")
        true
        (warm_of "simplex.ft_updates" > 0);
      Alcotest.(check bool)
        (Printf.sprintf "%s: warm pivots %d < cold pivots %d" ctx
           (warm_of "simplex.pivots") (cold_of "simplex.pivots"))
        true
        (warm_of "simplex.pivots" < cold_of "simplex.pivots");
      let cold_pin, warm_pin = List.assoc seed probe_pivot_pins in
      Alcotest.(check int) (ctx ^ ": cold pivots (golden)") cold_pin
        (cold_of "simplex.pivots");
      Alcotest.(check int) (ctx ^ ": warm pivots (golden)") warm_pin
        (warm_of "simplex.pivots"))
    (Lazy.force probe_instances)

(* Probed rounding variants: deterministic given the seed, and their
   placements are real (water-filled) solutions. *)

let test_probed_rounding_deterministic () =
  List.iter
    (fun (seed, instance) ->
      let ctx = Printf.sprintf "rounding seed=%d" seed in
      let run algo =
        match algo ~rng:(Prng.Rng.create ~seed:77) instance with
        | Some (s : Heuristics.Vp_solver.solution) -> Some s.min_yield
        | None -> None
      in
      let a = run (fun ~rng i -> Heuristics.Rounding.rrnd_probed ~rng i) in
      let b = run (fun ~rng i -> Heuristics.Rounding.rrnd_probed ~rng i) in
      Alcotest.(check bool) (ctx ^ ": rrnd-probed deterministic") true (a = b);
      let c = run (fun ~rng i -> Heuristics.Rounding.rrnz_probed ~rng i) in
      let d = run (fun ~rng i -> Heuristics.Rounding.rrnz_probed ~rng i) in
      Alcotest.(check bool) (ctx ^ ": rrnz-probed deterministic") true (c = d);
      match run (fun ~rng i -> Heuristics.Rounding.rrnz_probed ~rng i) with
      | Some y -> Alcotest.(check bool) (ctx ^ ": yield in [0,1]") true
                    (y >= 0. && y <= 1.)
      | None -> ())
    (Lazy.force probe_instances)

(* Full-search differential: the MILP yield search must return the same
   yield whether its probe LPs run on the revised solver or, cold, on the
   dense oracle — the probe schedule is {!Heuristics.Binary_search}'s
   either way. *)

let dense_yield_search instance =
  Heuristics.Binary_search.maximize (fun yield_floor ->
      let p, _ = Heuristics.Milp.probe_formulation instance ~yield_floor in
      match Oracles.Dense_simplex.solve p with
      | Oracles.Dense_simplex.Optimal _ -> Some ()
      | Oracles.Dense_simplex.Infeasible -> None
      | Oracles.Dense_simplex.Unbounded ->
          Alcotest.fail "a feasibility probe cannot be unbounded")

let test_probe_sequence_vs_dense_oracle () =
  List.iter
    (fun (seed, instance) ->
      let ctx = Printf.sprintf "probe-vs-dense seed=%d" seed in
      match
        (Heuristics.Milp.relaxed_yield_search instance,
         dense_yield_search instance)
      with
      | Some (_, yr), Some ((), yd) ->
          Alcotest.(check bool)
            (ctx ^ ": revised and dense yields agree")
            true
            (Float.abs (yr -. yd)
             <= 2. *. Heuristics.Binary_search.default_tolerance)
      | None, None -> ()
      | _ -> Alcotest.fail (ctx ^ ": verdicts differ across solvers"))
    (Lazy.force probe_instances)

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("generator determinism", test_generator_deterministic);
      ("feasible family agrees", test_family_optimal Lp_gen.Feasible);
      ("degenerate family agrees", test_family_optimal Lp_gen.Degenerate);
      ("banded family agrees", test_family_optimal Lp_gen.Banded);
      ("block-diagonal family agrees", test_family_optimal Lp_gen.Block_diag);
      ("infeasible family agrees", test_family_infeasible);
      ("unbounded family agrees", test_family_unbounded);
      ("warm re-solve agrees", test_warm_resolve_agrees);
      ("pivot regression bound", test_pivot_regression_bound);
      ("sparse LU solves", test_sparse_lu_solves);
      ("sparse LU Forrest-Tomlin update", test_sparse_lu_update);
      ("sparse LU singularity thresholds", test_sparse_lu_singular);
      ("backend bit identity", test_backend_bit_identity);
      ("backend bit identity under pools", test_backend_bit_identity_pools);
      ("scaled rows warm start", test_scaled_rows_warm_start);
      ("probe sequence warm vs cold", test_probe_sequence_warm_vs_cold);
      ("probed rounding deterministic", test_probed_rounding_deterministic);
      ("probe sequence vs dense oracle", test_probe_sequence_vs_dense_oracle);
      ("sparse LU halves dense-LU flops", test_sparse_lu_flops_vs_dense);
    ]
