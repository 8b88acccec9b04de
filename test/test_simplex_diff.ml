(* LP differential test harness (DESIGN.md §12, §15).

   Locks the sparse revised {!Lp.Simplex} against the dense tableau oracle
   {!Oracles.Dense_simplex} on the {!Lp_gen} random families, its
   {!Lp.Sparse_lu} factorization against a dense Gaussian reference and
   golden pins of its pivot sequence, the whole solver bitwise against
   the dense-LU instance {!Oracles.Dense_lu}, and warm-started probe
   sequences against cold ones on Table-1-style instances. Pivot-count
   assertions read the lib/obs counters. *)

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

let check_vec ~ctx expected got =
  Array.iteri
    (fun i e ->
      let tol = 1e-8 *. (1. +. Float.abs e) in
      if Float.abs (e -. got.(i)) > tol then
        Alcotest.failf "%s: component %d: expected %.17g, got %.17g" ctx i e
          got.(i))
    expected

(* A fresh factor [slu] of [a]: its nnz accounting, and FTRAN and BTRAN of
   random right-hand sides against dense solves. *)
let check_fresh_factor ~ctx rng a slu =
  let m = Array.length a in
  Alcotest.(check int) (ctx ^ ": size") m (Lp.Sparse_lu.size slu);
  Alcotest.(check int)
    (ctx ^ ": nnz = basis + fill")
    (Lp.Sparse_lu.basis_nnz slu + Lp.Sparse_lu.fill_in slu)
    (Lp.Sparse_lu.nnz slu);
  Alcotest.(check int) (ctx ^ ": no updates yet") 0 (Lp.Sparse_lu.updates slu);
  let b = Array.init m (fun _ -> Prng.Rng.uniform_range rng (-2.) 2.) in
  let v = Array.copy b in
  Lp.Sparse_lu.ftran slu v;
  check_vec ~ctx:(ctx ^ " ftran") (dense_solve a b) v;
  let c = Array.init m (fun _ -> Prng.Rng.uniform_range rng (-2.) 2.) in
  let y = Array.copy c in
  Lp.Sparse_lu.btran slu y;
  check_vec ~ctx:(ctx ^ " btran") (dense_solve (transpose a) c) y

let test_sparse_lu_solves () =
  List.iter
    (fun (m, seed, density) ->
      let rng = Prng.Rng.create ~seed in
      let a = random_matrix rng m ~density in
      check_fresh_factor
        ~ctx:(Printf.sprintf "slu m=%d seed=%d" m seed)
        rng a (factor_dense_cols a))
    [ (1, 3, 1.0); (2, 4, 0.8); (5, 5, 0.5); (12, 6, 0.3); (25, 7, 0.15) ]

(* Column [p] of a factored matrix replaced by a random column kept
   diagonally heavy at row [p]: [enter_column] passes it through [slu]'s
   entering FTRAN, which both answers B^-1 col and stashes the spike, and
   returns the column and that answer; [commit] applies the
   Forrest-Tomlin update and patches the dense matrix [a] to match. *)
let enter_column rng slu m p =
  let col = Array.make m 0. in
  for i = 0 to m - 1 do
    if Prng.Rng.uniform rng < 0.4 then
      col.(i) <- Prng.Rng.uniform_range rng (-1.) 1.
  done;
  col.(p) <- Prng.Rng.uniform_range rng 4. 6.;
  let d = Array.copy col in
  Lp.Sparse_lu.ftran_entering slu d;
  (col, d)

let commit slu a p col =
  Lp.Sparse_lu.update slu ~pos:p;
  Array.iteri (fun i v -> a.(i).(p) <- v) col

let test_sparse_lu_update () =
  let m = 14 in
  let rng = Prng.Rng.create ~seed:9 in
  let a = random_matrix rng m ~density:0.3 in
  let slu = factor_dense_cols a in
  for k = 0 to 7 do
    let ctx = Printf.sprintf "slu update %d" k in
    let p = k * 5 mod m in
    let col, d = enter_column rng slu m p in
    check_vec ~ctx:(ctx ^ " entering ftran") (dense_solve a col) d;
    commit slu a p col;
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
       (Lp.Sparse_lu.factor ~size:2 ~col:(fun j f -> if j = 0 then f 0 1.));
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

(* ---- Cases the factor's incremental bookkeeping can get wrong ---------

   Hand-built matrices (row-major, r = row, c = column) whose entries are
   binary fractions, so cancellations are exact zeros. Each expected
   (flops, fill-in) is what the Markowitz rule with its (cost, column,
   row) tie-break yields on the pivot order the comment walks through; a
   miscounted column, a stale column maximum or another tie-break moves a
   pivot and changes them. [None]: the factor must raise [Singular]. *)

let bookkeeping_cases =
  [
    ( "cancel then refill",
      (* Step 0 pivots (r1, c0), and r4's c2 cancels: -1 - (-1/2)(2) = 0.
         Step 1 pivots (r3, c1) and fills r4's c2 again. Counting r4 twice
         in c2 would cost 11 flops. *)
      [|
        [| 0.; 0.; -1.; -0.5; 1. |];
        [| -1.; 0.; 2.; -1.; 0. |];
        [| 0.; 0.; 1.; 0.5; 0. |];
        [| 0.; 1.; -1.; 2.; 0. |];
        [| 0.5; -0.5; -1.; 0.; -1. |];
      |],
      Some (10, 0) );
    ( "column emptied by cancellation",
      (* c1 = 2 c0. Step 0 pivots the singleton (r1, c2), step 1 (r0, c0);
         r2's c1 then cancels, 1 - (-1)(-1) = 0, and c1 has no entry
         left. *)
      [| [| -0.5; -1.; 0. |]; [| 0.; 0.; 2. |]; [| 0.5; 1.; 0. |] |],
      None );
    ( "equal costs: column, then row",
      (* Step 0 pivots the singleton (r2, c1). At step 1 all nine entries
         cost 4: column 0 wins, and in it r0 wins by row although r1 and r3
         are larger. r3's c3 then cancels, and at step 2 (r3, c2) and
         (r1, c3) both cost 0: column 2 wins although row 1 is lower.
         Breaking ties by row first gives (6, -1); by magnitude, (8, 0). *)
      [|
        [| -0.5; 0.; -0.5; 0.5 |];
        [| 2.; 0.; 0.5; 0.5 |];
        [| 0.; -0.5; 0.; 0. |];
        [| -1.; 0.; 1.; 1. |];
      |],
      Some (7, -1) );
    ( "row singleton failing the threshold",
      (* r0 costs 0 but 1/16 < 0.1 x 1, so the singleton waits until step
         1 pivots r1 out of c0; taking it at step 0 would cost 2 flops. *)
      [| [| 0.0625; 0.; 0. |]; [| 1.; 1.; 0. |]; [| 0.; 1.; 1. |] |],
      Some (0, 0) );
  ]

let test_sparse_lu_bookkeeping () =
  List.iter
    (fun (ctx, a, expected) ->
      match (factor_dense_cols a, expected) with
      | slu, Some (flops, fill) ->
          check_fresh_factor ~ctx (Prng.Rng.create ~seed:31) a slu;
          Alcotest.(check int) (ctx ^ ": flops") flops (Lp.Sparse_lu.flops slu);
          Alcotest.(check int) (ctx ^ ": fill-in") fill
            (Lp.Sparse_lu.fill_in slu)
      | _, None -> Alcotest.failf "%s: must raise Singular" ctx
      | exception Lp.Sparse_lu.Singular ->
          if expected <> None then Alcotest.failf "%s: raised Singular" ctx)
    bookkeeping_cases

(* LP-shaped bases: unit (logical) columns at distinct rows mixed with
   sparse structural columns, each holding one of the rows no unit column
   covers plus up to four random rows, columns in random order; [value]
   draws the structural entries. *)
let lp_shaped_matrix ~value ~m ~seed =
  let rng = Prng.Rng.create ~seed in
  let pick () = value rng in
  let own = Array.init m Fun.id and cols = Array.init m Fun.id in
  Prng.Rng.shuffle rng own;
  Prng.Rng.shuffle rng cols;
  let structural = Prng.Rng.int rng (m + 1) in
  let a = Array.init m (fun _ -> Array.make m 0.) in
  Array.iteri
    (fun k j ->
      if k < structural then begin
        a.(own.(k)).(j) <- pick ();
        for _ = 1 to Prng.Rng.int rng 5 do
          a.(Prng.Rng.int rng m).(j) <- pick ()
        done
      end
      else a.(own.(k)).(j) <- 1.)
    cols;
  a

(* A few binary fractions, so eliminations cancel exactly and refill. *)
let binary_fraction =
  let fractions = [| 1.; -1.; 0.5; -0.5; 2.; -2.; 0.25; 1.5 |] in
  fun rng -> fractions.(Prng.Rng.int rng (Array.length fractions))

let norm_inf v = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0. v

(* ||a x - b||_inf. *)
let residual a x b =
  norm_inf
    (Array.mapi
       (fun i row ->
         let acc = ref (-.b.(i)) in
         Array.iteri (fun j v -> acc := !acc +. (v *. x.(j))) row;
         !acc)
       a)

(* [x] solves [a x = b] as well as a dense solve does: its residual is
   within 100x the dense solution's, plus 1e-12 (||a|| ||x|| + ||b||).
   Comparing residuals, not solutions, keeps the check independent of the
   conditioning: chains of ratio-2 entries give some of these bases
   solutions near 1e9, where two backward-stable solves can differ in
   the 8th digit of a small component. *)
let solves_like_dense a b x =
  let xd = dense_solve a b in
  let norm_a =
    Array.fold_left
      (fun acc row ->
        Float.max acc (Array.fold_left (fun s v -> s +. Float.abs v) 0. row))
      0. a
  in
  let scale = (norm_a *. norm_inf xd) +. norm_inf b in
  residual a x b <= (100. *. residual a xd b) +. (1e-12 *. scale)

let prop_lp_shaped_factor =
  QCheck2.Test.make
    ~name:"factor of LP-shaped bases: Singular or dense-like solves"
    ~count:200
    QCheck2.Gen.(pair (int_range 1 200) (int_range 0 1_000_000))
    (fun (m, seed) ->
      let a = lp_shaped_matrix ~value:binary_fraction ~m ~seed in
      match factor_dense_cols a with
      | exception Lp.Sparse_lu.Singular -> true
      | slu ->
          let rng = Prng.Rng.create ~seed in
          let b = Array.init m (fun _ -> Prng.Rng.uniform_range rng (-2.) 2.) in
          let x = Array.copy b in
          Lp.Sparse_lu.ftran slu x;
          let c = Array.init m (fun _ -> Prng.Rng.uniform_range rng (-2.) 2.) in
          let y = Array.copy c in
          Lp.Sparse_lu.btran slu y;
          solves_like_dense a b x && solves_like_dense (transpose a) c y)

(* Golden MD5 of [flops], [fill_in] and the FTRAN and BTRAN bits of 40
   LP-shaped bases with non-dyadic entries, so that the order of every sum
   shows in the last bits: BTRAN sums each L column in ascending row
   order. Computed with the factorization that rescanned the active
   submatrix at every step. *)
let factor_bits_pin = "6c34b470ea10fb170f2a68d6fd9989ed"

(* The bits of FTRAN, then BTRAN, of (1, 1/2, ..., 1/m) through [slu]. *)
let solve_bits_of slu m =
  let v = Array.init m (fun i -> 1. /. float_of_int (i + 1)) in
  let y = Array.copy v in
  Lp.Sparse_lu.ftran slu v;
  Lp.Sparse_lu.btran slu y;
  Array.map Int64.bits_of_float (Array.append v y)

let test_factor_bits_pin () =
  let b = Buffer.create 65536 in
  List.iter
    (fun m ->
      for seed = 0 to 9 do
        let value rng =
          Prng.Rng.uniform_range rng 0.5 2.
          *. if Prng.Rng.uniform rng < 0.5 then -1. else 1.
        in
        let a = lp_shaped_matrix ~value ~m ~seed in
        match factor_dense_cols a with
        | slu ->
            Buffer.add_int64_le b (Int64.of_int (Lp.Sparse_lu.flops slu));
            Buffer.add_int64_le b (Int64.of_int (Lp.Sparse_lu.fill_in slu));
            Array.iter (Buffer.add_int64_le b) (solve_bits_of slu m)
        | exception Lp.Sparse_lu.Singular -> Buffer.add_string b "singular"
      done)
    [ 50; 100; 150; 200 ];
  Alcotest.(check string) "factor bits MD5 (golden)" factor_bits_pin
    (Digest.to_hex (Digest.string (Buffer.contents b)))

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

(* ---- Pivot-sequence pins ----------------------------------------------

   Golden totals computed with the factorization that rescanned the whole
   active submatrix at every elimination step. The incremental factor
   must reproduce every factor bit for bit; [simplex.lu_flops] and
   [simplex.lu_fill_in] depend on the pivot order inside each factor, so
   these pins fail if any pivot moves, and the MD5 of the result bits
   fails if any answer does. *)

let pinned_counters =
  [ "simplex.pivots"; "simplex.refactorizations"; "simplex.lu_flops";
    "simplex.lu_fill_in" ]

let bits_md5 bits =
  let b = Buffer.create 4096 in
  List.iter (Buffer.add_int64_le b) bits;
  Digest.to_hex (Digest.string (Buffer.contents b))

let check_pins ~ctx (counts, md5) (bits, counter) =
  List.iter2
    (fun name pin ->
      Alcotest.(check int) (Printf.sprintf "%s: %s (golden)" ctx name) pin
        (counter name))
    pinned_counters counts;
  Alcotest.(check string) (ctx ^ ": result bits MD5 (golden)") md5
    (bits_md5 bits)

(* Every generator family, cold solve plus warm re-solve. Each warm
   re-solve runs on the very problem its basis was solved against and
   adopts the cold solve's canonical factor, so the factor counters count
   the cold solves' refactorizations alone. *)
let corpus_pins = ([ 466; 9; 201; 9 ], "1a773e50dcef5b7a265114a41384cd16")

let test_corpus_pivot_pins () =
  check_pins ~ctx:"lp_gen corpus" corpus_pins
    (with_metrics (fun () ->
         List.concat_map (fun (_, _, p) -> sparse_trace p)
           (Lazy.force bit_corpus)))

let paper_instance ~seed ~hosts ~services ~cov ~slack =
  Workload.Generator.generate ~rng:(Prng.Rng.create ~seed)
    { Workload.Generator.default with hosts; services; cov; slack }

(* The rational relaxation of a generated paper instance over (e, y, Y),
   the LP branch-and-bound solves at its root. *)
let relaxation ~seed ~hosts ~services ~cov ~slack =
  Lp.Problem.relax
    (fst
       (Heuristics.Milp.formulation
          (paper_instance ~seed ~hosts ~services ~cov ~slack)))

(* The same relaxation in the reduced form (e = y + z) that
   [Heuristics.Milp.relaxed_bound] and RRNZ solve. *)
let reduced_relaxation ~seed ~hosts ~services ~cov ~slack =
  fst
    (Heuristics.Milp.reduced_relaxation
       (paper_instance ~seed ~hosts ~services ~cov ~slack))

(* One cold solve of a 10x40 relaxation: bases of 669 rows, where the
   factor does most of its work. *)
let relaxation_pins =
  ([ 717; 7; 2928; 56 ], "f92e7d6e72501720c2271019124ebe05")

let test_relaxation_pivot_pins () =
  let lp = relaxation ~seed:3 ~hosts:10 ~services:40 ~cov:0.5 ~slack:0.5 in
  check_pins ~ctx:"10x40 relaxation" relaxation_pins
    (with_metrics (fun () -> result_bits (Lp.Simplex.solve lp)))

(* The same instance in reduced form: bases of 109 rows. *)
let reduced_relaxation_pins =
  ([ 286; 5; 415; 29 ], "dcae5163f62a333b0ca5c5c61ae42e15")

let test_reduced_relaxation_pivot_pins () =
  let lp =
    reduced_relaxation ~seed:3 ~hosts:10 ~services:40 ~cov:0.5 ~slack:0.5
  in
  check_pins ~ctx:"10x40 reduced relaxation" reduced_relaxation_pins
    (with_metrics (fun () -> result_bits (Lp.Simplex.solve lp)))

(* Relaxations that end in [Failure "Lp.Simplex: numerically singular
   basis"] if 16 consecutive degenerate pivots switch pricing to Bland's
   rule: Bland's ratio test ignores |alpha|, so it lets nearly dependent
   columns into the basis. The first is op 90 of perfbench lp-rounding
   at seed 106; the dense-LU instance, pivoting through the same bases,
   returns its objective bit for bit. The 20x60 one has no oracle check
   because the dense-LU instance takes over a minute on it. *)
let op90 =
  lazy (relaxation ~seed:455577334 ~hosts:10 ~services:40 ~cov:0.5 ~slack:0.5)

let objective ~ctx = function
  | Lp.Simplex.Optimal s -> s.objective
  | _ -> Alcotest.fail (ctx ^ ": relaxation must be optimal")

let test_singular_basis_regressions () =
  let check ~ctx expected result =
    Alcotest.(check int64) (ctx ^ ": objective bits")
      (Int64.bits_of_float expected)
      (Int64.bits_of_float (objective ~ctx result))
  in
  let op90 = Lazy.force op90 in
  check ~ctx:"op 90" 0x1.fae53f6d62c0cp-1 (Lp.Simplex.solve op90);
  check ~ctx:"op 90, dense-LU" 0x1.fae53f6d62c0cp-1
    (Oracles.Dense_lu.solve op90);
  check ~ctx:"seed 9, 10x40" 1.
    (Lp.Simplex.solve
       (relaxation ~seed:9 ~hosts:10 ~services:40 ~cov:0. ~slack:0.1));
  check ~ctx:"seed 2, 20x60" 1.
    (Lp.Simplex.solve
       (relaxation ~seed:2 ~hosts:20 ~services:60 ~cov:0.5 ~slack:0.5))

(* Reduced relaxations over a grid of 10x40 paper instances: every one
   solves to [Optimal] without raising, to the dense-LU instance's
   objective within 1e-12. Not bit for bit: the two factorizations round
   differently, which settles near-ties in Dantzig pricing differently,
   so on these LPs, whose optimal faces are large, the two solvers pivot
   along different paths and end on optimal vertices a few ulps apart
   (18 of these 36; the e/y relaxations of seeds 1 and 4 do the same, 5
   of 12). *)
let test_reduced_relaxation_sweep () =
  List.iter
    (fun seed ->
      List.iter
        (fun cov ->
          List.iter
            (fun slack ->
              let ctx =
                Printf.sprintf "seed %d, cov %g, slack %g" seed cov slack
              in
              let lp =
                reduced_relaxation ~seed ~hosts:10 ~services:40 ~cov ~slack
              in
              let sparse = objective ~ctx (Lp.Simplex.solve lp) in
              let dense =
                objective ~ctx:(ctx ^ ", dense-LU") (Oracles.Dense_lu.solve lp)
              in
              Alcotest.(check (float 1e-12))
                (ctx ^ ": objective = dense-LU's") dense sparse)
            [ 0.1; 0.5 ])
        [ 0.; 0.5; 1.0 ])
    [ 1; 2; 3; 4; 5; 6 ]

(* Bland's rule on a large LP, reached on purpose: with a budget of 2,000
   iterations a phase switches after 400, and op 90 still solves, to
   within 1e-9 of the default solve. *)
let test_op90_through_bland () =
  let op90 = Lazy.force op90 in
  let default = objective ~ctx:"default" (Lp.Simplex.solve op90) in
  let bland, counter =
    with_metrics (fun () -> Lp.Simplex.solve ~max_iterations:2000 op90)
  in
  Alcotest.(check int) "one switch to Bland's rule" 1
    (counter "simplex.bland_switches");
  Alcotest.(check (float 1e-9)) "objective = default solve's" default
    (objective ~ctx:"Bland" bland)

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
  let instance =
    Instance_gen.oversubscribed ~seed:5 ~nodes:3 ~services:6 ~factor:2.
  in
  let lp = Lp.Problem.relax (fst (Heuristics.Milp.formulation instance)) in
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

(* Table-1-style probe sequences: the warm-started yield search must agree
   with the cold one on the answer while spending strictly fewer pivots.
   The paper generator scales CPU need to exactly match capacity, so its
   relaxations are feasible at yield 1 and the search returns after one
   probe; these instances oversubscribe CPU twice, forcing max yield
   ~ 1/2 and a full bisection (a dozen-plus probes). *)
let probe_instances =
  lazy
    (List.map
       (fun seed ->
         (seed,
          Instance_gen.oversubscribed ~seed ~nodes:3 ~services:8 ~factor:2.))
       [ 1; 2; 3 ])

(* The warm search is the library's; the cold one runs the same probe
   schedule with every probe LP solved from scratch. *)
let run_search ~warm instance =
  let cold () =
    Heuristics.Binary_search.maximize (fun yield_floor ->
        let p, _ = Heuristics.Milp.probe_formulation instance ~yield_floor in
        match Lp.Simplex.solve p with
        | Lp.Simplex.Optimal _ -> Some ()
        | Lp.Simplex.Infeasible -> None
        | Lp.Simplex.Unbounded ->
            Alcotest.fail "a feasibility probe cannot be unbounded")
  in
  with_metrics (fun () ->
      if warm then Option.map snd (Heuristics.Milp.relaxed_yield_search instance)
      else Option.map snd (cold ()))

(* Golden (cold, warm) total pivots of each seed's search, over the
   reduced relaxation. A change that moves them on purpose updates them
   here and says why. *)
let probe_pivot_pins = [ (1, (421, 61)); (2, (357, 65)); (3, (346, 61)) ]

let test_probe_sequence_warm_vs_cold () =
  List.iter
    (fun (seed, instance) ->
      let ctx = Printf.sprintf "probe seed=%d" seed in
      let cold, cold_of = run_search ~warm:false instance in
      let warm, warm_of = run_search ~warm:true instance in
      (match (cold, warm) with
      | Some yc, Some yw ->
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

(* ---- Reduced form = e/y form ------------------------------------------

   [Heuristics.Milp.reduced_relaxation] writes e = y + z with z >= 0: a
   linear bijection onto the e/y relaxation's polytope. So the library's
   bound, its optimal point mapped back, its e-matrix and its yield search
   must agree with the e/y relaxation's. Paper instances give services a
   CPU need above a core's capacity (rows (5) that become bounds on y);
   oversubscribed ones have a bound below 1; [big_mem] halves node 0's
   memory and gives service 0 a memory requirement above it; [split_cpu]
   moves a quarter of every CPU need into the requirement, so rows (5)
   and (6) carry a requirement and a need in one dimension, which the
   generator never does. *)

type equivalence_case = {
  eq_seed : int;
  eq_oversubscribed : bool;
  eq_hosts : int;
  eq_services : int;
  eq_cov : float;
  eq_slack : float;
  eq_big_mem : bool;
  eq_split_cpu : bool;
}

let equivalence_gen =
  QCheck2.Gen.(
    let* eq_seed = int_range 0 100_000 in
    let* eq_oversubscribed = bool in
    let* eq_hosts = int_range 2 5 in
    let* eq_services = int_range 3 12 in
    let* eq_cov = oneofl [ 0.; 0.5; 1.0 ] in
    let* eq_slack = oneofl [ 0.1; 0.5; 0.9 ] in
    let* eq_big_mem = bool in
    let* eq_split_cpu = bool in
    pure
      { eq_seed; eq_oversubscribed; eq_hosts; eq_services; eq_cov; eq_slack;
        eq_big_mem; eq_split_cpu })

let print_equivalence_case c =
  Printf.sprintf "%s %dx%d seed %d cov %g slack %g%s%s"
    (if c.eq_oversubscribed then "oversubscribed" else "paper")
    c.eq_hosts c.eq_services c.eq_seed c.eq_cov c.eq_slack
    (if c.eq_big_mem then " big memory" else "")
    (if c.eq_split_cpu then " split CPU" else "")

(* [v] with its component [d] set to [x]. *)
let set_dim d v x =
  Vec.Vector.init (Vec.Vector.dim v) (fun i ->
      if i = d then x else Vec.Vector.get v i)

let both f (p : Vec.Epair.t) =
  Vec.Epair.v ~elementary:(f p.elementary) ~aggregate:(f p.aggregate)

let big_mem inst =
  let mem = Model.Service.mem_dim in
  let node0 = (Model.Instance.node inst 0).Model.Node.capacity in
  let m0 = Vec.Vector.get node0.Vec.Epair.elementary mem in
  let nodes =
    Array.init (Model.Instance.n_nodes inst) (fun h ->
        if h > 0 then Model.Instance.node inst h
        else
          Model.Node.v ~id:0
            ~capacity:(both (fun v -> set_dim mem v (m0 /. 2.)) node0))
  in
  let services =
    Array.init (Model.Instance.n_services inst) (fun j ->
        let s = Model.Instance.service inst j in
        if j > 0 then s
        else
          Model.Service.v ~id:s.id ~need:s.need
            ~requirement:
              (both (fun v -> set_dim mem v (0.75 *. m0)) s.requirement))
  in
  Model.Instance.v ~nodes ~services

let split_cpu =
  let cpu = Model.Service.cpu_dim in
  let get v = Vec.Vector.get v cpu in
  Model.Instance.map_services (fun (s : Model.Service.t) ->
      let moved r n = set_dim cpu r (get r +. (get n /. 4.)) in
      Model.Service.v ~id:s.id
        ~requirement:
          (Vec.Epair.v
             ~elementary:(moved s.requirement.elementary s.need.elementary)
             ~aggregate:(moved s.requirement.aggregate s.need.aggregate))
        ~need:(both (fun n -> set_dim cpu n (0.75 *. get n)) s.need))

let equivalence_instance c =
  let inst =
    if c.eq_oversubscribed then
      Instance_gen.oversubscribed ~seed:c.eq_seed ~nodes:c.eq_hosts
        ~services:c.eq_services ~factor:2.
    else
      paper_instance ~seed:c.eq_seed ~hosts:c.eq_hosts
        ~services:c.eq_services ~cov:c.eq_cov ~slack:c.eq_slack
  in
  let inst = if c.eq_big_mem then big_mem inst else inst in
  if c.eq_split_cpu then split_cpu inst else inst

(* The e/y relaxation's yield search: the library's probe schedule, each
   probe a cold solve of the e/y LP at the yield floor. *)
let ey_yield_search (ey : Lp.Problem.t) (m : Heuristics.Milp.mapping) =
  Heuristics.Binary_search.maximize (fun yield_floor ->
      let lower = Array.copy ey.lower in
      lower.(m.y_min) <- Float.max 0. (Float.min 1. yield_floor);
      let objective = Array.make ey.n_vars 0. in
      match Lp.Simplex.solve { ey with lower; objective } with
      | Lp.Simplex.Optimal _ -> Some ()
      | Lp.Simplex.Infeasible -> None
      | Lp.Simplex.Unbounded ->
          Alcotest.fail "a feasibility probe cannot be unbounded")

let prop_reduced_equals_ey =
  QCheck2.Test.make ~name:"reduced relaxation = e/y relaxation" ~count:60
    ~print:print_equivalence_case equivalence_gen (fun c ->
      let inst = equivalence_instance c in
      let milp, em = Heuristics.Milp.formulation inst in
      let ey = Lp.Problem.relax milp in
      let reduced, rm = Heuristics.Milp.reduced_relaxation inst in
      let bound_agrees =
        match (Lp.Simplex.solve ey, Heuristics.Milp.relaxed_bound inst) with
        | Lp.Simplex.Optimal s, Some b ->
            Float.abs (b -. s.objective)
            <= 1e-9 *. Float.max 1. (Float.abs s.objective)
        | Lp.Simplex.Infeasible, None -> true
        | _ -> false
      in
      let maps_back =
        match Lp.Simplex.solve reduced with
        | Lp.Simplex.Optimal { x; _ } ->
            let back = Array.make ey.n_vars 0. in
            for j = 0 to Model.Instance.n_services inst - 1 do
              for h = 0 to Model.Instance.n_nodes inst - 1 do
                back.(em.e j h) <- x.(rm.y j h) +. x.(rm.z j h);
                back.(em.y j h) <- x.(rm.y j h)
              done
            done;
            back.(em.y_min) <- x.(rm.y_min);
            Lp.Problem.is_feasible ey back
        | Lp.Simplex.Infeasible -> true
        | Lp.Simplex.Unbounded -> false
      in
      let e_rows_ok =
        match Heuristics.Milp.relaxed_e_matrix inst with
        | None -> true
        | Some e ->
            Array.for_all
              (fun row ->
                Array.for_all (fun p -> p >= 0.) row
                && Float.abs (Array.fold_left ( +. ) 0. row -. 1.) <= 1e-9)
              e
      in
      let searches_agree =
        match
          (Heuristics.Milp.relaxed_yield_search inst, ey_yield_search ey em)
        with
        | Some (_, yr), Some ((), ye) ->
            Float.abs (yr -. ye)
            <= 2. *. Heuristics.Binary_search.default_tolerance
        | None, None -> true
        | _ -> false
      in
      bound_agrees && maps_back && e_rows_ok && searches_agree)

(* ---- Factor adoption -------------------------------------------------

   A basis carries the canonical factor of its basic columns and the
   constraint list it was solved against. A warm start on that very list
   adopts a copy of the factor; on any other list, even a physically fresh
   copy of the same one ([List.map Fun.id]), it factors the basis. The two
   installs build the same factor bit for bit, so adopting must change
   nothing but the one factorization it saves. *)

let replace_column rng slu a p =
  commit slu a p (fst (enter_column rng slu (Array.length a) p))

(* A copy of a factor that has taken updates solves like it bit for bit;
   from then on, Forrest-Tomlin updates on either one leave the other's
   FTRAN and BTRAN bits as they were, even interleaved, and each solves
   its own matrix. *)
let test_sparse_lu_copy () =
  let m = 14 in
  let rng = Prng.Rng.create ~seed:11 in
  let a = random_matrix rng m ~density:0.3 in
  let original = factor_dense_cols a in
  List.iter (replace_column rng original a) [ 0; 5; 10 ];
  let before = solve_bits_of original m in
  let copy = Lp.Sparse_lu.copy original in
  Alcotest.(check (array int64)) "a copy solves bit for bit like its original"
    before (solve_bits_of copy m);
  let solves_own ~ctx slu a =
    let rhs = Array.init m (fun i -> float_of_int (i - 3)) in
    let v = Array.copy rhs in
    Lp.Sparse_lu.ftran slu v;
    check_vec ~ctx:(ctx ^ " ftran") (dense_solve a rhs) v
  in
  let b = Array.map Array.copy a in
  List.iter (replace_column rng copy b) [ 1; 4; 7; 10; 13 ];
  Alcotest.(check int) "the copy took 5 more updates" 8
    (Lp.Sparse_lu.updates copy);
  Alcotest.(check (array int64)) "original bits unchanged by the copy's updates"
    before (solve_bits_of original m);
  solves_own ~ctx:"updated copy" copy b;
  let copy_bits = solve_bits_of copy m in
  List.iter (replace_column rng original a) [ 2; 3; 6 ];
  Alcotest.(check (array int64)) "copy bits unchanged by the original's updates"
    copy_bits (solve_bits_of copy m);
  List.iter
    (fun p ->
      let q = (p + 5) mod m in
      let to_copy, _ = enter_column rng copy m p in
      let to_original, _ = enter_column rng original m q in
      commit copy b p to_copy;
      commit original a q to_original)
    [ 8; 11; 12 ];
  solves_own ~ctx:"interleaved copy" copy b;
  solves_own ~ctx:"interleaved original" original a

let fresh_list (p : Lp.Problem.t) =
  { p with Lp.Problem.constraints = List.map Fun.id p.Lp.Problem.constraints }

(* Warm solves of [p] from [b]: adopting on [p] itself, twice (a carried
   factor must serve any number of solves), against factoring on a fresh
   copy of its list. Returns the adopting solve's result and basis. *)
let check_adoption ~ctx b p =
  let run q = with_metrics (fun () -> Lp.Simplex.solve_basis ~warm_basis:b q) in
  let (adopted, next), a = run p in
  let (again, _), a2 = run p in
  let (factored, _), f = run (fresh_list p) in
  List.iter
    (fun (what, bits, counter) ->
      Alcotest.(check (list int64))
        (Printf.sprintf "%s: %s bits = factored bits" ctx what)
        (result_bits factored) bits;
      Alcotest.(check int)
        (Printf.sprintf "%s: %s pivots = factored pivots" ctx what)
        (f "simplex.pivots") (counter "simplex.pivots");
      Alcotest.(check int)
        (Printf.sprintf "%s: %s refactorizations = factored - 1" ctx what)
        (f "simplex.refactorizations" - 1)
        (counter "simplex.refactorizations"))
    [ ("adopted", result_bits adopted, a);
      ("adopted again", result_bits again, a2) ];
  (adopted, next)

let test_adoption_corpus () =
  List.iter
    (fun (family, seed, p) ->
      match Lp.Simplex.solve_basis p with
      | _, None -> ()
      | _, Some b ->
          let ctx =
            Printf.sprintf "%s seed=%d" (Lp_gen.family_name family) seed
          in
          ignore (check_adoption ~ctx b p))
    (Lazy.force bit_corpus)

(* The two children of a branch on the most fractional integer variable
   of [milp] at [x], built as branch-and-bound builds them: [relaxed] with
   one bound tightened, so both share its constraint list. *)
let children (milp : Lp.Problem.t) (relaxed : Lp.Problem.t) x =
  let v = ref (-1) and dist = ref 1e-6 in
  Array.iteri
    (fun j integer ->
      let d = Float.abs (x.(j) -. Float.round x.(j)) in
      if integer && d > !dist then begin
        v := j;
        dist := d
      end)
    milp.Lp.Problem.integer;
  if !v < 0 then []
  else begin
    let v = !v in
    let upper = Array.copy relaxed.Lp.Problem.upper in
    upper.(v) <- Float.floor x.(v);
    let lower = Array.copy relaxed.Lp.Problem.lower in
    lower.(v) <- Float.floor x.(v) +. 1.;
    [ { relaxed with Lp.Problem.upper }; { relaxed with Lp.Problem.lower } ]
  end

let milp_roots =
  lazy
    (List.map
       (fun seed ->
         (Printf.sprintf "milp seed=%d" seed,
          Lp_gen.generate_milp ~seed ~n_vars:6 ~n_cons:5 ()))
       [ 0; 1; 2; 3; 4; 5 ]
    @ List.map
        (fun (seed, cov) ->
          (Printf.sprintf "4x6 paper seed=%d cov=%g" seed cov,
           fst
             (Heuristics.Milp.formulation
                (paper_instance ~seed ~hosts:4 ~services:6 ~cov ~slack:0.5))))
        [ (1, 0.2); (2, 0.5); (3, 0.8) ])

(* Three levels of children below each root relaxation, each child
   warm-started from its parent's basis as branch-and-bound does. *)
let test_adoption_children () =
  let rec descend ~ctx ~depth milp relaxed b x =
    if depth > 0 then
      List.iteri
        (fun k child ->
          let ctx = Printf.sprintf "%s/%d" ctx k in
          match check_adoption ~ctx b child with
          | Lp.Simplex.Optimal s, Some next ->
              descend ~ctx ~depth:(depth - 1) milp relaxed next s.x
          | _ -> ())
        (children milp relaxed x)
  in
  List.iter
    (fun (ctx, milp) ->
      let relaxed = Lp.Problem.relax milp in
      match Lp.Simplex.solve_basis relaxed with
      | Lp.Simplex.Optimal s, Some b -> descend ~ctx ~depth:3 milp relaxed b s.x
      | _ -> Alcotest.fail (ctx ^ ": root relaxation must be optimal"))
    (Lazy.force milp_roots)

(* [p] with every coefficient rescaled: the same layout (variable count
   and relation sequence), another matrix. *)
let rescale (p : Lp.Problem.t) =
  {
    p with
    Lp.Problem.constraints =
      List.mapi
        (fun i (c : Lp.Problem.linear_constraint) ->
          {
            c with
            Lp.Problem.coeffs =
              List.map
                (fun (v, a) ->
                  (v, if (i + v) mod 2 = 0 then a *. 1.5 else a *. 0.75))
                c.Lp.Problem.coeffs;
          })
        p.Lp.Problem.constraints;
  }

(* A basis warm-starts a problem of the same layout but another matrix
   without adopting anything of its own problem: the result equals the
   dense-LU instance's, which never adopts, bit for bit, and reaches a cold
   solve's verdict and objective. *)
let test_other_matrix_not_adopted () =
  let check ~ctx b q =
    let sparse = Lp.Simplex.solve ~warm_basis:b q in
    Alcotest.(check (list int64)) (ctx ^ ": warm bits = dense-LU warm bits")
      (result_bits (Oracles.Dense_lu.solve ~warm_basis:b q))
      (result_bits sparse);
    match (sparse, Lp.Simplex.solve q) with
    | Lp.Simplex.Optimal w, Lp.Simplex.Optimal c ->
        Alcotest.(check (float (1e-9 *. Float.max 1. (Float.abs c.objective))))
          (ctx ^ ": warm objective = cold objective") c.objective w.objective
    | Lp.Simplex.Infeasible, Lp.Simplex.Infeasible
    | Lp.Simplex.Unbounded, Lp.Simplex.Unbounded ->
        ()
    | _ -> Alcotest.fail (ctx ^ ": warm and cold verdicts differ")
  in
  List.iter
    (fun (family, seed, p) ->
      match Lp.Simplex.solve_basis p with
      | _, None -> ()
      | _, Some b ->
          check
            ~ctx:(Printf.sprintf "%s seed=%d" (Lp_gen.family_name family) seed)
            b (rescale p))
    (Lazy.force bit_corpus);
  List.iter
    (fun (ctx, milp) ->
      let relaxed = Lp.Problem.relax milp in
      match Lp.Simplex.solve_basis relaxed with
      | Lp.Simplex.Optimal s, Some b ->
          List.iteri
            (fun k child ->
              check
                ~ctx:(Printf.sprintf "%s/%d rescaled" ctx k)
                b (rescale child))
            (children milp relaxed s.x)
      | _ -> Alcotest.fail (ctx ^ ": root relaxation must be optimal"))
    (Lazy.force milp_roots)

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
      ("corpus pivot-sequence pins", test_corpus_pivot_pins);
      ("10x40 relaxation pivot-sequence pins", test_relaxation_pivot_pins);
      ("10x40 reduced relaxation pivot-sequence pins",
       test_reduced_relaxation_pivot_pins);
      ("reduced relaxations agree with dense-LU",
       test_reduced_relaxation_sweep);
      ("relaxations that raised a singular basis",
       test_singular_basis_regressions);
      ("op-90 relaxation through Bland's rule", test_op90_through_bland);
      ("sparse LU bookkeeping cases", test_sparse_lu_bookkeeping);
      ("sparse LU factor bits pin", test_factor_bits_pin);
      ("sparse LU copy is independent", test_sparse_lu_copy);
      ("corpus adoption = refactorization", test_adoption_corpus);
      ("B&B child adoption = refactorization", test_adoption_children);
      ("another matrix of the same layout is not adopted",
       test_other_matrix_not_adopted);
    ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_lp_shaped_factor; prop_reduced_equals_ey ]
