(* Seeded random-LP family generator for the differential test suite
   (test_simplex_diff.ml, test_branch_bound.ml). Every family is built
   around a known witness so the feasibility class is guaranteed by
   construction, not discovered by a solver:

   - [Feasible]: constraints anchored at a random interior point x0 with
     positive slack; finite upper bounds above x0, so the LP is bounded and
     both solvers must return [Optimal].
   - [Degenerate]: as [Feasible] but with zeroed x0 coordinates and half
     the inequality rows tight at x0 — primal degeneracy at a vertex,
     where the ratio test's tie-breaks decide every pivot.
   - [Infeasible]: a feasible base plus a contradictory pair
     [a.x <= r, a.x >= r + delta] (same coefficients, delta >= 1), which no
     point satisfies regardless of bounds.
   - [Unbounded]: a feasible base over the first n-1 variables; the last
     variable appears in no constraint, has no upper bound, and carries a
     strictly positive Maximize objective coefficient.
   - [Banded]: as [Feasible], but each row draws its variables from a
     narrow window sliding with the row index — the banded structure whose
     bases reward a fill-in-aware factorization.
   - [Block_diag]: as [Feasible], but variables are split into diagonal
     blocks and every row lives inside one block (rows cycle through the
     blocks), giving disconnected basis structure.

   Generation is a pure function of the seed (lib/prng splitmix64), and
   [to_bytes] is a canonical serialization, so "same seed => same problem
   bytes" is testable literally. The sparse families reuse the dense
   families' sampling order exactly, so adding them left every existing
   (family, seed) problem byte-identical. *)

type family =
  | Feasible
  | Infeasible
  | Unbounded
  | Degenerate
  | Banded
  | Block_diag

let all_families =
  [ Feasible; Infeasible; Unbounded; Degenerate; Banded; Block_diag ]

let family_name = function
  | Feasible -> "feasible"
  | Infeasible -> "infeasible"
  | Unbounded -> "unbounded"
  | Degenerate -> "degenerate"
  | Banded -> "banded"
  | Block_diag -> "block_diag"

(* Magnitudes in [0.05, 1]: no near-zero coefficients, so generated pivots
   stay well away from the solvers' pivot tolerances. *)
let coef rng =
  let mag = Prng.Rng.uniform_range rng 0.05 1. in
  if Prng.Rng.uniform rng < 0.5 then -.mag else mag

let generate ?(density = 0.6) ~seed ~n_vars ~n_cons family =
  if n_vars < 2 then invalid_arg "Lp_gen.generate: n_vars must be >= 2";
  let rng = Prng.Rng.create ~seed in
  let n = n_vars in
  (* Witness point; the last variable is reserved as the unbounded ray. *)
  let x0 = Array.init n (fun _ -> Prng.Rng.uniform_range rng 0. 2.) in
  (match family with
  | Degenerate ->
      for v = 0 to n - 1 do
        if Prng.Rng.uniform rng < 0.5 then x0.(v) <- 0.
      done
  | Unbounded -> x0.(n - 1) <- 0.
  | Feasible | Infeasible | Banded | Block_diag -> ());
  let avail = match family with Unbounded -> n - 1 | _ -> n in
  (* Variable window of row [i]: everything for the dense families, a
     sliding band or one diagonal block for the sparse ones. [density]
     still applies inside the window. *)
  let window i =
    match family with
    | Banded ->
        let band = min avail (max 3 ((avail / 8) + 2)) in
        let lo =
          if n_cons <= 1 then 0 else i * (avail - band) / (n_cons - 1)
        in
        (lo, lo + band)
    | Block_diag ->
        let blocks = max 2 (avail / 5) in
        let bs = (avail + blocks - 1) / blocks in
        let lo = i mod blocks * bs in
        (lo, min avail (lo + bs))
    | Feasible | Infeasible | Unbounded | Degenerate -> (0, avail)
  in
  let row i =
    let lo, hi = window i in
    let coeffs = ref [] in
    for v = hi - 1 downto lo do
      if Prng.Rng.uniform rng < density then
        coeffs := (v, coef rng) :: !coeffs
    done;
    if !coeffs = [] then
      coeffs := [ (lo + Prng.Rng.int rng (hi - lo), coef rng) ];
    !coeffs
  in
  let constraints = ref [] in
  let lhs0 coeffs =
    List.fold_left (fun acc (v, a) -> acc +. (a *. x0.(v))) 0. coeffs
  in
  for i = 0 to n_cons - 1 do
    let coeffs = row i in
    let base = lhs0 coeffs in
    let name = Printf.sprintf "r%d" i in
    let tight =
      match family with Degenerate -> i mod 2 = 0 | _ -> false
    in
    let slack =
      if tight then 0. else Prng.Rng.uniform_range rng 0.1 2.
    in
    let cstr =
      if i mod 5 = 4 then Lp.Problem.c ~name coeffs Lp.Problem.Eq base
      else if i mod 2 = 0 then
        Lp.Problem.c ~name coeffs Lp.Problem.Le (base +. slack)
      else Lp.Problem.c ~name coeffs Lp.Problem.Ge (base -. slack)
    in
    constraints := cstr :: !constraints
  done;
  (match family with
  | Infeasible ->
      let k = min 3 avail in
      let a = List.init k (fun v -> (v, Prng.Rng.uniform_range rng 0.1 1.)) in
      let r = lhs0 a +. Prng.Rng.uniform rng in
      constraints :=
        Lp.Problem.c ~name:"contra_ge" a Lp.Problem.Ge
          (r +. 1. +. Prng.Rng.uniform rng)
        :: Lp.Problem.c ~name:"contra_le" a Lp.Problem.Le r
        :: !constraints
  | Feasible | Unbounded | Degenerate | Banded | Block_diag -> ());
  let lower = Array.make n 0. in
  let upper =
    Array.init n (fun v -> x0.(v) +. Prng.Rng.uniform_range rng 0.5 2.)
  in
  if family = Unbounded then upper.(n - 1) <- infinity;
  let objective = Array.init n (fun _ -> Prng.Rng.uniform_range rng (-1.) 1.) in
  if family = Unbounded then
    objective.(n - 1) <- Prng.Rng.uniform_range rng 0.5 1.;
  Lp.Problem.create ~sense:Lp.Problem.Maximize ~lower ~upper ~n_vars:n
    ~objective
    ~constraints:(List.rev !constraints) ()

(* Random bounded MILP, feasible by construction: the witness x0 is
   integral, every variable is integer with a small upper bound, and every
   constraint is anchored at x0 (tight for Eq, slack otherwise). *)
let generate_milp ?(density = 0.6) ~seed ~n_vars ~n_cons () =
  let rng = Prng.Rng.create ~seed in
  let n = n_vars in
  let upper = Array.init n (fun _ -> Float.of_int (1 + Prng.Rng.int rng 2)) in
  let x0 =
    Array.init n (fun v -> Float.of_int (Prng.Rng.int rng (1 + int_of_float upper.(v))))
  in
  let row () =
    let coeffs = ref [] in
    for v = n - 1 downto 0 do
      if Prng.Rng.uniform rng < density then
        coeffs := (v, coef rng) :: !coeffs
    done;
    if !coeffs = [] then coeffs := [ (Prng.Rng.int rng n, coef rng) ];
    !coeffs
  in
  let constraints = ref [] in
  for i = 0 to n_cons - 1 do
    let coeffs = row () in
    let base =
      List.fold_left (fun acc (v, a) -> acc +. (a *. x0.(v))) 0. coeffs
    in
    let name = Printf.sprintf "m%d" i in
    let slack = Prng.Rng.uniform_range rng 0.2 1.5 in
    let cstr =
      if i mod 4 = 3 then Lp.Problem.c ~name coeffs Lp.Problem.Eq base
      else if i mod 2 = 0 then
        Lp.Problem.c ~name coeffs Lp.Problem.Le (base +. slack)
      else Lp.Problem.c ~name coeffs Lp.Problem.Ge (base -. slack)
    in
    constraints := cstr :: !constraints
  done;
  let objective = Array.init n (fun _ -> Prng.Rng.uniform_range rng (-1.) 1.) in
  Lp.Problem.create ~sense:Lp.Problem.Maximize ~upper ~n_vars:n ~objective
    ~integer:(List.init n Fun.id)
    ~constraints:(List.rev !constraints) ()

(* Canonical, lossless serialization (hex floats): equal problems produce
   equal strings, so seed-determinism is a string comparison. *)
let to_bytes (p : Lp.Problem.t) =
  let b = Buffer.create 1024 in
  let fl x = Printf.bprintf b "%h;" x in
  Printf.bprintf b "n:%d;sense:%s;" p.Lp.Problem.n_vars
    (match p.Lp.Problem.sense with
    | Lp.Problem.Maximize -> "max"
    | Lp.Problem.Minimize -> "min");
  Buffer.add_string b "obj:";
  Array.iter fl p.Lp.Problem.objective;
  Buffer.add_string b "lo:";
  Array.iter fl p.Lp.Problem.lower;
  Buffer.add_string b "up:";
  Array.iter fl p.Lp.Problem.upper;
  Buffer.add_string b "int:";
  Array.iter (fun f -> Buffer.add_char b (if f then '1' else '0')) p.Lp.Problem.integer;
  Buffer.add_string b ";cons:";
  List.iter
    (fun (c : Lp.Problem.linear_constraint) ->
      Printf.bprintf b "[%s|%s|%h|" c.Lp.Problem.name
        (match c.Lp.Problem.relation with
        | Lp.Problem.Le -> "<="
        | Lp.Problem.Ge -> ">="
        | Lp.Problem.Eq -> "=")
        c.Lp.Problem.rhs;
      List.iter (fun (v, a) -> Printf.bprintf b "%d:%h," v a) c.Lp.Problem.coeffs;
      Buffer.add_char b ']')
    p.Lp.Problem.constraints;
  Buffer.contents b
