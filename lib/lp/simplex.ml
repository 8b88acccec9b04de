type solution = { objective : float; x : float array }

type result = Optimal of solution | Infeasible | Unbounded

let feasibility_tol = 1e-7

let pivot_tol = 1e-9

let reduced_cost_tol = 1e-9

(* Step sizes at or below this are degenerate pivots: the basis changes but
   the point does not move. *)
let degenerate_step = 1e-9

(* Work counters (lib/obs). The first three share names with the dense
   tableau oracle the tests compare against (registration is idempotent),
   so counter assertions hold whichever solver served a solve. *)
let c_pivots = Obs.Metrics.counter "simplex.pivots"
let c_phase1_iters = Obs.Metrics.counter "simplex.phase1_iterations"
let c_degenerate = Obs.Metrics.counter "simplex.degenerate_pivots"
let c_warm = Obs.Metrics.counter "simplex.warm_starts"
let c_refactor = Obs.Metrics.counter "simplex.refactorizations"
let c_bland = Obs.Metrics.counter "simplex.bland_switches"
let c_warm_fallbacks = Obs.Metrics.counter "simplex.warm_fallbacks"
let c_ft = Obs.Metrics.counter "simplex.ft_updates"
let c_fill = Obs.Metrics.counter "simplex.lu_fill_in"
let c_lu_flops = Obs.Metrics.counter "simplex.lu_flops"

(* Nonbasic-at-lower / nonbasic-at-upper / basic, per column. *)
let st_lower = 0
let st_upper = 1
let st_basic = 2

(* A basis is only meaningful against the column layout it was captured
   from: same variable count and same constraint-relation sequence. The key
   fingerprints that layout so [solve ?warm_basis] can reject (and fall back
   to a cold start on) a basis from a structurally different problem. It
   also keeps the constraint list it was solved against, that list's CSC
   matrix and, when one exists, the fresh canonical factor of its basic
   columns: a carried factor is never updated or solved with, only copied
   into the solve that adopts it. *)
type basis = {
  bas_key : int;
  bas_m : int;
  bas_cols : int array;  (* basic column of each row *)
  bas_stat : int array;  (* status of every column *)
  bas_constraints : Problem.linear_constraint list;
  bas_csc : Problem.Csc.matrix;
  bas_lu : Sparse_lu.t option;
}

(* The layout key cannot tell two matrices of the same shape apart. The
   constraint list can: lists and their coefficients are immutable, so
   the physically same list (and variable count) is the same matrix, and
   the basis's CSC and factor are [p]'s. Every branch-and-bound node
   shares its root's list. *)
let same_matrix bz (p : Problem.t) =
  bz.bas_constraints == p.constraints
  && bz.bas_csc.Problem.Csc.n_cols = p.n_vars

let layout_key (p : Problem.t) =
  List.fold_left
    (fun acc (cstr : Problem.linear_constraint) ->
      let code =
        match cstr.relation with Problem.Le -> 1 | Ge -> 2 | Eq -> 3
      in
      ((acc * 31) + code) land 0x3FFFFFFF)
    ((p.n_vars * 131) land 0x3FFFFFFF)
    p.constraints

(* Standard form. Columns: [0, n) structural (CSC), [n, n + m) logicals
   (one +1 entry per row; bounds encode the relation), [n + m, n + 2m)
   artificials (one +1 entry; fixed at 0 outside phase 1). Lower bounds are
   shifted out of the structural variables; finite upper bounds stay
   variable bounds (never rows — this is where the dense oracle pays and
   the revised solver does not). Crucially the layout depends only on
   [n_vars] and the relation sequence, never on the rhs, so a basis carries
   over between problems that differ only in bounds/rhs (yield probes,
   branch-and-bound children). *)
type std = {
  n : int;
  m : int;
  n_cols : int;           (* n + 2m *)
  art_start : int;        (* n + m *)
  csc : Problem.Csc.matrix;
  shift : float array;    (* original lower bounds, length n *)
  b : float array;        (* rhs after shifting, length m *)
  lo : float array;       (* working bounds, length n_cols *)
  up : float array;
  cost : float array;     (* phase-2 minimization costs, length n_cols *)
}

let build ~csc (p : Problem.t) =
  let n = p.n_vars in
  let m = csc.Problem.Csc.n_rows in
  let n_cols = n + (2 * m) in
  let shift = p.lower in
  let b = Array.make m 0. in
  List.iteri
    (fun i (cstr : Problem.linear_constraint) ->
      let offset =
        List.fold_left
          (fun acc (v, coef) -> acc +. (coef *. shift.(v)))
          0. cstr.coeffs
      in
      b.(i) <- cstr.rhs -. offset)
    p.constraints;
  let lo = Array.make n_cols 0. and up = Array.make n_cols 0. in
  for v = 0 to n - 1 do
    lo.(v) <- 0.;
    up.(v) <- p.upper.(v) -. shift.(v)
  done;
  List.iteri
    (fun i (cstr : Problem.linear_constraint) ->
      let j = n + i in
      match cstr.relation with
      | Problem.Le -> lo.(j) <- 0.; up.(j) <- infinity
      | Problem.Ge -> lo.(j) <- neg_infinity; up.(j) <- 0.
      | Problem.Eq -> lo.(j) <- 0.; up.(j) <- 0.)
    p.constraints;
  (* Artificials fixed at 0; phase 1 widens exactly the ones it uses. *)
  let sign = match p.sense with Problem.Minimize -> 1. | Maximize -> -1. in
  let cost = Array.make n_cols 0. in
  for v = 0 to n - 1 do
    cost.(v) <- sign *. p.objective.(v)
  done;
  { n; m; n_cols; art_start = n + m; csc; shift; b; lo; up; cost }

(* Column access unifying CSC structural columns with the implicit unit
   columns of logicals and artificials. *)
let iter_col std j f =
  if j < std.n then Problem.Csc.iter_col std.csc j f
  else f ((j - std.n) mod std.m) 1.

let col_dot std j w =
  if j < std.n then Problem.Csc.col_dot std.csc j w
  else w.((j - std.n) mod std.m)

(* The basis-inverse representation, abstracted so the solver has one
   production instance ({!Sparse} below) and tests can instantiate others
   as differential oracles. [update] records the replacement of the basis
   column at [pos] by the column last passed through [ftran_entering] and
   answers whether the caller must refactorize now. [export_canonical]
   returns the factor as the canonical sparse factor of the current basis
   when it is one, and [adopt_canonical] makes an instance factor from a
   copy of such a factor; an instance with no sparse factor answers [None]
   to both. *)
module type FACTORIZATION = sig
  type t

  val factor : size:int -> col:(int -> (int -> float -> unit) -> unit) -> t
  val ftran : t -> float array -> unit
  val ftran_entering : t -> float array -> unit
  val btran : t -> float array -> unit
  val update : t -> pos:int -> bool
  val flops : t -> int
  val fill_in : t -> int
  val export_canonical : t -> Sparse_lu.t option
  val adopt_canonical : Sparse_lu.t -> t option
end

module type SOLVER = sig
  val solve : ?max_iterations:int -> ?warm_basis:basis -> Problem.t -> result

  val solve_basis :
    ?max_iterations:int -> ?warm_basis:basis -> Problem.t ->
    result * basis option
end

module Make (F : FACTORIZATION) = struct
  type state = {
    std : std;
    bas : int array;        (* m: basic column per row *)
    stat : int array;       (* n_cols *)
    xb : float array;       (* m: value of bas.(i) *)
    mutable lu : F.t;
    y : float array;        (* m: pricing duals, rewritten by reduced_costs *)
    d : float array;        (* n_cols: reduced costs, rewritten likewise *)
  }

  let make_state std ~bas ~stat ~xb lu =
    {
      std;
      bas;
      stat;
      xb;
      lu;
      y = Array.make std.m 0.;
      d = Array.make std.n_cols 0.;
    }

  let ftran st v = F.ftran st.lu v

  let btran st v = F.btran st.lu v

  let nb_val st j =
    if st.stat.(j) = st_upper then st.std.up.(j) else st.std.lo.(j)

  let factor_basis std bas =
    F.factor ~size:std.m ~col:(fun k f -> iter_col std bas.(k) f)

  (* A metered factorization: every one after the cold install's
     (identity) basis counts. *)
  let metered_factor std bas =
    Obs.Metrics.incr c_refactor;
    let lu = factor_basis std bas in
    Obs.Metrics.add c_lu_flops (F.flops lu);
    Obs.Metrics.add c_fill (F.fill_in lu);
    lu

  (* b - sum over nonbasic j of A_j x_j: the rhs of B xB = r. *)
  let residual st =
    let std = st.std in
    let r = Array.copy std.b in
    for j = 0 to std.n_cols - 1 do
      if st.stat.(j) <> st_basic then begin
        let v = nb_val st j in
        if v <> 0. then iter_col std j (fun i a -> r.(i) <- r.(i) -. (a *. v))
      end
    done;
    r

  (* xB = B^-1 residual, through the current factor. *)
  let compute_xb st =
    let r = residual st in
    ftran st r;
    Array.blit r 0 st.xb 0 st.std.m

  (* Called after installs, at phase boundaries and at optimal endpoints:
     xB = B^-1 residual through the canonical factor of the basis, one
     fresh sparse factorization of it, so returned points are a function
     of the final discrete basis alone, independent of the instance and
     of the update history that led here, and every instance that pivots
     through the same bases returns the same bits. Returns that factor, or
     [None] when the basis is numerically singular and xB came from the
     instance's own factor. An instance factor that exports as canonical
     is that factorization already, so it serves without a second one.
     Deliberately unmetered: only instance factorizations count as
     refactorizations. *)
  let canonicalize_xb st =
    match F.export_canonical st.lu with
    | Some _ as canonical ->
        compute_xb st;
        canonical
    | None -> (
        let std = st.std in
        let r = residual st in
        match
          Sparse_lu.factor ~size:std.m ~col:(fun k f ->
              iter_col std st.bas.(k) f)
        with
        | slu ->
            Sparse_lu.ftran slu r;
            Array.blit r 0 st.xb 0 std.m;
            Some slu
        | exception Sparse_lu.Singular ->
            compute_xb st;
            None)

  let refactor st =
    st.lu <- metered_factor st.std st.bas;
    compute_xb st

  (* Record one basis change (row [r] now holds the column last FTRANed
     by [ftran_col]), refactorizing on the instance's trigger. *)
  let push_eta st r = if F.update st.lu ~pos:r then refactor st

  (* FTRAN of column [j]. Only ever called on entering columns, each
     followed by at most one [push_eta] before the next one, so the
     instance may stash what its update needs here. *)
  let ftran_col st j =
    let v = Array.make st.std.m 0. in
    iter_col st.std j (fun i a -> v.(i) <- v.(i) +. a);
    F.ftran_entering st.lu v;
    v

  let unit_btran st r =
    let v = Array.make st.std.m 0. in
    v.(r) <- 1.;
    btran st v;
    v

  (* Reduced costs d_j = c_j - y . A_j with y = B^-T c_B, for every nonbasic
     column (basic entries 0). Recomputed from scratch each pricing round:
     O(m^2) for the BTRAN plus O(nnz) for the dot products, which the FTRAN
     of the chosen column matches anyway. Both vectors live in the solve
     state and every entry is rewritten, so pricing allocates nothing; the
     returned [st.d] is valid until the next call. *)
  let reduced_costs st cost =
    let std = st.std in
    let y = st.y and d = st.d in
    for i = 0 to std.m - 1 do
      y.(i) <- cost.(st.bas.(i))
    done;
    btran st y;
    for j = 0 to std.n_cols - 1 do
      d.(j) <-
        (if st.stat.(j) <> st_basic then cost.(j) -. col_dot std j y else 0.)
    done;
    d

  exception Iteration_limit

  type phase_outcome = P_optimal | P_unbounded

  (* Primal bounded-variable simplex on cost vector [cost]. Artificials never
     enter (their bounds are fixed outside phase 1, and inside phase 1 they
     only leave). The pivoting policy:
     - pricing is Dantzig's: the eligible column of largest |d_j|;
     - the ratio test takes the smallest step; near-ties (1e-12) go to the
       largest |alpha|, then to the smallest basic column index;
     - the one anti-cycling rule: once the phase has spent a fifth of
       [max_iterations], it switches for good to Bland's rule (the first
       eligible column, ratio ties to the smallest basic column index),
       which cannot cycle; counted under [simplex.bland_switches].
     Degenerate pivots alone never trigger the switch: Bland's ratio test
     ignores |alpha|, so entering it early lets tiny pivots into the
     basis, and the largest-|alpha| tie-break already leaves degenerate
     vertices on every LP the suite and the benchmark generate. *)
  let primal_phase st ~cost ?iters_counter ~max_iterations () =
    let std = st.std in
    let m = std.m in
    let bland_after = max_iterations / 5 in
    let iters = ref 0 in
    let bland = ref false in
    let fixed j = std.up.(j) -. std.lo.(j) <= 0. in
    let rec loop () =
      incr iters;
      (match iters_counter with
      | Some c -> Obs.Metrics.incr c
      | None -> ());
      if !iters > max_iterations then raise Iteration_limit;
      if (not !bland) && !iters > bland_after then begin
        bland := true;
        Obs.Metrics.incr c_bland
      end;
      let d = reduced_costs st cost in
      let eligible j =
        st.stat.(j) <> st_basic
        && (not (fixed j))
        && ((st.stat.(j) = st_lower && d.(j) < -.reduced_cost_tol)
           || (st.stat.(j) = st_upper && d.(j) > reduced_cost_tol))
      in
      let entering = ref (-1) and best_v = ref 0. in
      for j = 0 to std.art_start - 1 do
        if
          eligible j
          && if !bland then !entering < 0 else Float.abs d.(j) > !best_v
        then begin
          entering := j;
          best_v := Float.abs d.(j)
        end
      done;
      match !entering with
      | -1 -> P_optimal
      | j ->
          let from_lower = st.stat.(j) = st_lower in
          let dir = if from_lower then 1. else -1. in
          let d_col = ftran_col st j in
          (* Ratio test: x_j moves by t >= 0 in direction [dir]; basic i
             changes at rate -a, towards its lower bound when a > 0 and its
             upper bound when a < 0. *)
          let best = ref (-1) and best_r = ref infinity
          and best_a = ref 0. and best_bound = ref st_lower in
          for i = 0 to m - 1 do
            let a = dir *. d_col.(i) in
            let abs_a = Float.abs a in
            let l = st.bas.(i) in
            let bound = if a > 0. then std.lo.(l) else std.up.(l) in
            if abs_a > pivot_tol && Float.is_finite bound then begin
              let gap =
                if a > 0. then st.xb.(i) -. bound else bound -. st.xb.(i)
              in
              let r = gap /. abs_a in
              let r = if r < 0. then 0. else r in
              if
                r < !best_r -. 1e-12
                || (r <= !best_r +. 1e-12
                    && !best >= 0
                    && (if !bland then l < st.bas.(!best)
                       else
                         abs_a > !best_a +. 1e-12
                         || (abs_a >= !best_a -. 1e-12 && l < st.bas.(!best))))
              then begin
                best := i;
                best_r := r;
                best_a := abs_a;
                best_bound := if a > 0. then st_lower else st_upper
              end
            end
          done;
          let range = std.up.(j) -. std.lo.(j) in
          if Float.min range !best_r = infinity then P_unbounded
          else if range <= !best_r then begin
            (* Bound flip: j runs to its opposite bound, no basis change. *)
            for i = 0 to m - 1 do
              st.xb.(i) <- st.xb.(i) -. (dir *. d_col.(i) *. range)
            done;
            st.stat.(j) <- (if from_lower then st_upper else st_lower);
            loop ()
          end
          else begin
            let t = !best_r in
            let r = !best in
            for i = 0 to m - 1 do
              st.xb.(i) <- st.xb.(i) -. (dir *. d_col.(i) *. t)
            done;
            let l = st.bas.(r) in
            st.bas.(r) <- j;
            st.xb.(r) <- nb_val st j +. (dir *. t);
            st.stat.(j) <- st_basic;
            st.stat.(l) <- !best_bound;
            Obs.Metrics.incr c_pivots;
            Pivot_clock.tick ();
            if t <= degenerate_step then Obs.Metrics.incr c_degenerate;
            push_eta st r;
            loop ()
          end
    in
    loop ()

  (* Dual simplex: restore primal feasibility while keeping the (given) cost
     vector's dual feasibility — the warm-start workhorse. Leaving row by
     largest bound violation; entering by the bounded-variable dual ratio test
     (min |d_j| / |alpha_j| over sign-eligible nonbasics). *)
  let dual_phase st ~cost ~max_iterations =
    let std = st.std in
    let m = std.m in
    let iters = ref 0 in
    let fixed j = std.up.(j) -. std.lo.(j) <= 0. in
    let rec loop () =
      incr iters;
      if !iters > max_iterations then raise Iteration_limit;
      let r = ref (-1) and viol = ref feasibility_tol in
      for i = 0 to m - 1 do
        let j = st.bas.(i) in
        let v = Float.max (std.lo.(j) -. st.xb.(i)) (st.xb.(i) -. std.up.(j)) in
        if v > !viol then begin
          r := i;
          viol := v
        end
      done;
      if !r < 0 then `Feasible
      else begin
        let r = !r in
        let jl = st.bas.(r) in
        let sigma = if st.xb.(r) < std.lo.(jl) then 1. else -1. in
        let w = unit_btran st r in
        let d = reduced_costs st cost in
        let best = ref (-1) and best_ratio = ref infinity
        and best_alpha = ref 0. in
        for j = 0 to std.n_cols - 1 do
          if st.stat.(j) <> st_basic && not (fixed j) then begin
            let alpha = sigma *. col_dot std j w in
            if
              (st.stat.(j) = st_lower && alpha < -.pivot_tol)
              || (st.stat.(j) = st_upper && alpha > pivot_tol)
            then begin
              let ratio = Float.abs d.(j) /. Float.abs alpha in
              if
                ratio < !best_ratio -. 1e-12
                || (ratio <= !best_ratio +. 1e-12
                    && Float.abs alpha > Float.abs !best_alpha +. 1e-12)
              then begin
                best := j;
                best_ratio := ratio;
                best_alpha := alpha
              end
            end
          end
        done;
        if !best < 0 then `Infeasible
        else begin
          let j = !best in
          let d_col = ftran_col st j in
          let alpha_r = d_col.(r) in
          if Float.abs alpha_r < 1e-11 then
            (* BTRAN/FTRAN numerical disagreement; treat as a failed warm
               start rather than risking a wrong-direction step. *)
            raise Iteration_limit
          else begin
            let beta = if sigma > 0. then std.lo.(jl) else std.up.(jl) in
            let t = (st.xb.(r) -. beta) /. alpha_r in
            for i = 0 to m - 1 do
              st.xb.(i) <- st.xb.(i) -. (t *. d_col.(i))
            done;
            st.bas.(r) <- j;
            st.xb.(r) <- nb_val st j +. t;
            st.stat.(j) <- st_basic;
            st.stat.(jl) <- (if sigma > 0. then st_lower else st_upper);
            Obs.Metrics.incr c_pivots;
            Pivot_clock.tick ();
            if Float.abs t <= degenerate_step then Obs.Metrics.incr c_degenerate;
            push_eta st r;
            loop ()
          end
        end
      end
    in
    loop ()

  (* After phase 1, drive artificials out of the basis where a non-artificial
     pivot exists (zero-step exchange); truly redundant rows keep their
     artificial basic at 0, harmless because artificial bounds are [0,0] from
     here on. *)
  let expel_artificials st =
    let std = st.std in
    for r = 0 to std.m - 1 do
      if st.bas.(r) >= std.art_start then begin
        let w = unit_btran st r in
        let j = ref (-1) and k = ref 0 in
        while !j < 0 && !k < std.art_start do
          if st.stat.(!k) <> st_basic && Float.abs (col_dot std !k w) > 1e-7
          then j := !k;
          incr k
        done;
        if !j >= 0 then begin
          let jj = !j in
          let d_col = ftran_col st jj in
          if Float.abs d_col.(r) > 1e-9 then begin
            let art = st.bas.(r) in
            st.bas.(r) <- jj;
            st.xb.(r) <- nb_val st jj;
            st.stat.(jj) <- st_basic;
            st.stat.(art) <- st_lower;
            Obs.Metrics.incr c_pivots;
            Pivot_clock.tick ();
            Obs.Metrics.incr c_degenerate;
            push_eta st r
          end
        end
      end
    done

  (* [lu] is the canonical factor of the basis being captured, if any; the
     solve that owned it ends here, so nothing updates it afterwards. *)
  let capture ~key (p : Problem.t) st lu =
    {
      bas_key = key;
      bas_m = st.std.m;
      bas_cols = Array.copy st.bas;
      bas_stat = Array.copy st.stat;
      bas_constraints = p.constraints;
      bas_csc = st.std.csc;
      bas_lu = lu;
    }

  let extract (p : Problem.t) st =
    let std = st.std in
    let x = Array.copy p.lower in
    for v = 0 to std.n - 1 do
      if st.stat.(v) = st_upper then x.(v) <- p.upper.(v)
    done;
    for i = 0 to std.m - 1 do
      let j = st.bas.(i) in
      if j < std.n then begin
        let v = st.xb.(i) in
        let v = if Float.abs v < feasibility_tol then 0. else v in
        x.(j) <- p.lower.(j) +. v
      end
    done;
    (* Clamp tiny bound violations from floating-point drift. *)
    for v = 0 to std.n - 1 do
      if x.(v) < p.lower.(v) then x.(v) <- p.lower.(v);
      if x.(v) > p.upper.(v) then x.(v) <- p.upper.(v)
    done;
    Optimal { objective = Problem.objective_value p x; x }

  let default_iterations std = max 20_000 (50 * (std.m + std.n_cols))

  (* Phase 2 from a primal feasible basis: the optimum and its basis, or
     unboundedness. *)
  let phase2 ~key ~max_iterations (p : Problem.t) st =
    match primal_phase st ~cost:st.std.cost ~max_iterations () with
    | P_unbounded -> (Unbounded, None)
    | P_optimal ->
        let lu = canonicalize_xb st in
        (extract p st, Some (capture ~key p st lu))

  (* Cold start: classic two-phase. The initial basis is the logical of every
     row whose rhs its bounds admit, else that row's artificial widened to the
     rhs's side ([0, inf) with cost +1, or (-inf, 0] with cost -1) — the
     column layout itself never depends on the rhs. *)
  let solve_cold ~key ~max_iterations (p : Problem.t) std =
    let m = std.m in
    let stat = Array.make std.n_cols st_lower in
    for j = 0 to std.n_cols - 1 do
      if not (Float.is_finite std.lo.(j)) then stat.(j) <- st_upper
    done;
    let bas = Array.make m 0 in
    let xb = Array.make m 0. in
    let need_phase1 = ref false in
    let phase1_cost = Array.make std.n_cols 0. in
    for i = 0 to m - 1 do
      let logical = std.n + i and art = std.n + m + i in
      let bi = std.b.(i) in
      if std.lo.(logical) -. 1e-12 <= bi && bi <= std.up.(logical) +. 1e-12
      then begin
        bas.(i) <- logical;
        stat.(logical) <- st_basic
      end
      else begin
        need_phase1 := true;
        bas.(i) <- art;
        stat.(art) <- st_basic;
        if bi >= 0. then begin
          std.lo.(art) <- 0.;
          std.up.(art) <- infinity;
          phase1_cost.(art) <- 1.
        end
        else begin
          std.lo.(art) <- neg_infinity;
          std.up.(art) <- 0.;
          phase1_cost.(art) <- -1.
        end
      end;
      xb.(i) <- bi
    done;
    (* The initial basis matrix is the identity (logicals and artificials
       are unit columns), so its factorization is near-free and unmetered —
       parity with the warm path, where only genuine refactorizations tick
       the counter. *)
    let st = make_state std ~bas ~stat ~xb (factor_basis std bas) in
    if !need_phase1 then begin
      (match
         primal_phase st ~cost:phase1_cost ~iters_counter:c_phase1_iters
           ~max_iterations ()
       with
      | P_optimal -> ()
      | P_unbounded ->
          (* Phase 1 objective is bounded below by 0; cannot happen. *)
          assert false);
      (* The feasibility verdict below compares xb against a tolerance;
         canonicalize first so the verdict is a function of the discrete
         basis, not of the factor's update history. *)
      ignore (canonicalize_xb st);
      let infeas = ref 0. in
      for i = 0 to m - 1 do
        if st.bas.(i) >= std.art_start then
          infeas := !infeas +. Float.abs st.xb.(i)
      done;
      if !infeas > feasibility_tol then (Infeasible, None)
      else begin
        (* Pin every artificial back to [0,0] and clear it from the basis
           where possible before phase 2. *)
        for i = 0 to m - 1 do
          let art = std.n + m + i in
          std.lo.(art) <- 0.;
          std.up.(art) <- 0.
        done;
        expel_artificials st;
        phase2 ~key ~max_iterations p st
      end
    end
    else phase2 ~key ~max_iterations p st

  exception Incompatible_basis

  (* Warm start: install the basis, restore dual feasibility of the
     phase-2 costs by bound-flipping nonbasics where needed, then run the
     dual simplex until primal feasible (or proven infeasible) and finish
     with a primal clean-up phase. The install adopts a copy of the factor
     the basis carries when [p] is the matrix it was solved against (the
     same factorization of the same columns, so every later bit is what a
     refactorization would give) and factors the basis otherwise. Any
     structural mismatch or numerical trouble raises and the caller falls
     back to a cold start. *)
  let solve_warm ~key ~max_iterations (p : Problem.t) std (bz : basis) =
    if bz.bas_key <> key || bz.bas_m <> std.m
       || Array.length bz.bas_stat <> std.n_cols
    then raise Incompatible_basis;
    let m = std.m in
    let stat = Array.copy bz.bas_stat in
    let bas = Array.copy bz.bas_cols in
    let seen = Array.make std.n_cols false in
    Array.iter
      (fun j ->
        if j < 0 || j >= std.n_cols || seen.(j) || stat.(j) <> st_basic then
          raise Incompatible_basis;
        seen.(j) <- true)
      bas;
    let basic_count = ref 0 in
    for j = 0 to std.n_cols - 1 do
      match stat.(j) with
      | s when s = st_basic -> incr basic_count
      | s when s = st_lower ->
          if not (Float.is_finite std.lo.(j)) then raise Incompatible_basis
      | s when s = st_upper ->
          if not (Float.is_finite std.up.(j)) then raise Incompatible_basis
      | _ -> raise Incompatible_basis
    done;
    if !basic_count <> m then raise Incompatible_basis;
    let adopted =
      match bz.bas_lu with
      | Some lu when same_matrix bz p -> F.adopt_canonical lu
      | Some _ | None -> None
    in
    let lu =
      match adopted with Some lu -> lu | None -> metered_factor std bas
    in
    let st = make_state std ~bas ~stat ~xb:(Array.make m 0.) lu in
    ignore (canonicalize_xb st);
    (* Bound-flip nonbasics whose reduced cost has the wrong sign for their
       bound; a variable with no opposite finite bound cannot be repaired. *)
    let d = reduced_costs st std.cost in
    let flips = ref 0 in
    for j = 0 to std.n_cols - 1 do
      if st.stat.(j) = st_lower && d.(j) < -.feasibility_tol then begin
        if not (Float.is_finite std.up.(j)) then raise Incompatible_basis;
        st.stat.(j) <- st_upper;
        incr flips
      end
      else if st.stat.(j) = st_upper && d.(j) > feasibility_tol then begin
        if not (Float.is_finite std.lo.(j)) then raise Incompatible_basis;
        st.stat.(j) <- st_lower;
        incr flips
      end
    done;
    if !flips > 0 then ignore (canonicalize_xb st);
    Obs.Metrics.incr c_warm;
    match dual_phase st ~cost:std.cost ~max_iterations with
    | `Infeasible ->
        (* The solve's own factor rides along only while it is still
           fresh: factoring just to carry one would be wasted on
           branch-and-bound, which drops infeasible children's bases. *)
        (Infeasible, Some (capture ~key p st (F.export_canonical st.lu)))
    | `Feasible -> phase2 ~key ~max_iterations p st

  let solve_basis ?max_iterations ?warm_basis (p : Problem.t) =
    let std, key =
      match warm_basis with
      | Some bz when same_matrix bz p -> (build ~csc:bz.bas_csc p, bz.bas_key)
      | Some _ | None -> (build ~csc:(Problem.Csc.of_problem p) p, layout_key p)
    in
    let max_iterations =
      match max_iterations with
      | Some k -> k
      | None -> default_iterations std
    in
    let cold () =
      match solve_cold ~key ~max_iterations p std with
      | result -> result
      | exception Iteration_limit ->
          failwith "Lp.Simplex: iteration limit exceeded"
      | exception Sparse_lu.Singular ->
          failwith "Lp.Simplex: numerically singular basis"
    in
    match warm_basis with
    | None -> cold ()
    | Some bz -> (
        match solve_warm ~key ~max_iterations p std bz with
        | result -> result
        | exception (Incompatible_basis | Iteration_limit | Sparse_lu.Singular)
          ->
            (* The warm path never widens artificial bounds, so a cold
               start on the same [std] is safe after any warm failure.
               Counted: a nonzero [simplex.warm_fallbacks] on a probe
               sequence means warm starts are silently degrading to cold
               solves. *)
            Obs.Metrics.incr c_warm_fallbacks;
            cold ())

  let solve ?max_iterations ?warm_basis (p : Problem.t) =
    fst (solve_basis ?max_iterations ?warm_basis p)
end

(* The production instance: Markowitz sparse LU with Forrest-Tomlin
   updates, refactorized adaptively — after [ft_update_cap] updates (each
   appends one row eta), as soon as update fill pushes the stored factor
   past [fill_growth_limit] times its fresh size, or on a degenerate
   replacement diagonal, whichever a given basis sequence hits first.
   Every trigger is a pure function of the pivot sequence, so the
   refactorization schedule is deterministic. *)
module Sparse = struct
  type t = Sparse_lu.t

  let ft_update_cap = 100
  let fill_growth_limit = 3
  let factor = Sparse_lu.factor
  let ftran = Sparse_lu.ftran
  let ftran_entering = Sparse_lu.ftran_entering
  let btran = Sparse_lu.btran

  let update t ~pos =
    match Sparse_lu.update t ~pos with
    | () ->
        Obs.Metrics.incr c_ft;
        Sparse_lu.updates t >= ft_update_cap
        || Sparse_lu.nnz t
           > fill_growth_limit
             * (Sparse_lu.basis_nnz t + Sparse_lu.fill_in t + Sparse_lu.size t)
    | exception Sparse_lu.Unstable -> true

  let flops = Sparse_lu.flops
  let fill_in = Sparse_lu.fill_in

  (* A factor no update has touched since [factor] built it is the
     canonical factorization of its basis. *)
  let export_canonical t = if Sparse_lu.updates t = 0 then Some t else None
  let adopt_canonical t = Some (Sparse_lu.copy t)
end

include Make (Sparse)
