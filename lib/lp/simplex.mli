(** Sparse revised simplex with bounded variables and warm starts.

    Solves the rational relaxation of a {!Problem.t} (integrality flags are
    ignored — use {!Branch_bound} for MILPs). A revised method:

    - the constraint matrix is stored once in CSC form
      ({!Problem.Csc}); finite upper bounds stay {e variable} bounds
      handled by the bounded-variable ratio test (including bound flips),
      never explicit rows;
    - the basis inverse is kept by a {!FACTORIZATION}. The one production
      instance, behind {!solve} and {!solve_basis}, is a {!Sparse_lu}
      factor: a Markowitz-ordered sparse LU of the basis (fill-in counted
      under [simplex.lu_fill_in], factorization work under
      [simplex.lu_flops]), updated one Forrest–Tomlin row eta per pivot
      ([simplex.ft_updates]) and refactorized {e adaptively} — after 100
      updates, on stored-factor fill growth, or on a degenerate
      replacement diagonal. [simplex.refactorizations] counts every
      instance factorization but the cold start's (its basis is the
      identity): these refactorizations and the warm installs that
      factor;
    - at installs, phase boundaries and optimal endpoints the basic
      solution is recomputed through the canonical factorization of the
      basis, one fresh sparse factorization of its columns, making the
      returned point a pure function of the final discrete basis: any
      two instances of {!Make} return bitwise-identical solutions
      whenever they pivot through the same bases (the test suite locks
      the sparse instance against a dense-LU one). A sparse factor that
      no update has touched since it was built is that factorization
      already, so it serves without a second one;
    - Dantzig pricing and a ratio test that breaks near-ties by the
      largest pivot magnitude; a phase that has spent a fifth of its
      iteration budget switches for good to Bland's rule, the one
      anti-cycling rule (counted under [simplex.bland_switches]);
    - {!solve} accepts a basis captured from a previous solve
      ([?warm_basis]) and re-optimizes with the {e dual} simplex: the
      column layout depends only on the variable count and the
      constraint-relation sequence — never the rhs or bounds — so the
      optimal basis of one yield probe (or branch-and-bound parent) is
      dual feasible for the next and usually a handful of pivots from
      optimal. A warm start on the very constraint list its basis was
      solved against (every branch-and-bound node shares its root's)
      adopts a copy of the canonical factor the basis carries and reuses
      its matrix, so it factors nothing; any other warm start factors
      the basis. Successful installs are counted under
      [simplex.warm_starts]; any mismatch or numerical trouble falls back
      to a cold start (counted under [simplex.warm_fallbacks] — the probe
      suites assert it stays 0), so warm starts can change pivot counts
      but never verdicts beyond the solver's tolerances.

    See DESIGN.md §12 and §15. *)

type solution = { objective : float; x : float array }

type result = Optimal of solution | Infeasible | Unbounded

type basis
(** A basis captured from a previous solve: which column is basic in each
    row plus the at-lower/at-upper status of every nonbasic column, tagged
    with a fingerprint of the column layout it belongs to. It also keeps
    the constraint list it was solved against, that list's CSC matrix and,
    unless the basis is numerically singular, the canonical {!Sparse_lu}
    factor of its basic columns: the one built at the optimum, or the
    solve's own factor when no update has touched it since it was built.
    An [Infeasible] warm result carries a factor only in that last case. A warm start on the physically same
    constraint list (and variable count) adopts a copy of the factor and
    reuses the matrix; the layout fingerprint alone never suffices, since
    two matrices of one shape share it. The carried factor is only ever
    copied, so the basis stays immutable and reusable across any number
    of later solves. *)

(** The basis-inverse representation the solver is parameterized over.
    [factor ~size ~col] factors the [size]×[size] basis whose column [k]
    is iterated by [col k f] as [f row value] calls, raising
    {!Sparse_lu.Singular} when it is numerically singular. [ftran] and
    [btran] solve [B x = v] and [Bᵀ y = v] in place (as
    {!Sparse_lu.ftran}/{!Sparse_lu.btran}); [ftran_entering] is [ftran]
    on the entering column of a pivot, and [update t ~pos] then replaces
    basis position [pos] by that column, returning [true] when the solver
    must refactorize now instead. [flops] and [fill_in] meter one
    factorization ([simplex.lu_flops], [simplex.lu_fill_in]).
    [export_canonical t] is [t] as the canonical sparse factorization of
    its current basis when it is that factorization (the sparse instance:
    a factor no update has touched since it was built), so the solver
    need not factor a second time to canonicalize, and [None] otherwise.
    [adopt_canonical f] is an instance factor built from a copy of such a
    factor, which a warm start installs instead of factoring its basis
    again, or [None] when the instance must factor. The dense-LU oracle
    answers [None] to both. *)
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
  val solve :
    ?max_iterations:int -> ?warm_basis:basis -> Problem.t -> result
  (** Solve the LP relaxation. [max_iterations] (default
      [max 20_000 (50 * (n + 3m))] for [n] variables and [m]
      constraints) bounds each simplex phase, and a primal phase
      switches to Bland's rule after a fifth of it; if a cold solve
      exhausts it the solver raises [Failure] (anti-hang guard, never
      observed on the test corpus) — a warm solve falls back to cold
      first. [warm_basis] must come from a problem with the same
      variable count and constraint-relation sequence (rhs, bounds and
      objective may differ); incompatible bases are silently ignored
      (cold start). A row whose rhs is infinite on its binding side
      ([Ge] [infinity], [Le] [neg_infinity], [Eq] either) makes the
      answer [Infeasible] before any pivot, cold or warm; [Le] [infinity]
      and [Ge] [neg_infinity] rows are vacuous. *)

  val solve_basis :
    ?max_iterations:int -> ?warm_basis:basis -> Problem.t ->
    result * basis option
  (** Like {!solve}, additionally returning the final basis for reuse:
      [Some b] on [Optimal] (cold or warm) and on warm-started
      [Infeasible] (the dual-feasible basis that proved infeasibility —
      still a good start for the next probe); [None] on [Unbounded], on
      cold [Infeasible] and on a row an infinite rhs makes
      unsatisfiable. *)
end

module Make (F : FACTORIZATION) : SOLVER
(** The revised simplex over the factorization [F]. *)

include SOLVER
(** The production solver, on {!Sparse_lu}. *)

val feasibility_tol : float
(** Tolerance used to declare phase-1 success, accept primal feasibility in
    the dual simplex, and clean near-zero values in the returned point. *)
