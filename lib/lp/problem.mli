(** Linear-program description.

    This is the substrate replacing the GLPK / CPLEX back-ends of the paper
    (§3.2): a plain declarative LP/MILP datatype consumed by {!Simplex} and
    {!Branch_bound}.

    Variables are indexed [0 .. n_vars-1]. Every variable carries a lower
    and an upper bound ([infinity] for "no upper bound"); lower bounds must
    be finite and non-negative in the current solver (all variables of the
    paper's MILP are in [0,1], so this costs no generality here). *)

type relation = Le | Ge | Eq

type linear_constraint = {
  name : string;
  coeffs : (int * float) list;  (** sparse (variable, coefficient) terms *)
  relation : relation;
  rhs : float;
}

type sense = Maximize | Minimize

type t = {
  n_vars : int;
  sense : sense;
  objective : float array;  (** dense objective coefficients, length n_vars *)
  constraints : linear_constraint list;
  lower : float array;
  upper : float array;
  integer : bool array;  (** true for variables with integrality constraint *)
}

val create :
  ?sense:sense ->
  ?lower:float array ->
  ?upper:float array ->
  ?integer:int list ->
  n_vars:int ->
  objective:float array ->
  constraints:linear_constraint list ->
  unit ->
  t
(** Build a problem. Defaults: [Maximize], lower bounds 0, upper bounds
    [infinity], no integer variables. Raises [Invalid_argument], naming
    the variable or the constraint, on length mismatches, negative or
    non-finite lower bounds, a NaN upper bound or [upper < lower], a
    non-finite objective or constraint coefficient, a NaN rhs, or
    out-of-range variable indices. [infinity] stays a legal upper bound,
    and an infinite rhs a legal (vacuous or unsatisfiable) row. *)

val c : ?name:string -> (int * float) list -> relation -> float -> linear_constraint
(** Constraint smart constructor: [c coeffs rel rhs]. *)

val relax : t -> t
(** Drop all integrality constraints (the rational relaxation of §3.2). *)

val is_feasible : ?tol:float -> t -> float array -> bool
(** Check bounds, constraints and (if present) integrality at a point.
    Default tolerance [1e-6]. *)

val objective_value : t -> float array -> float

(** Compressed sparse column view of the constraint matrix — the storage the
    revised {!Simplex} prices and FTRANs against. Rows are constraints in
    declaration order, columns are structural variables; duplicate variable
    mentions within a constraint are summed and exact zeros dropped, so the
    build is deterministic (same problem ⇒ same arrays). *)
module Csc : sig
  type matrix = {
    n_rows : int;
    n_cols : int;
    col_ptr : int array;  (** length [n_cols + 1]; column [j] occupies
                              [col_ptr.(j) .. col_ptr.(j+1) - 1] *)
    row_idx : int array;  (** row of each stored entry, ascending per column *)
    values : float array;
  }

  val of_problem : t -> matrix

  val iter_col : matrix -> int -> (int -> float -> unit) -> unit
  (** [iter_col m j f] calls [f row value] for each stored entry of column
      [j], in ascending row order. *)
end
