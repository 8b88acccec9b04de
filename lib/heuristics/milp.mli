(** The paper's MILP formulation (§3.1, Equations 1–7) and its exact /
    relaxed solutions (§3.2).

    Variables: [e_jh ∈ {0,1}] (service [j] placed on node [h]),
    [y_jh ∈ [0,1]] (yield of [j] on [h]), and the objective [Y] (minimum
    yield). Constraints: each service on exactly one node (3), yield only
    where placed (4), per-service elementary capacities (5), per-node
    aggregate capacities (6), [Y] below every service's total yield (7).

    Elementary constraints that are slack even at [e = y = 1] are omitted
    from the generated program — they cannot bind, and dropping them keeps
    the simplex tableau within reach for the instance sizes the LP-based
    algorithms are run on (DESIGN.md §3). *)

type mapping = {
  n_vars : int;
  e : int -> int -> int;  (** [e j h] is the column of e_jh *)
  y : int -> int -> int;  (** [y j h] is the column of y_jh *)
  y_min : int;  (** column of the objective variable Y *)
}

val formulation : ?integer:bool -> Model.Instance.t -> Lp.Problem.t * mapping
(** [integer] (default true) controls whether the [e_jh] carry integrality
    flags; [formulation ~integer:false] is the rational relaxation. *)

type exact = {
  solution : Vp_solver.solution;
  milp_objective : float;  (** the MILP's optimal Y *)
}

val solve_exact :
  ?node_limit:int -> Model.Instance.t -> exact option option
(** Exact branch-and-bound solution. [None] = search truncated by
    [node_limit] with no incumbent (unknown); [Some None] = proven
    infeasible; [Some (Some e)] = placement extracted from the optimal
    [e_jh], re-evaluated by water-filling (which can only improve on the
    MILP's [Y]). *)

val relaxed_bound : Model.Instance.t -> float option
(** Optimal [Y] of the rational relaxation — an upper bound on any
    placement's minimum yield (paper §3.2). [None] when even the relaxation
    is infeasible. *)

val relaxed_e_matrix : Model.Instance.t -> float array array option
(** The fractional [e_jh] matrix (J rows, H columns) of the relaxed
    solution, the input to randomized rounding. *)

val probe_formulation :
  Model.Instance.t -> yield_floor:float -> Lp.Problem.t * mapping
(** The relaxation as a {e feasibility probe} at a fixed yield floor: the
    rational formulation with a zero objective and
    [lower.(y_min) = yield_floor] (clamped to [0,1]). All probes of one
    instance share the same constraint layout and cost vector — only the
    [y_min] lower bound moves — so a basis captured from one probe
    warm-starts the next ({!Lp.Simplex.solve_basis}). *)

val relaxed_yield_search :
  Model.Instance.t -> (float array array * float) option
(** Binary search on the yield using {!probe_formulation} probes (one LP
    feasibility check per probe) instead of one maximizing LP solve.
    Returns the fractional [e_jh] matrix of the highest feasible probe and
    that probe's yield; [None] when even yield 0 is infeasible. Each probe
    re-optimizes from the previous probe's basis
    ({!Binary_search.maximize_warm}); the probe schedule is the same as a
    search of cold solves, so warm starts trade pivots, never answers (the
    differential suite locks warm-vs-cold agreement). *)
