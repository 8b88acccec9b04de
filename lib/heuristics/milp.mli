(** The paper's MILP formulation (§3.1, Equations 1–7) and its exact /
    relaxed solutions (§3.2).

    Variables: [e_jh ∈ {0,1}] (service [j] placed on node [h]),
    [y_jh ∈ [0,1]] (yield of [j] on [h]), and the objective [Y] (minimum
    yield). Constraints: each service on exactly one node (3), yield only
    where placed (4), per-service elementary capacities (5), per-node
    aggregate capacities (6), [Y] below every service's total yield (7).
    Elementary constraints that are slack even at [e = y = 1] are omitted
    from both forms below — they cannot bind.

    Two forms of the same model:

    - {!formulation} builds it over [(e, y, Y)] with integral [e]. Only
      {!solve_exact} uses it: branch-and-bound branches on [e_jh], so
      every [e_jh] must be a column of its own.
    - {!reduced_relaxation} builds the rational relaxation over
      [(z, y, Y)] with [e_jh = y_jh + z_jh], [z_jh ≥ 0], a linear
      bijection onto the same polytope and so the same optimum. The J·H
      rows (4) become the bounds [z ≥ 0], and a row (5) in a dimension
      where the service has zero requirement becomes the bound
      [y_jh ≤ cᵉ/nᵉ], so the LP keeps about J + H·D + J rows instead of
      more than J·H (DESIGN.md §12). {!relaxed_bound},
      {!relaxed_e_matrix} and {!probe_formulation} solve this form. *)

type mapping = {
  n_vars : int;
  e : int -> int -> int;  (** [e j h] is the column of e_jh *)
  y : int -> int -> int;  (** [y j h] is the column of y_jh *)
  y_min : int;  (** column of the objective variable Y *)
}

val formulation : Model.Instance.t -> Lp.Problem.t * mapping
(** The MILP over [(e, y, Y)], the [e_jh] flagged integral.
    [Lp.Problem.relax] of it is the relaxation in the same variables. *)

type reduced = {
  z : int -> int -> int;  (** [z j h] is the column of z_jh = e_jh − y_jh *)
  y : int -> int -> int;  (** [y j h] is the column of y_jh *)
  y_min : int;  (** column of the objective variable Y *)
}
(** Columns of {!reduced_relaxation}: the layout of {!mapping} with
    [z_jh] in [e_jh]'s column. *)

val reduced_relaxation : Model.Instance.t -> Lp.Problem.t * reduced
(** The rational relaxation in reduced form: constraints (3)
    [Σ_h (y + z) = 1], (5) [(rᵉ+nᵉ)·y + rᵉ·z ≤ cᵉ] where [rᵉ > 0],
    (6) [Σ_j (rᵃ+nᵃ)·y + rᵃ·z ≤ cᵃ] and (7) unchanged; [z ≥ 0] and
    [y ≤ cᵉ/nᵉ] are variable bounds. Its optimum is that of
    [Lp.Problem.relax (fst (formulation instance))], and [e = y + z]
    maps its points onto that problem's. *)

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
(** Optimal [Y] of the rational relaxation ({!reduced_relaxation}) — an
    upper bound on any placement's minimum yield (paper §3.2). [None] when
    even the relaxation is infeasible. *)

val relaxed_e_matrix : Model.Instance.t -> float array array option
(** The fractional [e_jh = y_jh + z_jh] matrix (J rows, H columns) of
    the relaxed solution, the input to randomized rounding. *)

val probe_formulation :
  Model.Instance.t -> yield_floor:float -> Lp.Problem.t * reduced
(** The relaxation as a {e feasibility probe} at a fixed yield floor:
    {!reduced_relaxation} with a zero objective and
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
