(** Branch-and-bound MILP solver over {!Simplex}.

    Replaces the GLPK/CPLEX MILP back-ends for the exact solutions of paper
    §3.1–3.2. Depth-first search branching on the most fractional integer
    variable; each branch tightens that variable's bounds
    ([x <= floor v] / [x >= ceil v]) and re-solves the LP relaxation.
    Nodes whose relaxation cannot beat the incumbent by more than an
    absolute gap of [1e-7] are pruned — with the paper's binary placement variables
    this explores a manageable tree on small instances.

    Each node's relaxation is warm-started from its parent's optimal basis
    ({!Simplex.solve_basis} with [?warm_basis]): a child differs from its
    parent in exactly one variable bound, so the parent basis stays dual
    feasible and the dual simplex reconciles it in a few pivots instead of
    re-running phase 1. The LP is relaxed once, so every node shares one
    constraint list and each install adopts the factor the parent's basis
    carries instead of factoring it again. Search-shape counters (lib/obs):
    [branch_bound.nodes], [branch_bound.infeasible_nodes],
    [branch_bound.pruned_nodes]. *)

type outcome =
  | Optimal of Simplex.solution
      (** Proven optimal within the absolute gap [1e-7]. *)
  | Infeasible
  | Unbounded
      (** The LP relaxation is unbounded (cannot happen for the paper's
          bounded formulation). *)
  | Node_limit of Simplex.solution option
      (** Search truncated; carries the best incumbent found, if any. *)

val solve : ?node_limit:int -> Problem.t -> outcome
(** [node_limit] defaults to 200_000 relaxation solves. *)
