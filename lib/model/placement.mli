(** Service-to-node placements and full allocations.

    A placement maps each service id to the node hosting it. An allocation
    additionally fixes each service's yield. The functions here evaluate a
    placement under the paper's objective (minimum yield, water-filled
    per-node) and validate allocations against the MILP constraints
    (1)–(7) of §3.1. *)

type t = int array
(** [t.(j)] is the node hosting service [j]. Values must be valid node
    indices. *)

type allocation = { placement : t; yields : float array }

val group_by_node : Instance.t -> t -> Service.t list array
(** All nodes' service lists in one pass. *)

val is_valid : Instance.t -> t -> bool
(** Structural validity: correct length and node indices in range. *)

val feasible : Instance.t -> t -> bool
(** Zero-yield feasibility of every node ({!Yield.requirements_fit}). *)

val min_yield : Instance.t -> t -> float option
(** Minimum over nodes of the per-node max–min yield; [None] when any node
    is infeasible at yield 0 or the placement is structurally invalid. *)

val water_fill : Instance.t -> t -> allocation option
(** Max–min-fair yields per service (per-node water-filling). *)

val check_constraints :
  ?tol:float -> Instance.t -> allocation -> (unit, string) result
(** Validate an allocation against constraints (1)–(7) with [Y] taken as
    the minimum yield: placement completeness (3), yield only where placed
    (4), elementary capacities (5), aggregate capacities (6), yield ranges
    (2). Returns a human-readable reason on failure. Default [tol]
    is [1e-6]. *)
