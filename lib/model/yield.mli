(** Yield semantics (paper §2 and Fig. 1).

    Given a node and the set of services placed on it, these functions
    compute the feasibility of the placement and the yields the node can
    sustain. Per-node reasoning is exact: because yields enter demands
    linearly, the max–min-fair allocation on a node is a water-filling with
    per-service elementary caps and shared aggregate capacity, computed here
    by an exact breakpoint sweep (no binary search). *)

val elementary_bound : Node.t -> Service.t -> float option
(** Highest yield the node's {e elementary} capacities allow for this
    service, in [0, 1]. [None] when even the elementary requirement does not
    fit (placement is invalid regardless of yield). A service whose needs
    are all zero gets bound [1.]. *)

val requirements_fit : Node.t -> Service.t list -> bool
(** Zero-yield feasibility: every service's elementary requirement fits a
    single element, and the summed aggregate requirements fit the node. *)

val aggregate_level : Node.t -> Service.t list -> float
(** Maximum common level [L] in [0, 1] such that allocating every service
    its requirement plus [min L (elementary bound)] of its need respects all
    aggregate capacities. Assumes {!requirements_fit} holds; services whose
    elementary requirement does not fit are treated as bound-0. *)

val max_min_yield : Node.t -> Service.t list -> float option
(** Largest achievable minimum yield over the given services on this node:
    [min (min elementary bounds) (aggregate_level)]. [None] when
    requirements do not fit. [Some 1.] for the empty list. *)

val water_fill : Node.t -> Service.t list -> float list option
(** Max–min-fair per-service yields [min (elementary bound) L] in input
    order, where [L] is {!aggregate_level}. [None] when requirements do not
    fit. Unlike {!max_min_yield}, services capped below [L] by their own
    elementary bound do not drag the others down. *)

val fits_at_yield : Node.t -> Service.t list -> float -> bool
(** [fits_at_yield node services y] checks that all services can run on the
    node at the {e common} yield [y]: elementary demand of each service fits
    one element and summed aggregate demands fit the node. This is the
    packing feasibility test used by the binary-search drivers. *)
