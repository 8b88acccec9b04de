(** Yield semantics (paper §2 and Fig. 1) over service lists — the
    reference for {!Model.Yield}'s flat per-node kernel.

    Given a node and the services placed on it, these functions compute
    the feasibility of the placement and the yields the node can sustain.
    Yields enter demands linearly, so the max–min-fair allocation on a
    node is a water-filling with per-service elementary caps and shared
    aggregate capacity, computed by an exact breakpoint sweep. The library
    must agree with {!max_min_yield} and {!water_fill} bit for bit, and
    fail exactly when they do. *)

val fits : Vec.Vector.t -> Vec.Vector.t -> bool
(** [fits demand capacity]: every component of [demand] is within
    [c +. 1e-9 *. max 1 |c|] of the matching capacity [c], the tolerance
    the library's packing state and {!Model.Yield} apply. Raises
    [Invalid_argument] when the dimensions differ. *)

val elementary_bound : Model.Node.t -> Model.Service.t -> float option
(** Highest yield the node's {e elementary} capacities allow for this
    service, in [0, 1]. [None] when even the elementary requirement does not
    fit (placement is invalid regardless of yield). A service whose needs
    are all zero gets bound [1.]. *)

val requirements_fit : Model.Node.t -> Model.Service.t list -> bool
(** Zero-yield feasibility: every service's elementary requirement fits a
    single element, and the summed aggregate requirements fit the node. *)

val aggregate_level : Model.Node.t -> Model.Service.t list -> float
(** Maximum common level [L] in [0, 1] such that allocating every service
    its requirement plus [min L (elementary bound)] of its need respects all
    aggregate capacities. Assumes {!requirements_fit} holds; services whose
    elementary requirement does not fit are treated as bound-0. *)

val max_min_yield : Model.Node.t -> Model.Service.t list -> float option
(** Largest achievable minimum yield over the given services on this node:
    [min (min elementary bounds) (aggregate_level)]. [None] when
    requirements do not fit. [Some 1.] for the empty list. *)

val water_fill : Model.Node.t -> Model.Service.t list -> float list option
(** Max–min-fair per-service yields [min (elementary bound) L] in input
    order, where [L] is {!aggregate_level}. [None] when requirements do not
    fit. Unlike {!max_min_yield}, services capped below [L] by their own
    elementary bound do not drag the others down. *)

val fits_at_yield : Model.Node.t -> Model.Service.t list -> float -> bool
(** [fits_at_yield node services y] checks that all services can run on the
    node at the {e common} yield [y]: elementary demand of each service fits
    one element and summed aggregate demands fit the node. This is the
    packing feasibility test of the binary-search drivers, an independent
    check of {!max_min_yield}'s frontier. *)

(** {1 Whole placements}

    The references for {!Model.Placement.min_yield}, [water_fill] and
    [feasible]: each node's services as a list in ascending id order
    ({!group_by_node}). *)

val group_by_node :
  Model.Instance.t -> Model.Placement.t -> Model.Service.t list array
(** Every node's services of a valid placement, each list in ascending
    id order: the reference for {!Model.Placement.by_node}. *)

val placement_min_yield :
  Model.Instance.t -> Model.Placement.t -> float option
(** {!max_min_yield} of every node, folded from [1.] with [<] in node
    order; [None] for an invalid placement or when a node fails. *)

val placement_water_fill :
  Model.Instance.t -> Model.Placement.t -> float array option
(** {!water_fill} of every node, indexed by service id; [None] as for
    {!placement_min_yield}. *)

val placement_feasible : Model.Instance.t -> Model.Placement.t -> bool
(** {!requirements_fit} on every node of a valid placement. *)
