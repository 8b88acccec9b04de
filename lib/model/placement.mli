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

val by_node : Instance.t -> t -> int array * int array
(** [by_node instance placement] is [(ids, start)] for a valid placement:
    node [h]'s services are [ids.(start.(h))] to
    [ids.(start.(h + 1) - 1)], in ascending id order. A counting sort:
    O(services + nodes). These are the id slices {!Yield.fill} takes. *)

val each_node :
  Instance.t ->
  t ->
  (Node.t ->
  Yield.rows ->
  ids:int array ->
  off:int ->
  len:int ->
  bounds:float array ->
  order:int array ->
  bool) ->
  bool
(** [each_node instance placement per_node] calls [per_node] on every
    node of a valid placement in node order, with the instance's rows
    ({!Yield.instance_rows}), the node's id slice ({!by_node}) and a
    scratch pair for {!Yield.fill}, until a call returns [false]. [true]
    when every call did. The scratch is made per call of [each_node], so
    concurrent calls share nothing. *)

val is_valid : Instance.t -> t -> bool
(** Structural validity: correct length and node indices in range. *)

val min_yield : Instance.t -> t -> float option
(** Minimum over nodes of the per-node max–min yield ({!Yield.max_min}),
    folded from [1.] in node order; [None] when any node is infeasible at
    yield 0 or the placement is structurally invalid. Each node's services
    are evaluated in ascending id order, straight from the instance's flat
    buffers; the call allocates O(services + nodes) and shares no state,
    so it may run on several domains at once. *)

val water_fill : Instance.t -> t -> allocation option
(** Max–min-fair yields per service (per-node water-filling through
    {!Yield.fill}: service [j]'s yield is [min bound_j level] of its
    node), under the same conditions and at the same cost as
    {!min_yield}. *)

val check_constraints :
  ?tol:float -> Instance.t -> allocation -> (unit, string) result
(** Validate an allocation against constraints (1)–(7) with [Y] taken as
    the minimum yield: placement completeness (3), yield only where placed
    (4), elementary capacities (5), aggregate capacities (6), yield ranges
    (2). Returns a human-readable reason on failure. Default [tol]
    is [1e-6]. *)
