(** Evaluation of placements computed from erroneous estimates (paper §6.2).

    The scheduler plans on the {e estimated} instance; the platform executes
    the {e true} one. CPU (dimension 0) is the dynamic resource shared by a
    {!Policy}; memory is rigid and identical in both instances, so a
    placement that is requirement-feasible for one is for the other. Yields
    here are CPU yields on the aggregate dimension — the elementary
    dimension caps planning (through METAHVP) but not the run-time
    scheduler, matching the paper's scalar scheduler model. *)

val node_min_yield :
  Policy.t ->
  Model.Node.t ->
  true_rows:Model.Yield.rows ->
  estimated:Model.Yield.rows ->
  ids:int array ->
  off:int ->
  len:int ->
  bounds:float array ->
  order:int array ->
  float option
(** One node's evaluation, over flat rows. The node's residents are rows
    [ids.(off)] to [ids.(off + len - 1)] of [true_rows], with their true
    needs, and of [estimated], with their estimated needs; the two share
    the requirements. The estimated rows are water-filled on the node
    ({!Model.Yield.fill}, with [bounds] and [order] as its scratch); each
    resident's aggregate CPU demand at its max–min yield is its planned
    allocation, and the node divides its CPU beyond the rigid requirements
    under the policy. Returns the minimum actual CPU yield (consumption
    over true need, 1 for a service with no CPU need, 1 for an empty
    node), or [None] when the water-fill fails (the requirements do not
    fit the node). CPU is dimension {!Model.Service.cpu_dim} of the
    rows. *)

val consumptions :
  Policy.t ->
  true_instance:Model.Instance.t ->
  estimated:Model.Instance.t ->
  Model.Placement.t ->
  float array option
(** Per-service actual CPU consumption beyond the rigid requirement,
    indexed by service id, each node evaluated as in {!node_min_yield}
    over the instances' own rows, its services in ascending id order
    ({!Model.Placement.by_node}). The two instances share their nodes and
    service ids; [None] when the placement is invalid or some node's
    water-fill fails. *)

val actual_min_yield :
  Policy.t ->
  true_instance:Model.Instance.t ->
  estimated:Model.Instance.t ->
  Model.Placement.t ->
  float option
(** Minimum achieved CPU yield across all services: the minimum of
    {!node_min_yield} over the nodes, [None] when {!consumptions} is. *)
