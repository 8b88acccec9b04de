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
  true_services:Model.Service.t list ->
  estimated:Model.Service.t list ->
  float option
(** One node's evaluation. [true_services] and [estimated] are the same
    residents of the node, in the same (ascending id) order, with their
    true and their estimated needs. The estimated services are
    water-filled on the node; each one's aggregate CPU demand at its
    max–min yield is its planned allocation, and the node divides its CPU
    beyond the rigid requirements under the policy. Returns the minimum
    actual CPU yield (consumption over true need, 1 for a service with no
    CPU need, 1 for an empty node), or [None] when the water-fill fails
    (the requirements do not fit the node). *)

val consumptions :
  Policy.t ->
  true_instance:Model.Instance.t ->
  estimated:Model.Instance.t ->
  Model.Placement.t ->
  float array option
(** Per-service actual CPU consumption beyond the rigid requirement,
    indexed by service id, each node evaluated as in {!node_min_yield}.
    The two instances share their nodes and service ids; [None] when the
    placement is invalid or some node's water-fill fails. *)

val actual_min_yield :
  Policy.t ->
  true_instance:Model.Instance.t ->
  estimated:Model.Instance.t ->
  Model.Placement.t ->
  float option
(** Minimum achieved CPU yield across all services: the minimum of
    {!node_min_yield} over the nodes, [None] when {!consumptions} is. *)
