(** Per-node CPU allocation policies under estimation error (paper §6).

    Once services are mapped to a node using {e estimated} needs, the node
    must divide its actual CPU among them while their {e true} needs unfold:

    - [Alloc_caps]: hard caps at the estimated optimal allocation. Not
      work-conserving — over-estimated services strand capacity, and
      under-estimated ones starve at their cap.
    - [Alloc_weights]: the estimated optimal allocations become weights of
      the work-conserving scheduler.
    - [Equal_weights]: work-conserving scheduler with identical weights —
      uses no estimate information at all (and is the policy of Theorem 1).

    Yields are CPU yields: consumption divided by true need (1 for services
    with no CPU need). *)

type t = Alloc_caps | Alloc_weights | Equal_weights

val consumptions :
  t ->
  capacity:float ->
  estimated_allocations:float array ->
  true_needs:float array ->
  float array
(** Actual CPU consumption of each service on one node. *)

val yields :
  t ->
  capacity:float ->
  estimated_allocations:float array ->
  true_needs:float array ->
  float array
(** Per-service achieved yields, each in [0, 1]. *)

val min_yield :
  t ->
  capacity:float ->
  estimated_allocations:float array ->
  true_needs:float array ->
  float
(** Minimum of {!yields} (1. for an empty node). *)
