(** Evaluation of placements computed from erroneous estimates (paper §6.2).

    The scheduler plans on the {e estimated} instance; the platform executes
    the {e true} one. CPU (dimension 0) is the dynamic resource shared by a
    {!Policy}; memory is rigid and identical in both instances, so a
    placement that is requirement-feasible for one is for the other. Yields
    here are CPU yields on the aggregate dimension — the elementary
    dimension caps planning (through METAHVP) but not the run-time
    scheduler, matching the paper's scalar scheduler model. *)

val estimated_allocations :
  Model.Instance.t -> Model.Placement.t -> float array option
(** Per-service planned aggregate CPU allocation [rᵃ + y·nᵃ] where [y] are
    the water-filled yields of the placement on the (estimated) instance.
    [None] if the placement is infeasible. *)

val consumptions :
  Policy.t ->
  true_instance:Model.Instance.t ->
  estimated:Model.Instance.t ->
  Model.Placement.t ->
  float array option
(** Per-service actual CPU consumption beyond the rigid requirement when
    each node divides its CPU under the given policy. Indexed by service
    id. *)

val actual_min_yield :
  Policy.t ->
  true_instance:Model.Instance.t ->
  estimated:Model.Instance.t ->
  Model.Placement.t ->
  float option
(** Minimum achieved CPU yield across all services. *)
