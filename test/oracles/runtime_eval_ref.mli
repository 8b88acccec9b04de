(** The whole-instance run-time evaluation — the reference for
    {!Sharing.Runtime_eval}'s node-by-node path.

    The estimated instance is water-filled as a whole through the list
    reference ({!Yield_ref.placement_water_fill}, no code shared with the
    library's kernel), then every non-empty node divides its
    CPU under the policy, and the minimum yield is one fold over every
    service's yield in id order. The library must match it bit for bit,
    and return [None] exactly when it does. *)

val consumptions :
  Sharing.Policy.t ->
  true_instance:Model.Instance.t ->
  estimated:Model.Instance.t ->
  Model.Placement.t ->
  float array option
(** Per-service actual CPU consumption beyond the rigid requirement,
    indexed by service id. *)

val actual_min_yield :
  Sharing.Policy.t ->
  true_instance:Model.Instance.t ->
  estimated:Model.Instance.t ->
  Model.Placement.t ->
  float option
(** Minimum achieved CPU yield across all services. *)
