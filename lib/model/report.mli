(** Human-readable placement reports.

    Renders an allocation as a per-node table: hosted services, per-service
    yields, and per-dimension aggregate utilization with ASCII bars — what
    an operator wants to see after a placement run (used by the CLI and the
    examples). *)

val render : Instance.t -> Placement.allocation -> string
(** Multi-line report; utilization bars are 20 columns wide. *)

val utilization : Instance.t -> Placement.allocation -> float array array
(** [utilization inst alloc] is a H x D matrix of aggregate load divided by
    aggregate capacity at the allocation's yields (0 for zero-capacity
    dimensions). Exposed for tests. *)
