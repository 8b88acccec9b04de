(** Ablations of the design choices DESIGN.md §5 calls out. *)

type window_row = {
  window : int;
  successes : int;
  mean_yield : float;  (** over its own successes *)
}

val window_sweep :
  ?pool:Par.Pool.t ->
  ?hosts:int -> ?services:int -> ?reps:int -> unit -> window_row list
(** Permutation-Pack window size 1 vs 2 on the 2-D workload (paper §3.5.2
    notes w=1 makes PP and CP coincide). *)

type pp_impl_row = {
  dims : int;
  items : int;
  fast_seconds : float;
  naive_seconds : float;
  identical : bool;
      (** same assignment and placement order from both implementations *)
}

val pp_implementation :
  ?pool:Par.Pool.t ->
  ?dims_list:int list -> ?items:int -> ?bins:int -> ?reps:int -> unit ->
  pp_impl_row list
(** {!Packing.Permutation_pack.pack} on a fresh scratch, selecting through
    per-key-class cursors as the solves do, vs the literal D!-list
    formulation on synthetic packing instances: identical packings,
    diverging cost as D grows (the complexity improvement of §3.5.2). *)

type tolerance_row = {
  tolerance : float;
  mean_yield : float;
  mean_seconds : float;
}

val tolerance_sweep :
  ?pool:Par.Pool.t ->
  ?hosts:int -> ?services:int -> ?reps:int -> unit -> tolerance_row list
(** Binary-search stopping width (paper: 1e-4) vs achieved yield and time,
    using METAHVPLIGHT. *)

type dimension_row = {
  n_dims : int;
  resource_names : string;
  solved : int;
  total : int;
  mean_yield : float;  (** METAHVPLIGHT, over its successes *)
  mean_seconds : float;
}

val dimension_sweep :
  ?pool:Par.Pool.t ->
  ?hosts:int -> ?services:int -> ?reps:int -> unit -> dimension_row list
(** Solve N-dimensional instances ({!Workload.Generator_nd}) with
    METAHVPLIGHT for D = 2..4 — the framework handles arbitrary resource
    lists; cost grows with D through the packing inner loops. *)

(** The reports print no wall-clock time, so they are the same from run to
    run and at any pool size; the rows' seconds are for the caller to
    report apart. *)

val report_window : window_row list -> string
val report_pp_implementation : pp_impl_row list -> string
val report_tolerance : tolerance_row list -> string
val report_dimension : dimension_row list -> string
