(** Table 1 & Table 2 driver: pairwise comparison of the major heuristics
    (RRND, RRNZ, METAGREEDY, METAVP, METAHVP) and their run times, per
    service-count scenario. *)

type scenario = {
  services : int;
  hosts : int;
  n_instances : int;
  names : string array;
  yields : float option array array;  (** [algorithm].(instance) *)
  mean_runtime : float array;  (** seconds, averaged over all instances *)
}

val run :
  ?progress:(string -> unit) -> ?pool:Par.Pool.t -> Scale.t -> scenario list
(** One scenario per entry of [scale.table1_services]; instances sweep the
    scale's CoV and slack lists. With a [pool], trials fan out over its
    domains; the yields (and thus {!report_table1}) are identical to the
    sequential run — only [mean_runtime] varies with machine load. *)

val report_table1 : scenario list -> string
(** The (Y_{A,B}, S_{A,B}) matrices, one per scenario — paper Table 1. *)

val report_table2 : scenario list -> string
(** Mean run times per algorithm and scenario — paper Table 2. *)
