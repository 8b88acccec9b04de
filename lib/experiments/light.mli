(** §5.1 comparison: METAHVPLIGHT vs METAHVP — near-identical solution
    quality at a fraction of the run time. *)

type result = {
  hosts : int;
  services : int;
  n_instances : int;
  both_solved : int;
  only_hvp : int;
  only_light : int;
  mean_yield_hvp : float;  (** over instances both solve *)
  mean_yield_light : float;
  mean_time_hvp : float;
  mean_time_light : float;
}

val run : ?progress:(string -> unit) -> ?pool:Par.Pool.t -> Scale.t -> result
(** With a [pool], trials (one instance solved by both algorithms) fan out
    over its domains — counts and yields are bit-identical to the
    sequential run, only the timings change. *)

val report : result -> string
(** Counts and yields, which are the same at any domain count; the run
    times, which are wall-clock, are left to the caller. *)
