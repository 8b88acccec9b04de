(** Summary statistics over float samples. *)

type t = {
  count : int;
  mean : float;
  stddev : float;  (** population standard deviation *)
  min : float;
  max : float;
}

val of_array : float array -> t
(** Raises [Invalid_argument] on the empty array. *)

val of_list : float list -> t

val mean : float array -> float
val stddev : float array -> float
val coefficient_of_variation : float array -> float
(** stddev / mean; 0 when the mean is 0. *)

val median : float array -> float
val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [0, 100], linear interpolation. *)
