(** Ordered (elementary, aggregate) vector pairs.

    Every node capacity, service requirement, and service need in the paper
    is such a pair: the {e elementary} vector constrains what a single
    resource element (one core, one NIC) can provide to a single virtual
    element, and the {e aggregate} vector constrains the total over all
    elements of the node. See paper §2 and Fig. 1. *)

type t = { elementary : Vector.t; aggregate : Vector.t }

val v : elementary:Vector.t -> aggregate:Vector.t -> t
(** Raises [Invalid_argument] when the two vectors have different
    dimensions. *)

val of_arrays : float array -> float array -> t
(** [of_arrays e a] builds a pair from raw component arrays. *)

val uniform : Vector.t -> t
(** [uniform v] is the pair with elementary = aggregate = [v]; models fully
    poolable resources such as memory. *)

val dim : t -> int

val zero : int -> t

val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t

val at_yield : requirement:t -> need:t -> float -> t
(** [at_yield ~requirement ~need y] is the resource demand
    [(rᵉ + y·nᵉ, rᵃ + y·nᵃ)] of a service running at yield [y]. *)

val equal : ?eps:float -> t -> t -> bool

val pp : Format.formatter -> t -> unit
