(** Physical hosts.

    A node is an ordered pair of D-dimensional vectors (paper §2): the
    {e elementary} capacity of a single resource element in each dimension
    and the {e aggregate} capacity over all elements. For poolable resources
    (memory) the two coincide; for partitionable-but-not-poolable resources
    (CPU cores) the aggregate is typically [elements * elementary], although
    no integer-multiple relation is assumed. *)

type t = { id : int; capacity : Vec.Epair.t }

val v : id:int -> capacity:Vec.Epair.t -> t
(** Raises [Invalid_argument] on non-finite or negative capacities, or when
    any elementary capacity exceeds the corresponding aggregate
    capacity. *)

val make_cores :
  id:int -> cores:int -> cpu:float -> mem:float -> t
(** Convenience for the paper's 2-D experiments: a node with [cores]
    homogeneous cores totalling [cpu] aggregate CPU capacity (each core has
    [cpu /. cores] elementary capacity) and a fully poolable memory of size
    [mem]. Dimension 0 is CPU, dimension 1 is memory. *)

val dim : t -> int

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
