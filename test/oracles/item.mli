(** Packing items as records: a service's demand at a fixed yield. The
    elementary vector is an admission filter (it must fit a single
    resource element of the bin and does not accumulate); the aggregate
    vector is what is packed. *)

type t = { id : int; demand : Vec.Epair.t }

val v : id:int -> demand:Vec.Epair.t -> t

val size : t -> Vec.Vector.t
(** The vector item-sorting strategies sort by: the aggregate demand. *)
