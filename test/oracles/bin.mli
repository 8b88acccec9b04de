(** Packing bins as records — the reference for {!Packing.State}'s flat
    rows.

    A bin is a node's capacity pair plus the aggregate load accumulated so
    far and the ids of the items placed in it. Every query recomputes
    from the record: the fits test evaluates its thresholds on each call
    and the sums fold on demand. *)

type t = private {
  id : int;
  capacity : Vec.Epair.t;
  load : float array;  (** aggregate load per dimension *)
  mutable contents : int list;  (** item ids, most recent first *)
}

val v : id:int -> capacity:Vec.Epair.t -> t
(** Fresh empty bin. *)

val fits : t -> Item.t -> bool
(** The item's elementary demand is within [c +. 1e-9 *. max 1 |c|] of
    the elementary capacity [c] in every dimension, and the load plus its
    aggregate demand within [c +. 1e-9 *. max 1 c] of the aggregate
    capacity. Raises [Invalid_argument] on a dimension mismatch. *)

val place : t -> Item.t -> unit
(** Add the item. Does not re-check {!fits}. *)

val load_vector : t -> Vec.Vector.t
(** Current aggregate load (copy). *)

val remaining : t -> Vec.Vector.t
(** Aggregate capacity minus load, clamped at 0 (copy). *)

val load_sum : t -> float
(** Left fold [+.] of the loads (Best-Fit's homogeneous score). *)

val remaining_sum : t -> float
(** Left fold [+.] of {!remaining} (Best-Fit's heterogeneous score). *)

val size : t -> Vec.Vector.t
(** The vector bin-sorting strategies sort by: aggregate capacity. *)
