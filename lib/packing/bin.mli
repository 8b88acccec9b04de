(** Mutable packing bins.

    A bin is a node's capacity pair plus the aggregate load accumulated so
    far. Bins are heterogeneous: each carries its own elementary and
    aggregate capacities (paper §3.5.4). *)

type t = private {
  id : int;
  capacity : Vec.Epair.t;
  load : float array;  (** aggregate load per dimension, mutated by [place] *)
  mutable contents : int list;  (** item ids, most recent first *)
  mutable sum_load : float;
      (** Running sum of [load], maintained by [place]/[reset] as the same
          left fold the on-demand computation used, so {!load_sum} is O(1)
          and bit-identical to folding. *)
  mutable sum_remaining : float;
      (** Running sum of clamped remaining aggregate capacity; same
          contract as [sum_load] for {!remaining_sum}. *)
}

val v : id:int -> capacity:Vec.Epair.t -> t
(** Fresh empty bin. *)

val reset : t -> unit
(** Return the bin to its freshly created state (zero load, no contents)
    without reallocating — the probe kernel's per-attempt recycle. *)

val dim : t -> int

val fits : t -> Item.t -> bool
(** Admission test: the item's elementary demand fits the bin's elementary
    capacity and current load plus the item's aggregate demand fits the
    aggregate capacity (library tolerance). *)

val place : t -> Item.t -> unit
(** Add the item. Does not re-check {!fits}. *)

val load_vector : t -> Vec.Vector.t
(** Current aggregate load (copy). *)

val remaining : t -> Vec.Vector.t
(** Aggregate capacity minus load, clamped at 0 (copy). *)

val load_sum : t -> float
(** Sum of loads across dimensions (Best-Fit's homogeneous criterion).
    O(1): reads the running [sum_load] field. *)

val remaining_sum : t -> float
(** Sum of remaining aggregate capacity (Best-Fit's heterogeneous
    criterion). O(1) and allocation-free: reads the running
    [sum_remaining] field instead of materializing {!remaining}. *)

val size : t -> Vec.Vector.t
(** The vector used by bin-sorting strategies: aggregate capacity. *)

val pp : Format.formatter -> t -> unit
