(** The minimum of the online engine's per-node yield values, kept as a
    tournament tree.

    Each of the [n] leaves holds one node's value: its minimum actual
    yield, or a failure when its water-fill failed. Updating one leaf
    recomputes only its path to the root, O(log n); refilling every leaf
    rebuilds the tree bottom-up, O(n). Failed leaves are counted apart,
    not stored as values. *)

type t

val create : int -> t
(** [create n]: [n] leaves, each holding [1.] (an empty node's value).
    Raises [Invalid_argument] when [n < 1]. *)

val set : t -> int -> float option -> unit
(** [set t h v] stores leaf [h]'s value, [None] for a failed node, and
    updates its path to the root: O(log n). *)

val set_all : t -> (int -> float option) -> unit
(** [set_all t f] stores [f h] in every leaf [h], in ascending [h], then
    rebuilds the tree: O(n). *)

val min : t -> float
(** [0.] when some leaf holds a failure; else the [Float.min] of every
    leaf, which has the bits of the left fold [Float.min] from [1.] over
    the leaves: on non-NaN floats [Float.min] is commutative and
    associative, [-0.] included. A failure is not stored as a [0.] leaf
    because [Float.min (-0.) 0.] is [-0.]: it would turn the fold's
    [0.] into [-0.]. O(1). *)
