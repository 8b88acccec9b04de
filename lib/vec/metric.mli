(** Scalarization metrics and sort orders over resource vectors.

    Vector-packing heuristics need a total order on vectors, but there is no
    single unambiguous definition of vector "size" (paper §3.5). The paper
    evaluates five scalarizations — MAX, SUM, MAXRATIO, MAXDIFFERENCE and
    the lexicographic order LEX — each usable ascending or descending, plus
    the option of not sorting at all, for 11 distinct item orders. *)

type scalar = Max | Sum | Max_ratio | Max_difference
(** Metrics that map a vector to a single float. LEX is handled separately
    because it is a genuine order, not a scalarization. *)

type order =
  | Unsorted  (** keep natural order (the paper's NONE). *)
  | Asc of key
  | Desc of key

and key = Scalar of scalar | Lex

val value : scalar -> Vector.t -> float
(** Scalarize a vector. *)

val sort : order -> ('a -> Vector.t) -> 'a array -> 'a array
(** [sort order proj items] returns a fresh array of [items] sorted by the
    projection of each item. The sort is stable so [Unsorted] and tie
    handling preserve natural order. *)

val sort_rows : order -> dims:int -> float array -> int array
(** [sort_rows order ~dims rows] sorts the ids [0 .. n-1] of the [n]
    vectors stored row by row in [rows] (vector [i]'s dimension [d] at
    [i * dims + d]) exactly as {!sort} sorts those vectors in id order:
    the same stable sort on the same keys. Raises [Invalid_argument] when
    [dims <= 0]. *)

val all_orders : order list
(** The 11 item orders of the paper: [Unsorted] plus {asc, desc} x
    {MAX, SUM, MAXRATIO, MAXDIFFERENCE, LEX}. *)

val order_to_string : order -> string
(** Short names used in experiment reports (e.g. ["DMAX"], ["ASUM"],
    ["NONE"]). *)
