(** Yield semantics (paper §2 and Fig. 1): one node's max–min-fair
    water-fill over flat rows.

    Given a node and the services placed on it, the kernel decides whether
    the placement fits at yield 0 and computes the yields the node can
    sustain. Yields enter demands linearly, so the max–min-fair allocation
    on a node is a water-filling with per-service elementary caps (each
    service's {e elementary bound}) and shared aggregate capacity (a common
    {e level}), computed by an exact breakpoint sweep, with no binary
    search. Service [i]'s water-filled yield is [min bound_i level]; the
    node's max–min yield is [min (min bounds) level].

    Every yield evaluation in the library goes through {!fill}:
    {!Placement}'s per-placement functions, [Sharing.Runtime_eval] and the
    online simulator. The list-based code it replaced is the test suite's
    reference, [Oracles.Yield_ref], and the kernel agrees with it bit for
    bit: the same tolerances, and the same float operations in the same
    order. *)

type rows = {
  dims : int;
  req_elem : float array;
      (** elementary requirements: service [j]'s dimension [d] at
          [j * dims + d] *)
  req_agg : float array;  (** aggregate requirements, same layout *)
  need_elem : float array;  (** elementary needs, same layout *)
  need_agg : float array;  (** aggregate needs, same layout *)
}
(** Services' requirement and need vectors as flat rows, the layout of
    {!Instance.t}'s buffers. *)

val instance_rows : Instance.t -> rows
(** The instance's own buffers, shared, not copied. *)

val requirements_fit :
  Node.t -> rows -> ids:int array -> off:int -> len:int -> bool
(** Zero-yield feasibility of services [ids.(off)] to
    [ids.(off + len - 1)] on the node: every service's elementary
    requirement fits a single element, and the summed aggregate
    requirements fit the node, each within {!Vec.Vector.eps}'s tolerance.
    Raises [Invalid_argument] when the node's dimension is not
    [rows.dims]. *)

val fill :
  Node.t ->
  rows ->
  ids:int array ->
  off:int ->
  len:int ->
  bounds:float array ->
  order:int array ->
  float
(** [fill node rows ~ids ~off ~len ~bounds ~order] water-fills services
    [ids.(off)] to [ids.(off + len - 1)] on [node]. It returns the
    aggregate level in [\[0, 1\]] and writes service [ids.(off + k)]'s
    elementary bound to [bounds.(off + k)]; or it returns a negative number
    when the requirements do not fit ({!requirements_fit}), or some
    service's elementary requirement exceeds an element by more than
    [eps * max 1 c]. [order.(off)] to [order.(off + len - 1)] is
    scratch. Both arrays belong to the caller, so concurrent calls on
    distinct arrays are safe. An empty slice has level [1.]. A service
    whose needs are all zero gets bound [1.].

    Float order, as in the reference: the aggregate requirement sums run
    in slice order; per aggregate dimension, the services with a positive
    need there enter the sweep in ascending bound order, equal bounds in
    slice order, and their slope is summed in that order.

    Cost: O(len * dims) plus an insertion sort of the slice by bound,
    O(len²) at worst. It allocates nothing. *)

val max_min :
  Node.t ->
  rows ->
  ids:int array ->
  off:int ->
  len:int ->
  bounds:float array ->
  order:int array ->
  float
(** The slice's max–min yield, [min (min bounds) level] after {!fill}, or
    a negative number when {!fill} fails. [1.] for an empty slice. *)

val max_min_yield : Node.t -> Service.t list -> float option
(** {!max_min} of the given services on the node, [None] when it fails:
    a list entry point over the kernel. Raises [Invalid_argument] on a
    dimension mismatch. *)
