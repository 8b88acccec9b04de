(** The flat packing state: every bin and item of one packing problem in
    float arrays, made once and reused by every strategy and probe.

    Bin [b]'s dimension [d] lives at [b * dims + d] of the per-bin rows,
    item [j]'s at [j * dims + d] of the per-item rows; bins and items are
    named by these dense ids. Bin capacities, and with them the fits
    thresholds, are fixed when the state is made. Item demands are
    written per probe ({!fill_at_yield}, {!set_item}). Loads, their
    running sums and the assignment change as strategies place items
    ({!place}) and return to empty with {!reset}. Sort orders are
    memoized as arrays of ids: item orders until the demands change, bin
    orders for the state's lifetime. A state must only be used from one
    domain at a time. *)

type t = private {
  dims : int;
  n_bins : int;
  n_items : int;
  cap : float array;  (** bins x dims: aggregate capacity *)
  elem_lim : float array;
      (** bins x dims: elementary fits threshold
          [c +. 1e-9 *. max 1 |c|] of the elementary capacity [c] *)
  agg_lim : float array;
      (** bins x dims: aggregate fits threshold [c +. 1e-9 *. max 1 c] *)
  load : float array;  (** bins x dims: aggregate load *)
  load_sum : float array;
      (** per bin: the left fold [+.] of its load row, kept by {!place} *)
  remaining_sum : float array;
      (** per bin: the left fold of [max 0 (cap - load)], kept by
          {!place} *)
  empty_remaining : float array;  (** per bin: [remaining_sum] when empty *)
  elem : float array;  (** items x dims: elementary demand *)
  agg : float array;  (** items x dims: aggregate demand *)
  assign : int array;  (** per item: its bin, or -1 while unplaced *)
  placed : int array;  (** item ids in the order they were placed *)
  mutable n_placed : int;
  mutable demands : int;
      (** Stamp of the current demands, unique across states: changes
          whenever they are written. *)
  mutable item_orders : (Vec.Metric.order * int array) list;
  mutable bin_orders : (Vec.Metric.order * int array) list;
}

val create : dims:int -> capacities:Vec.Epair.t array -> n_items:int -> t
(** Empty bins of the given capacities (bin [b] is [capacities.(b)]) and
    [n_items] items of zero demand. Raises [Invalid_argument] when
    [dims <= 0], [n_items < 0] or a capacity has another dimension. *)

val set_item : t -> int -> Vec.Epair.t -> unit
(** [set_item t j demand] writes item [j]'s demand. Raises
    [Invalid_argument] when its dimension is not [t.dims]. *)

val fill_at_yield :
  t ->
  float ->
  need_elem:float array ->
  req_elem:float array ->
  need_agg:float array ->
  req_agg:float array ->
  unit
(** [fill_at_yield t y ...] writes every item's demand at yield [y],
    [y *. need +. req] per component, from buffers in the item-row layout
    (the expression {!Vec.Vector.axpy} evaluates). Raises
    [Invalid_argument] unless each buffer holds [n_items * dims]
    values. *)

val reset : t -> unit
(** Empty every bin and unplace every item. *)

val place : t -> int -> int -> unit
(** [place t b j] puts item [j] into bin [b]: adds its aggregate demand
    to the bin's load, refolds the bin's two running sums and records the
    assignment. Does not test that the item fits; an item is placed at
    most once between resets. *)

val assignment : t -> int array
(** Item id to bin id, -1 for an unplaced item (a copy). *)

val placement_order : t -> int array
(** The placed items' ids in the order they were placed (a copy). *)

val items_in_order : t -> Vec.Metric.order -> int array
(** Item ids sorted by their aggregate demand under the order
    ({!Vec.Metric.sort_rows}), memoized until the demands change. Hits
    count on [vp_solver.items_cache_hits]. The array is shared: do not
    mutate it. *)

val bins_in_order : t -> Vec.Metric.order -> int array
(** Bin ids sorted by their aggregate capacity under the order, memoized
    for the state's lifetime. Shared, like {!items_in_order}. *)
