(** The admission test, and First-Fit and Best-Fit vector packing (paper
    §3.5.1), over a {!State.t}.

    Both algorithms walk the items in the caller-provided (already sorted)
    order of ids. First-Fit scans bins in the caller-provided static
    order and uses the first bin that admits the item. Best-Fit re-ranks
    bins dynamically before each item: the homogeneous flavour prefers
    the bin with the largest sum of loads across dimensions; the
    heterogeneous flavour (paper §3.5.4) prefers the bin with the
    smallest total remaining capacity — the two coincide on identical
    bins and differ on heterogeneous ones. Both pack from the state's
    current loads and leave their placements, or a failed pack's partial
    one, in it. *)

val fits : State.t -> int -> int -> bool
(** [fits t b j]: item [j]'s elementary demand is within bin [b]'s
    elementary threshold in every dimension, and the bin's load plus the
    item's aggregate demand within its aggregate threshold. *)

type bin_rank = By_load | By_remaining
(** Best-Fit ranking: [By_load] = descending sum of loads (homogeneous VP),
    [By_remaining] = ascending sum of remaining capacity (HVP). *)

val first_fit : State.t -> bins:int array -> items:int array -> bool
(** Returns false as soon as an item fits nowhere. *)

val best_fit : rank:bin_rank -> State.t -> items:int array -> bool
(** Scans every bin in id order for each item; the first of equal scores
    wins. Returns false as soon as an item fits nowhere. *)
