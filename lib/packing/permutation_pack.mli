(** Permutation-Pack and Choose-Pack (Leinberger et al., paper §3.5.2).

    These heuristics fill bins one at a time, repeatedly selecting the
    remaining item that best "goes against" the bin's current capacity
    imbalance: an ideal item has its largest demand in the bin's
    least-loaded dimension, keeping the bin from filling up in one dimension
    while capacity remains in others.

    This module implements the paper's improved O(J²·D) selection: instead
    of maintaining D! per-permutation item lists, each item's demand
    permutation is mapped through the bin's dimension ranking into a
    {e key}, and the fitting item with the lexicographically smallest key
    wins. The picks come from per-key-class cursors held in a {!scratch},
    one item scan per bin rather than one per select pass.
    [Naive_permutation_pack] is the literal D!-list formulation, kept as an
    executable specification for tests and the complexity ablation.

    With window [w < D], only the first [w] key positions are compared.
    Permutation-Pack compares them in order; Choose-Pack treats them as an
    unordered set (it sorts the window before comparing). With [w = 1] the
    two coincide. *)

type flavour = Permutation | Choose

type bin_ranking = By_load | By_remaining_capacity
(** Dimension ranking of the current bin: ascending load (homogeneous VP)
    or descending remaining capacity (HVP, §3.5.4). *)

type scratch
(** Probe-shared selection state (DESIGN.md §11): packing selects through
    per-key-class cursors. Items are grouped by key class — Permutation:
    the first [w] dimensions of the item's descending demand permutation;
    Choose: the set of those dimensions — and two items have equal keys
    under a bin ranking iff they share a class, because a ranking is a
    bijection on dimensions. A select pass takes the earliest fitting
    unplaced item of the smallest-key class that has one, which is the
    fitting item of smallest key (the earliest on ties); and since a bin's
    load only grows while it fills, an item that does not fit stays unfit
    until the bin closes, so each class's cursor only moves forward within
    a bin. An attempt then costs one pass over the unplaced items per bin
    plus, per select pass, one fits test and one key comparison per class,
    where a full scan costs one fits test per unplaced item per select
    pass.

    The items' classes are memoized by item id for one set of demands of
    the state (its [demands] stamp) and one (flavour, window), and
    recomputed when either changes. A scratch must only be used from one
    domain at a time. *)

val scratch : unit -> scratch
(** Fresh, empty scratch. *)

val pack :
  ?flavour:flavour ->
  ?window:int ->
  ?ranking:bin_ranking ->
  scratch:scratch ->
  State.t ->
  bins:int array ->
  items:int array ->
  unit ->
  bool
(** Pack the items (ids, already item-sorted: the order breaks key ties)
    into the bins (ids, already bin-sorted: bins are filled in order),
    from the state's current loads. Each bin is filled by select passes,
    each placing the fitting unplaced item of smallest key (the earliest
    such item on ties), until no item fits; selection goes through the
    scratch's cursors above. Defaults: [Permutation], [window = D] (full
    keys), [By_load]. Returns false when items remain after all bins are
    exhausted, leaving the partial packing in the state. Raises
    [Invalid_argument] on a window [<= 0], and on an item with a negative
    aggregate demand component.

    Counters: [packing.placement_attempts] counts select passes, one per
    placed item plus one final empty pass per bin.
    [packing.perm_keys_tried] counts the candidate keys compared, one per
    key class that offers a fitting item at a select pass. *)
