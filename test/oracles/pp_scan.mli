(** Permutation-Pack by full scan — the reference of the per-key-class
    cursors in {!Packing.Permutation_pack}.

    Every select pass builds the key of every fitting unplaced item and
    keeps the smallest (the earliest on ties), so it needs no scratch and
    no class memo. Same contract, defaults and placement order as
    {!Packing.Permutation_pack.pack}; it records no metrics. *)

val item_key : bin_perm_pos:int array -> Item.t -> int array
(** [item_key ~bin_perm_pos item] maps the item's descending-demand
    dimension permutation through the bin's ranking positions; position
    array [bin_perm_pos.(d)] is the rank of dimension [d] in the bin's
    ordering. *)

val compare_keys :
  Packing.Permutation_pack.flavour -> window:int -> int array -> int array ->
  int
(** Lexicographic key comparison restricted to the window, set-wise for
    Choose-Pack. *)

val pack :
  ?flavour:Packing.Permutation_pack.flavour ->
  ?window:int ->
  ?ranking:Packing.Permutation_pack.bin_ranking ->
  bins:Bin.t array ->
  items:Item.t array ->
  unit ->
  bool
(** {!Packing.Permutation_pack.pack} without a scratch. *)
