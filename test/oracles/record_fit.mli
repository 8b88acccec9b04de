(** First-Fit and Best-Fit over {!Bin} and {!Item} records — the
    reference of {!Packing.Fit}'s flat loops.

    Same contracts and tie-breaks as {!Packing.Fit.first_fit} and
    {!Packing.Fit.best_fit}, with bins given as records in scan order;
    they mutate the bins and record no metrics. *)

val first_fit : bins:Bin.t array -> items:Item.t array -> bool

val best_fit :
  rank:Packing.Fit.bin_rank -> bins:Bin.t array -> items:Item.t array -> bool

val assignment : bins:Bin.t array -> n_items:int -> int array
(** Item id to bin id read out of the bins' contents, -1 for an item in
    no bin. *)
