(** Strategy enumeration and runner.

    A strategy is an algorithm (First-Fit, Best-Fit, Permutation-Pack /
    Choose-Pack), an item-sorting order, a bin-sorting order and a variant
    flag. The homogeneous variant ([Vp], paper §3.5.1–3.5.3) never sorts
    bins and ranks Best-Fit bins by load; the heterogeneous variant ([Hvp],
    §3.5.4) sorts bins by capacity for First-Fit / Permutation-Pack, and
    ranks by remaining capacity for Best-Fit and for Permutation-Pack's
    per-bin dimension ordering.

    Counting as the paper does: METAVP tries the 33 VP strategies
    (3 algorithms x 11 item orders); METAHVP the 253 HVP strategies
    (11 Best-Fit + 2 x 11 x 11 for FF/PP); METAHVPLIGHT the pruned 60
    (4 Best-Fit + 2 x 4 x 7). *)

type algo =
  | First_fit
  | Best_fit
  | Permutation_pack of { flavour : Permutation_pack.flavour;
                          window : int option }

type variant = Vp | Hvp

type t = {
  algo : algo;
  item_order : Vec.Metric.order;
  bin_order : Vec.Metric.order;  (** ignored by Best-Fit and by [Vp] *)
  variant : variant;
}

val run : scratch:Permutation_pack.scratch -> State.t -> t -> int array option
(** Execute one strategy: empty the state's bins ({!State.reset}), then
    pack its items in the strategy's item order (and bin order, for
    First-Fit and Permutation-Pack under [Hvp]), both read from the
    state's sort memos. On success the result maps item id to bin id; on
    failure the state keeps the partial packing. Permutation-Pack selects
    through [scratch]. *)

val infeasible : State.t -> bool
(** The probe-level infeasibility certificate: [true] proves that no
    strategy of this module packs the state's items into its bins,
    because (a) some item fits no empty bin, or (b) in some dimension the
    items' total aggregate demand exceeds, by a margin of
    [1e-9 *. max 1 cap], the summed aggregate fits thresholds [cap] of the
    bins where some item with positive demand in that dimension fits
    empty. Exact: every strategy places an item only where {!Fit.fits}
    holds, demands are non-negative and loads only grow (DESIGN.md §11).
    [false] proves nothing. Empties the bins first ({!State.reset}). *)

val vp_all : t list
(** The 33 homogeneous strategies of METAVP. *)

val hvp_all : t list
(** The 253 heterogeneous strategies of METAHVP. *)

val hvp_light : t list
(** The 60 heterogeneous strategies of METAHVPLIGHT (paper §5.1). *)

val name : t -> string
(** E.g. ["HVP-PP(DMAX items, ASUM bins)"]. *)
