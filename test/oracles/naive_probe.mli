(** The naive fresh-allocation probe path — the differential oracle of the
    probe-shared packing kernel in {!Heuristics.Vp_solver}.

    Every probe tries {!pack_at_yield} over the strategies in order: fresh
    items and bins per attempt, sorts made afresh with {!Vec.Metric.sort},
    First-Fit and Best-Fit over records ({!Record_fit}) and
    Permutation-Pack by full scan ({!Pp_scan}) — no flat state, no sort
    memos, no cursors, no certificate.
    The search is the same {!Heuristics.Binary_search.maximize} the
    kernel-backed solvers run, so results must match theirs bit-for-bit.
    It records no [vp_solver] metrics; pass [counts] to count its probes
    and strategy attempts instead. *)

val items_at_yield : Model.Instance.t -> float -> Item.t array
(** Service demands at a common yield, in service-id order. *)

val fresh_bins : Model.Instance.t -> Bin.t array
(** Empty bins mirroring the instance's nodes. *)

val run :
  Packing.Strategy.t ->
  bins:Bin.t array ->
  items:Item.t array ->
  int array option
(** {!Packing.Strategy.run} over records, without memos. *)

val pack_at_yield :
  Packing.Strategy.t -> Model.Instance.t -> float -> Model.Placement.t option
(** One fixed-yield feasibility probe with a single strategy, on fresh
    items and bins. *)

type counts = { probes : int Atomic.t; attempts : int Atomic.t }

val counts : unit -> counts
(** Fresh zeroed counters. *)

val solve_multi :
  ?tolerance:float ->
  ?counts:counts ->
  Packing.Strategy.t list ->
  Model.Instance.t ->
  Heuristics.Vp_solver.solution option
(** The oracle of {!Heuristics.Vp_solver.solve_multi}. *)

val solve :
  ?tolerance:float ->
  ?counts:counts ->
  Packing.Strategy.t ->
  Model.Instance.t ->
  Heuristics.Vp_solver.solution option
(** The oracle of {!Heuristics.Vp_solver.solve}: [solve_multi] over the
    one strategy. *)
