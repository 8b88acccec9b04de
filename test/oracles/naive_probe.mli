(** The naive fresh-allocation probe path — the differential oracle of the
    probe-shared packing kernel in {!Heuristics.Vp_solver}.

    Every probe tries {!Heuristics.Vp_solver.pack_at_yield} over the
    strategies in order — fresh items and bins per attempt, no sort memos,
    no shared scratch — under the same {!Heuristics.Binary_search.maximize}
    the kernel-backed solvers run, so results must match theirs
    bit-for-bit. It records no library metrics; pass [counts] to count its
    probes and strategy attempts instead. *)

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
