(** Incremental bin state for the engine's online placement policies
    (DESIGN.md §13).

    Tracks, per node, the resident services with their rigid memory
    requirement and estimated aggregate CPU need, plus the derived
    per-node load sums. Every per-node sum is (re)computed by summing the
    node's residents {e in ascending-uid order}, so the sums are a pure
    function of the resident {e sets} — independent of the add/remove/move
    history. That canonical-order rule is what makes the incremental path
    bit-identical to a from-scratch {!rebuild} before every decision
    (locked by [test/test_repair_diff.ml]): float addition is not
    associative, so history-dependent running sums would drift across the
    two paths and flip borderline feasibility comparisons.

    The state also maintains, in O(1) per touched node, the number of
    {e unhealthy} bins — bins whose CPU overload proxy
    [capacity / load < 1 - yield_gap] signals drift beyond the configured
    yield gap — so the engine's fallback test ({!healthy}) never scans the
    platform. All decision functions are deterministic given the state and
    the caller's RNG; none of them records metrics (the engine owns the
    [simulator.*] counters). *)

type entry = { uid : int; mem : float; cpu : float }
(** One resident service: rigid memory requirement and estimated aggregate
    CPU need (un-thresholded, matching the engine's [est_cpu]). *)

type t

val create : platform:Model.Node.t array -> yield_gap:float -> t
(** Empty state over the platform's aggregate memory and CPU capacities
    (2-D layout of {!Model.Service.cpu_dim}/{!Model.Service.mem_dim}). *)

val add : t -> node:int -> entry -> unit
(** Register a resident and refresh that node's sums. *)

val remove : t -> node:int -> uid:int -> unit
(** Unregister (no-op when absent) and refresh that node's sums. *)

val rebuild : t -> (int * entry) array -> unit
(** Replace the whole state with the given [(node, entry)] ground truth —
    the full-recompute reference path, and the resynchronization step
    after a fallback re-solve moved services wholesale. *)

val choose :
  t -> Policy.t -> rng:Prng.Rng.t -> mem:float -> int option * int
(** [choose t policy ~rng ~mem] picks the arrival's node:
    {!Policy.Greedy_random} takes the first random probe whose memory
    fits, {!Policy.Best_fit} keeps the feasible probe with the least
    remaining memory; both fall back to a deterministic full scan
    (first-fit / best-fit) when every probe misses, so an arrival is
    rejected ([None]) iff it fits {e no} node — the same criterion as the
    resolve path's admission. Returns the decision plus the number of bins
    examined. Raises [Invalid_argument] on {!Policy.Resolve}, which keeps
    its own admission rule. *)

val repair :
  t ->
  target:int ->
  budget:int ->
  on_move:(uid:int -> node:int -> unit) ->
  int * int
(** [repair t ~target ~budget ~on_move] runs the departure-triggered local
    repair pass: walk the currently CPU-overloaded bins in ascending index
    order — at most 8 of them, keeping the pass local even
    when the whole platform is overloaded — and re-pack their residents
    (largest estimated CPU first, ties by uid) into the just-freed
    [target] bin while memory fits and the move does not overload
    [target], up to [budget] moves. [on_move] fires once per re-packed
    service. Returns [(services moved, bins examined)] — the freed bin
    counts as one examination. *)

val healthy : t -> bool
(** O(1): no bin's overload proxy exceeds the yield gap. The engine falls
    back to a full re-solve when this turns false after a repair pass or
    at a reallocation epoch. *)
