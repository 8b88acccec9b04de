(** The online engine's one per-node store of live services, under every
    placement policy (DESIGN.md §13): the bin state the arrival rules read,
    the departure repair pass rewrites, and the yield cache evaluates.

    Each node holds its residents as a list in ascending uid order, plus
    the derived memory load, CPU load (estimated, un-thresholded) and
    resident count. Every change to a node refolds all three over its
    list in that order, so they are a pure function of the resident
    {e set}, independent of the add/remove/move history. That
    canonical-order rule is what makes the in-place path bit-identical to
    a from-scratch {!rebuild} before every decision (locked by
    [test/test_repair_diff.ml]): float addition is not associative, so
    history-dependent running sums would drift across the two paths and
    flip borderline feasibility comparisons.

    The state also keeps, in O(1) per touched node, the number of
    {e unhealthy} bins — bins whose CPU overload proxy
    [capacity / load < 1 - yield_gap] signals drift beyond the configured
    yield gap — so the engine's fallback test ({!healthy}) never scans the
    platform. All decision functions are deterministic given the state and
    the caller's RNG; none of them records metrics (the engine owns the
    [simulator.*] counters). *)

type resident = {
  uid : int;  (** handed out at arrival, so ascending uid is arrival order *)
  cores : int;
  true_cpu : float;  (** aggregate true CPU need *)
  est_cpu : float;  (** aggregate estimated CPU need, before thresholding *)
  memory : float;  (** rigid memory requirement *)
  mutable node : int;  (** current host; set by {!add} *)
}
(** A live service. *)

type t

val create : platform:Model.Node.t array -> yield_gap:float -> t
(** Empty state over the platform's aggregate memory and CPU capacities
    (2-D layout of {!Model.Service.cpu_dim}/{!Model.Service.mem_dim}). *)

val residents : t -> int -> resident list
(** Node [h]'s residents, in ascending uid order. *)

val add : t -> node:int -> resident -> unit
(** Place a resident on [node] (setting its [node] field) and refold that
    node's sums. *)

val remove : t -> resident -> unit
(** Take a resident off the node its [node] field names (the field keeps
    its value) and refold that node's sums. *)

val rebuild : t -> resident array -> unit
(** Replace the whole state with the given residents, each on its [node],
    given in ascending uid order — the full-recompute reference path, and
    the resynchronization step after a re-solve moved services wholesale.
    Raises [Invalid_argument] when two residents of one node come out of
    strictly ascending uid order. *)

val choose :
  t -> Policy.t -> rng:Prng.Rng.t -> mem:float -> int option * int
(** [choose t policy ~rng ~mem] picks the arrival's node, [None] iff its
    memory fits {e no} node under every policy. {!Policy.Resolve} is the
    zero-knowledge spread: the memory-feasible node with the fewest
    residents, the lowest index on ties, examining all [H] nodes and
    drawing nothing from [rng]. {!Policy.Greedy_random} takes the first
    random probe whose memory fits, {!Policy.Best_fit} keeps the feasible
    probe with the least remaining memory; both fall back to a
    deterministic full scan (first-fit / best-fit) when every probe
    misses. Returns the decision plus the number of bins examined. *)

val repair :
  t ->
  target:int ->
  budget:int ->
  on_move:(int -> unit) ->
  int * int
(** [repair t ~target ~budget ~on_move] runs the departure-triggered local
    repair pass: walk the currently CPU-overloaded bins in ascending index
    order — at most 8 of them, keeping the pass local even
    when the whole platform is overloaded — and re-pack their residents
    (largest estimated CPU first, ties by uid) into the just-freed
    [target] bin while memory fits and the move does not overload
    [target], up to [budget] moves. [on_move h] fires once per re-packed
    service, after it moved from bin [h] to [target]. Returns
    [(services moved, bins examined)] — the freed bin counts as one
    examination. *)

val healthy : t -> bool
(** O(1): no bin's overload proxy exceeds the yield gap. The engine falls
    back to a full re-solve when this turns false after a repair pass or
    at a reallocation epoch. *)
