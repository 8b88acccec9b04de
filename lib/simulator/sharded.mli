(** Sharded online simulation: many independent node shards, one merged,
    deterministic event log.

    The platform's nodes are partitioned into [shards] disjoint shards;
    each shard runs its own {!Engine} with its own pre-split RNG stream
    (derived from [(seed, shard, shards)] with the stable-hash recipe of
    [Experiments.Corpus.seed_of_spec], so streams exist {e before}
    dispatch), its own node sub-array, and — in the adaptive mode — its
    own threshold controller. Because admission, placement, and the
    run-time scheduler all act per node, shards over disjoint node sets
    never interact, so the product of the independent simulations {e is}
    the behaviour of a platform whose resource manager is partitioned —
    the regime the paper's §8 deployment sketch and the reliability /
    capacity-allocation lines of related work study at fleet scale.

    Shard runs fan out over an optional {!Par.Pool}; the per-shard stats
    are returned in shard order whatever the domain count, and the merge
    walks the per-shard event logs by [(time, shard_index)] — lower shard
    index wins ties — so the merged stats, the merged log, and any enabled
    {!Obs.Metrics} snapshot are byte-identical at any [VMALLOC_DOMAINS].
    With one shard the engine's exact RNG stream is kept, making
    [run ~shards:1] bit-identical to {!Engine.run}. *)

type partition_policy =
  | Contiguous
      (** nodes [lo, hi) per shard in platform order — shard sizes differ
          by at most one node, capacities by whatever the platform layout
          happens to put next to each other *)
  | Capacity_balanced
      (** LPT greedy over scalar node capacity (sum of aggregate
          components): nodes by descending capacity, each to the currently
          least-loaded shard. Max and min shard capacity differ by at most
          one node's capacity; with one shard the result is byte-identical
          to [Contiguous]. *)

type result = {
  merged : Engine.stats;
      (** Counters summed across shards; [yield_samples] is the
          [(time, shard)]-merged log whose yield column is the {e global}
          (min-over-shards) piecewise-constant minimum yield at that
          instant; [mean_min_yield] integrates that global minimum;
          [final_threshold] is the max over shards. *)
  per_shard : Engine.stats array;  (** In shard order. *)
  finals : Engine.final_service list array;
      (** Per shard, the services still live at the horizon with their
          final hosts (node ids are shard-local). *)
  timeline : Obs.Timeline.t option;
      (** Present iff [timeline_interval] was given: the merged
          fixed-grid telemetry. Its columns, in order: [yield_min] (global
          min-over-shards yield at the grid instant), [active_services]
          (sum), [shard_imbalance] ((max - mean) / mean of per-shard live
          services, 0 when the platform is empty), and [repairs_per_t] /
          [bins_touched_per_t] / [pivots_per_t] — per-interval counter
          deltas summed over shards, divided by the interval (rates per
          virtual-time unit). *)
}

val shard_seed : seed:int -> shard:int -> shards:int -> int
(** The seed of shard [shard]'s RNG stream when [shards > 1] (a stable
    hash of the tuple). Exposed so tests can replay one shard through
    {!Engine.run} directly; [run ~shards:1] uses [seed] itself instead. *)

val partition :
  ?policy:partition_policy ->
  shards:int ->
  Model.Node.t array ->
  Model.Node.t array array
(** Disjoint partition with per-shard dense node ids; within a shard,
    nodes keep their relative platform order. [policy] defaults to
    [Contiguous]. Raises [Invalid_argument] when [shards < 1] or [shards]
    exceeds the node count. *)

val run :
  ?pool:Par.Pool.t ->
  ?seed:int ->
  ?partition:partition_policy ->
  ?incremental:bool ->
  ?timeline_interval:float ->
  shards:int ->
  Engine.config ->
  platform:Model.Node.t array ->
  result
(** Simulate every shard (in parallel when a pool is given) and merge.
    Deterministic in [seed] and [partition] alone — same seed, same
    stats, at any pool size. [seed] defaults to 0, [partition] to
    [Contiguous]; [incremental] is forwarded to {!Engine.run}.
    [timeline_interval] turns on fixed-grid
    telemetry: every shard samples its engine on the same virtual-time
    grid and the samples are merged in shard order into
    [result.timeline] — a pure function of [(seed, shards, partition,
    config)], byte-identical at any [VMALLOC_DOMAINS] (DESIGN.md §14).
    Raises like {!Engine.run} plus the {!partition} cases. Each shard
    traces a ["shard"] span when {!Obs.Trace} is enabled. *)
