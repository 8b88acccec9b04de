(** Fixed-size domain pool for deterministic fan-out of independent work.

    The paper's evaluation is embarrassingly parallel — hundreds of
    independent (instance, algorithm) trials — so the experiment drivers
    hand their trial arrays to a pool of OCaml 5 domains; a batched solve
    ([Heuristics.Batch]) maps its tenants and the sharded simulator its
    shards the same way, one task each. Determinism is
    preserved by construction: every trial owns an RNG stream derived
    {e before} dispatch (from the stable per-spec hashes in
    {!Experiments.Corpus} or an explicit {!Prng.Rng.split}), tasks never
    share mutable state, and {!map} returns results in input order, so the
    fold that aggregates them observes exactly the sequential order. A pool
    of size 1 short-circuits to [Array.map] — the legacy path.

    Built on the 5.1 stdlib only ([Domain], [Mutex], [Condition],
    [Atomic]); no external scheduler. Worker domains live for the lifetime
    of the pool, and the calling domain participates in every map, so a
    pool never deadlocks even if its workers are busy elsewhere. *)

type t

val create : domains:int -> t
(** [create ~domains] spawns [domains - 1] worker domains (the caller is
    the remaining member). [domains] is clamped below at 1. Pools are
    cheap but not free — create one per run, not per trial batch.

    @raise Invalid_argument naming the count when the runtime cannot run
    that many domains; the workers already spawned are shut down first. *)

val size : t -> int
(** Total parallelism, including the calling domain; [>= 1]. *)

val map : t -> 'a array -> ('a -> 'b) -> 'b array
(** [map pool arr f] applies [f] to every element, fanning the work over
    the pool's domains, and returns the results {e in input order}. The
    calling domain works too, so this makes progress with any pool size.
    If any [f] raises, the exception of the lowest failing index is
    re-raised in the caller after every task has finished — the one
    [Array.map] would raise, whatever the pool size. Tasks must not
    themselves call into the same pool: a nested [map] on the pool whose
    task is executing raises [Invalid_argument] (detected per domain, on
    every pool size — previously this failed silently or starved). Maps
    on a {e different} pool from inside a task are allowed.

    When {!Obs.Metrics} is enabled, every task runs against a fresh
    task-local metric sink and the task sinks are merged into the caller's
    sink {e in input order} after the round, so metric totals are
    byte-identical to the sequential run at any pool size (the enabled
    flag is sampled once per map; do not toggle it mid-map). *)

val shutdown : t -> unit
(** Join the worker domains. Idempotent; the pool is unusable after. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** Scoped [create]/[shutdown] (shutdown also runs on exceptions). *)

val domains_from_env : unit -> int
(** Parallelism selector: [VMALLOC_DOMAINS] if set to a positive integer
    ([1] = legacy sequential path), else
    [Domain.recommended_domain_count ()]. *)
