(** Deterministic operation metrics for the solver stack.

    A process-wide registry of named counters and (power-of-two bucket)
    histograms, with two invariants:

    - {b Zero overhead when disabled.} Every instrumentation call is a
      single atomic-flag load and branch; no allocation, no lookup, no
      lock. The registry handles themselves are created once at module
      initialization.
    - {b Deterministic when enabled.} Increments land in a per-domain
      {e sink} (never a shared cell), and {!Par.Pool.map} runs each task
      against a fresh task-local sink, merging the task sinks into the
      caller's sink {e in task-input order} after the round. Because the
      instrumented code performs the same operations whatever the domain
      count, the merged totals — and the rendered {!Snapshot} — are
      byte-identical at any [VMALLOC_DOMAINS]. Nothing in this module
      ever records a wall-clock time; timestamps live only in
      {!Obs.Trace} exports. *)

type counter
(** Handle to a registered counter (a monotone int). *)

type histogram
(** Handle to a registered histogram (power-of-two value buckets, plus an
    exact count and sum). *)

val counter : string -> counter
(** [counter name] registers (or finds) the counter called [name].
    Idempotent; safe from any domain. Call at module-initialization time,
    not on hot paths. *)

val histogram : string -> histogram
(** [histogram name] registers (or finds) the histogram called [name]. *)

val incr : counter -> unit
(** Add 1 to the counter in the current sink; no-op when disabled. *)

val add : counter -> int -> unit
(** Add [n] to the counter in the current sink; no-op when disabled. *)

val observe : histogram -> int -> unit
(** Record one value into the histogram; no-op when disabled. *)

val enabled : unit -> bool
(** Whether the sinks are live (default: disabled). *)

val set_enabled : bool -> unit
(** Toggle the global metrics flag. Do not toggle while a {!Par.Pool.map}
    is in flight — the pool samples the flag once per map. *)

val enabled_from_env : unit -> bool
(** [true] iff [VMALLOC_OBS] is set to [1], [true], or [yes] — the
    conventional way to run the test suite or a bench with sinks live. *)

(** {1 Sinks}

    Used by {!Par.Pool} to make parallel counting deterministic; normal
    instrumentation code never touches these. *)

type sink
(** A private accumulation buffer. Each domain owns a default sink;
    {!with_sink} temporarily installs a task-local one. A sink must only
    ever be written from one domain at a time. *)

val fresh_sink : unit -> sink
(** An empty, unregistered sink (for one task's deltas). *)

val with_sink : sink -> (unit -> 'a) -> 'a
(** [with_sink s f] runs [f] with [s] installed as the current domain's
    sink, restoring the previous sink afterwards (also on exceptions). *)

val merge_into_current : sink -> unit
(** Fold a task sink's deltas into the current domain's sink. Callers are
    responsible for merge order (input order for determinism). *)

(** {1 Snapshots} *)

module Snapshot : sig
  type t
  (** An immutable, merged view of every registered domain sink. Only
      metrics with at least one recorded event appear. *)

  val counters : t -> (string * int) list
  (** Counter totals, sorted by name. *)

  val counter_value : t -> string -> int
  (** Total for one counter name; 0 when absent. *)

  val render : t -> string
  (** Human-readable listing, sorted by name — byte-identical for equal
      snapshots (used by the determinism tests). *)

  val to_json : t -> string
  (** The snapshot as a JSON object
      [{"counters": {...}, "histograms": {...}}] with keys sorted by
      name (what [--stats-out] writes; {!Json.parse} reads it back). *)

  val equal : t -> t -> bool
end

val snapshot : unit -> Snapshot.t
(** Merge every domain's sink into one view. Call only while no
    {!Par.Pool.map} is in flight. *)

val reset : unit -> unit
(** Zero every domain sink (registrations are kept). *)
