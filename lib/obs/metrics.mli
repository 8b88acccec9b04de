(** Deterministic operation metrics for the solver stack.

    A process-wide registry of named counters and (power-of-two bucket)
    histograms, with two invariants:

    - {b Zero overhead when disabled.} Every instrumentation call is a
      single atomic-flag load and branch; no allocation, no lookup, no
      lock. The registry handles themselves are created once at module
      initialization.
    - {b Deterministic when enabled.} Each domain counts into its own
      {e sink} (never a shared cell); {!snapshot} sums every domain's
      sink, including those of domains that have exited, whose counts are
      folded into one retired total as they exit. Counters and histogram
      buckets are integer sums, so the totals cannot depend on which
      domain ran which task, or in what order: because the instrumented
      code performs the same operations whatever the domain count, the
      rendered {!Snapshot} is byte-identical at any [VMALLOC_DOMAINS].
      Nothing in this module ever records a wall-clock time; timestamps
      live only in {!Obs.Trace} exports. *)

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
(** Toggle the global metrics flag. *)

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
end

val snapshot : unit -> Snapshot.t
(** Sum every domain's sink, and the retired total of exited domains,
    into one view. Take snapshots while no {!Par.Pool.map} is in
    flight. *)

val reset : unit -> unit
(** Zero every domain's sink and the retired total (registrations are
    kept). *)
