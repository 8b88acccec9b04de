(** Deterministic fixed-interval time series (sim-clock gauges).

    A timeline is a fixed set of named gauge columns sampled on a fixed
    virtual-time grid. The container records whatever its producer hands
    it — the online simulator samples global yield, active services,
    shard imbalance, and repair/bins/pivot rates on the sim clock
    (DESIGN.md §14) — and guarantees that bitwise-equal samples serialize
    to {e byte-identical} JSONL and Prometheus text, whatever the domain
    or shard count that produced them. Nothing here reads a wall clock. *)

type t

val create : interval:float -> cols:string array -> t
(** A timeline with the given sampling interval (virtual time units) and
    column names. Raises [Invalid_argument] on an interval that is not
    finite and positive (NaN included) or an empty column set. *)

val append : t -> time:float -> float array -> unit
(** Append one sample row (values in column order; the array is copied).
    Raises [Invalid_argument] on a width mismatch. Rows are expected in
    chronological order; the container does not re-sort. *)

val interval : t -> float

val cols : t -> string array

val length : t -> int
(** Number of sample rows. *)

val rows : t -> (float * float array) list
(** All rows, chronological. *)

val to_jsonl : t -> string
(** One self-describing header object
    [{"timeline": {"interval", "samples", "cols"}}] followed by one JSON
    object per sample ([{"t": ..., "<col>": ...}]), newline-delimited.
    Byte-identical for bitwise-equal timelines. *)

val to_prom : t -> string
(** Prometheus-style text exposition: per column a [# HELP]/[# TYPE gauge]
    header and one [vmalloc_<col> <value> <sim-time-ms>] line per sample.
    Byte-identical for bitwise-equal timelines. *)

val equal : t -> t -> bool
(** Structural equality of interval, columns, and rows (bitwise on
    floats via [=] — equal NaNs compare unequal, which the simulator's
    gauges never produce). *)
