(** Span tracer with Chrome trace-event export.

    Records named, wall-clock-stamped spans (and instant events) into a
    process-global buffer and exports them in the Chrome trace-event JSON
    format, so a solver run can be opened in [chrome://tracing] or
    Perfetto. Each event carries the recording domain's id as its [tid],
    which makes pool fan-out visible as parallel tracks.

    Tracing is the {e intentionally nondeterministic} half of [Obs]:
    timestamps and durations appear only in the exported file, never on
    stdout — the deterministic counterpart is {!Obs.Metrics}. When
    disabled (the default), {!span} costs one atomic load and branch and
    calls its thunk directly. *)

val enabled : unit -> bool

val start : unit -> unit
(** Begin capturing (does not clear previously captured events). *)

val stop : unit -> unit

val reset : unit -> unit
(** Drop all captured events. *)

val span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f], recording a complete ("X") event with [f]'s
    wall-clock duration when tracing is enabled (also on exceptions).
    [args] become the event's [args] object. *)

val instant : ?args:(string * string) list -> string -> unit
(** Record an instant ("i") event. *)

val event_count : unit -> int
(** Number of captured events. *)

val to_json : unit -> string
(** All captured events, sorted by timestamp, as
    [{"traceEvents": [...], "displayTimeUnit": "ms"}]. *)

val write : string -> unit
(** [write path] writes {!to_json} to [path]. *)

(** {2 Span folding}

    The flat buffer is folded back into a span forest by interval
    nesting within each [tid] (record order breaks exact-tie ambiguity:
    spans are recorded on exit, so at bitwise-identical intervals the
    parent is the later record). From the forest two views are derived:
    per-label aggregates with {e self time} — a span's duration minus
    its direct children's — and collapsed stacks in the format consumed
    by flamegraph.pl and speedscope. *)

type agg = {
  label : string;  (** span name *)
  calls : int;  (** number of spans with this name *)
  total_us : float;  (** summed (inclusive) duration *)
  self_us : float;
      (** summed duration minus time spent in child spans, clamped at 0
          per span instance *)
}

val aggregate : unit -> agg list
(** Per-label fold of every captured complete span, sorted by label. *)

type weight =
  | Self_us  (** line weight = summed self time, microseconds *)
  | Calls  (** line weight = number of span instances on that stack *)

val to_folded : ?weight:weight -> unit -> string
(** Collapsed-stack export: one [root;child;leaf weight] line per
    distinct stack path, sorted by path ([;] / space / newline in span
    names become [_]). [weight] defaults to [Self_us]; [Calls] weights
    are a pure function of the span-nesting structure, so they are
    byte-identical across runs whose span trees match even though the
    recorded durations differ. *)

val write_folded : ?weight:weight -> string -> unit
(** [write_folded path] writes {!to_folded} to [path]. *)
