(** Minimal JSON reader, and the string escaper of the writers.

    The repo's emitters ({!Metrics.Snapshot.to_json}, {!Trace.to_json},
    {!Timeline.to_jsonl}) hand-print their JSON, quoting strings with
    {!escape}; {!parse} is the matching hand-rolled parser for code that
    reads it back, such as the repo benchmark's per-layer metrics. Full
    JSON syntax; every number becomes a [float]; string escapes are
    decoded (non-ASCII [\u] escapes degrade to ['?'], which the emitters
    never produce). Total: malformed input is an [Error], never an
    exception. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** members in document order *)

val escape : string -> string
(** [escape s] is [s] with its double quotes, backslashes and newlines
    backslash-escaped, ready to print between double quotes. *)

val parse : string -> (t, string) result
(** Parse one complete JSON document ([Error] carries a one-line message
    with a byte offset). *)

val member : string -> t -> t option
(** Object member lookup; [None] on non-objects and missing keys. *)

val to_num : t -> float option
(** The number, or [Some 0. / Some 1.] for booleans; [None] otherwise. *)

val to_str : t -> string option

val to_list : t -> t list
(** Elements of a [List], [[]] for any other constructor. *)
