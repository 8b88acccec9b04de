(** Plain-text instance serialization.

    A simple line-oriented format so instances can be generated once, saved,
    inspected by hand, and re-solved with different algorithms (the CLI's
    workflow, and how the paper's published problem sets were shipped).

    Format (version 1):
    {v
    vmalloc-instance 1
    dims D
    nodes H
    node <id> elt <D floats> agg <D floats>     (x H)
    services J
    service <id> req-elt <D floats> req-agg <D floats> \
                 need-elt <D floats> need-agg <D floats>   (x J)
    v}
    Blank lines and lines starting with [#] are ignored. *)

val to_string : Instance.t -> string

val of_string : string -> (Instance.t, string) result
(** Parse; the error carries a line number and reason. Non-finite numbers
    ([nan], [inf]) are rejected, as is anything {!Node.v} or {!Service.v}
    rejects. *)

val write_file : string -> Instance.t -> unit

val read_file : string -> (Instance.t, string) result
