(** The pool a batched solve fans out over, under its older name.

    A batch is one {!Pool.map} over its tenants ([Heuristics.Batch]), so
    a scheduler is the pool itself. The alias stays for callers that
    still build one from a pool; new code passes the pool directly. *)

type t = Pool.t

val create : pool:Pool.t -> t
(** [create ~pool] is [pool]. The pool is not owned: the caller keeps
    responsibility for shutting it down. *)
