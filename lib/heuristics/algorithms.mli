(** Uniform algorithm registry.

    Every placement algorithm of the paper behind one signature, so the
    experiment harness, CLI, and benches can treat them interchangeably. *)

type kind =
  | Yield_search of Packing.Strategy.t list
      (** a yield binary search whose probe tries the strategies in
          order — steppable, so the batched driver ({!Batch}) can
          interleave its rounds with other requests' *)
  | Direct  (** runs start-to-finish as one opaque task *)

type t = {
  name : string;
  kind : kind;
  solve : Model.Instance.t -> Vp_solver.solution option;
}
(** [solve instance] runs the algorithm sequentially on the calling
    domain. [kind] tells drivers that step the yield search themselves
    ({!Batch}) which algorithms they can step rather than call [solve]. *)

val metagreedy : t
(** Best of the 49 greedy combinations (§3.4). *)

val metavp : t
(** Binary search over the 33 homogeneous vector-packing strategies
    (§3.5.3). *)

val metahvp : t
(** Binary search over the 253 heterogeneous strategies (§3.5.5). *)

val metahvplight : t
(** Binary search over the pruned 60-strategy subset (§5.1). *)

val rrnd : seed:int -> t
val rrnz : seed:int -> t
(** LP-relaxation rounding (§3.3). Deterministic given the seed. *)

val rrnd_probed : seed:int -> t
val rrnz_probed : seed:int -> t
(** Probe-based rounding variants ({!Rounding.rrnd_probed} /
    {!Rounding.rrnz_probed}): probabilities from warm-started yield
    feasibility probes instead of the single maximizing LP. Not part of
    {!majors} (Table 1 keeps the paper's originals). *)

val exact_milp : ?node_limit:int -> unit -> t
(** Branch-and-bound on the full MILP; only tractable on small instances. *)

val single_vp : Packing.Strategy.t -> t
(** A single packing strategy driven by the yield binary search; the name
    is {!Packing.Strategy.name}. *)

val single_greedy : Greedy.sort_strategy -> Greedy.place_strategy -> t

val majors : seed:int -> t list
(** The five algorithms of Table 1: RRND, RRNZ, METAGREEDY, METAVP,
    METAHVP, in that order. *)

val valid_names : string list
(** The names {!by_name} accepts, lowercase, in registry order — for error
    messages and help text. *)

val by_name : seed:int -> string -> t option
(** Look up any registry algorithm by its name (case-insensitive); accepts
    the five majors plus ["METAHVPLIGHT"], ["MILP"], and ["greedy"] — the
    latter resolving to [single_greedy S7 P4], the cheap single-pass
    solver for large online simulations (see {!valid_names}). *)
