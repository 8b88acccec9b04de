(** Problem-instance generator (paper §4).

    Platforms: [hosts] quad-core nodes whose aggregate CPU and memory
    capacities are drawn from a normal distribution with median 0.5 and the
    requested coefficient of variation, truncated to [0.001, 1.0]; CPU
    elementary capacity is a quarter of the aggregate, memory is fully
    poolable. Either resource can be held homogeneous at 0.5 (Figures 3–4).

    Workloads: each service is a Google-trace task (see {!Google_trace}).
    CPU is all fluid need — elementary need equal to a common per-core
    reference value [c] and aggregate need [c * cores], with [c] chosen so
    that total CPU need equals total CPU capacity. Memory is all rigid
    requirement, rescaled so that a successful allocation leaves exactly
    [slack] of the total memory free. *)

type config = {
  hosts : int;
  services : int;
  cov : float;  (** coefficient of variation of node capacities, in [0,1] *)
  slack : float;  (** memory slack, in (0,1) — low = harder instance *)
  cpu_homogeneous : bool;  (** hold all CPU capacities at 0.5 (Fig. 3) *)
  mem_homogeneous : bool;  (** hold all memory capacities at 0.5 (Fig. 4) *)
}

val default : config
(** 64 hosts, 100 services, cov 0.5, slack 0.4, fully heterogeneous. *)

val generate : ?rng:Prng.Rng.t -> config -> Model.Instance.t
(** Deterministic given the rng (default seed 42). Raises
    [Invalid_argument] on nonsensical parameters ([hosts/services <= 0],
    [cov] negative or non-finite, [slack] outside (0, 1) or NaN). *)

