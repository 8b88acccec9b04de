(** N-dimensional synthetic workload generator.

    The paper's experiments are 2-D (CPU + memory) because those are the
    resources traces report, but the problem formulation — and this library
    — are parametric in the number of resource dimensions (paper §2, §4).
    This generator exercises that generality: platforms and workloads over
    an arbitrary list of resources (e.g. CPU, memory, network, disk), each
    either {e fluid} (generates needs, scaled to a target utilization of
    total capacity) or {e rigid} (generates requirements, scaled likewise),
    and either poolable (memory-like) or made of discrete elements
    (core-like, with elementary capacities). Used by the dimension-scaling
    ablation and the D>2 test corpus. *)

type resource = {
  name : string;
  poolable : bool;
      (** poolable: elementary capacity = aggregate (memory-like);
          otherwise the node has [elements] identical elements *)
  elements : int;  (** resource elements per node when not poolable *)
  fluid : bool;
      (** fluid: demand is a need (performance scales with allocation);
          rigid: demand is a requirement *)
  utilization : float;
      (** total service demand as a fraction of total platform capacity *)
}

val cpu : resource
(** 4 elements, fluid, utilization 1.0 — the paper's CPU. *)

val memory : resource
(** Poolable, rigid, utilization 0.6 — the paper's memory at slack 0.4. *)

val network : resource
(** 2 elements (NICs), fluid, utilization 0.5. *)

val disk : resource
(** Poolable, rigid, utilization 0.4. *)

val default_resources : resource array
(** [[cpu; memory; network; disk]]. *)

type config = {
  hosts : int;
  services : int;
  cov : float;  (** heterogeneity of node capacities, per dimension *)
  resources : resource array;
}

val generate : ?rng:Prng.Rng.t -> config -> Model.Instance.t
(** Deterministic given the rng (default seed 42). Raises
    [Invalid_argument] on empty resources, non-positive sizes, a negative
    or non-finite [cov], elements < 1, or utilization outside (0, 1]
    (NaN included). *)
