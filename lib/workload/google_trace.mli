(** Statistical model of the Google cluster dataset [19].

    The paper instantiates service resource demands from the 2010 Google
    cluster data, using exactly two marginals: the number of requested cores
    per task and the fraction of system memory used. The dataset is not
    shippable, so this module is the synthetic substitute documented in
    DESIGN.md §3: requested cores follow a discrete distribution heavily
    concentrated on one core (as in the public trace, where the vast
    majority of tasks request a single CPU), and memory fractions follow a
    truncated lognormal whose mass sits well below 10% of a machine —
    reproducing the "many small, few large" shape that drives the memory
    bin-packing hardness. Both marginals are subsequently rescaled by the
    generator (CPU to total capacity, memory to a target slack), so only
    their shapes matter. *)

type task = {
  cores : int;
  memory_fraction : float;
      (** In (0, 0.5]: truncated lognormal; raw machine fraction before
          slack rescaling. *)
}

val core_distribution : (int * float) array
(** (cores, probability) pairs; probabilities sum to 1. *)

val max_cores : int
(** Largest core count the model produces (4, matching the paper's
    quad-core reference platform). *)

val sample_cores : Prng.Rng.t -> int

val sample : Prng.Rng.t -> task
