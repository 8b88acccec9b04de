(** Literal D!-list Permutation-Pack (Leinberger et al.'s formulation).

    Executable specification for {!Permutation_pack}: items are split into
    one list per dimension permutation; for each bin the candidate
    permutations are visited in the lexicographic order induced by the bin's
    own dimension ranking, and the first fitting item found wins. Selection
    is provably identical to the fast key-based implementation at full
    window — the test suite checks this on random workloads — but the cost
    per selection is O(D·D!) instead of O(J·D), which the complexity
    ablation bench demonstrates. Only the full-window Permutation flavour is
    provided. *)

val pack :
  ?ranking:Permutation_pack.bin_ranking ->
  State.t ->
  bins:int array ->
  items:int array ->
  unit ->
  bool
(** Same contract as {!Permutation_pack.pack} with [flavour = Permutation]
    and [window = D], without a scratch; it tests and places through
    {!Fit.fits} and {!State.place} and records no metrics. *)
