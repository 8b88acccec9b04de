(** The greedy node scan as first written — the differential oracle of
    {!Heuristics.Greedy}.

    Every combination sorts the services afresh, and every candidate node
    is judged through {!Yield_ref.fits}, {!Vec.Vector.get} and a score
    function over per-node load records. {!Heuristics.Greedy.place} and
    {!Heuristics.Greedy.metagreedy} must return bit-identical placements
    and yields. It records no library metrics; pass [counts] to count its
    candidate evaluations and placements instead. *)

type counts = { candidate_evals : int ref; placements : int ref }

val counts : unit -> counts
(** Fresh zeroed counters. *)

val place :
  ?counts:counts ->
  Heuristics.Greedy.sort_strategy ->
  Heuristics.Greedy.place_strategy ->
  Model.Instance.t ->
  Model.Placement.t option
(** The oracle of {!Heuristics.Greedy.place}. *)

val metagreedy :
  ?counts:counts -> Model.Instance.t -> Heuristics.Vp_solver.solution option
(** The oracle of {!Heuristics.Greedy.metagreedy}: the best of the 49
    combinations, earliest on ties. *)
