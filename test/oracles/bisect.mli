(** The sequential bisection loop — the differential oracle of the yield
    search {!Heuristics.Binary_search.maximize}.

    A plain [while] loop over the bracket: probe 1, then 0, then the
    midpoint [0.5 *. (lo +. hi)] while [hi -. lo > tolerance].
    {!Heuristics.Binary_search.maximize} must return bit-identical results
    and call its oracle at the same sequence of yields. It records no
    library metrics. *)

val maximize :
  ?tolerance:float ->
  (float -> 'a option) ->
  ('a * float) option
(** The oracle of {!Heuristics.Binary_search.maximize}, with the same
    tolerance clamp. *)
