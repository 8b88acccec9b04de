(** The sequential bisection loop — the differential oracle of the
    steppable yield search {!Heuristics.Binary_search.plan}.

    A plain [while] loop over the bracket: probe 1, then 0, then the
    midpoint [0.5 *. (lo +. hi)] while [hi -. lo > tolerance].
    {!Heuristics.Binary_search.maximize} must return bit-identical results
    and announce the same probe sequence. It records no library metrics. *)

val maximize :
  ?tolerance:float ->
  ?on_round:(float -> unit) ->
  (float -> 'a option) ->
  ('a * float) option
(** The oracle of {!Heuristics.Binary_search.maximize}, with the same
    tolerance clamp; [on_round] is called with each yield before it is
    probed. *)
