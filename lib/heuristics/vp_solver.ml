type solution = {
  placement : Model.Placement.t;
  min_yield : float;
}

(* Oracle-level observability: how many fixed-yield probes a solve costs,
   how many strategy attempts each probe burns before one packs, and which
   strategy actually wins (the question behind METAHVP's 253-strategy
   bill). Counting is keyed off strategy identity only, so totals are
   deterministic for a fixed amount of performed work. *)
let c_oracle = Obs.Metrics.counter "vp_solver.oracle_calls"
let c_feasible = Obs.Metrics.counter "vp_solver.oracle_feasible"
let c_attempts = Obs.Metrics.counter "vp_solver.strategy_attempts"
let c_certified = Obs.Metrics.counter "vp_solver.probes_certified"
let h_win_index = Obs.Metrics.histogram "vp_solver.strategies_per_win"

let win_counter strategy =
  Obs.Metrics.counter ("vp_solver.win." ^ Packing.Strategy.name strategy)

let probe_args y = [ ("y", Printf.sprintf "%.6f" y) ]

(* The instance as a packing problem: one bin per node, of its capacity,
   and one item per service, whose demands [fill] writes at a yield with
   the exact [axpy] expression [Service.demand_at_yield] uses (a fused
   [r + y*n] pass over the instance's flattened buffers). *)
let new_state instance =
  Packing.State.create ~dims:instance.Model.Instance.dims
    ~capacities:
      (Array.map
         (fun (n : Model.Node.t) -> n.capacity)
         instance.Model.Instance.nodes)
    ~n_items:(Model.Instance.n_services instance)

let fill instance st yld =
  Packing.State.fill_at_yield st yld
    ~need_elem:instance.Model.Instance.need_elem
    ~req_elem:instance.Model.Instance.req_elem
    ~need_agg:instance.Model.Instance.need_agg
    ~req_agg:instance.Model.Instance.req_agg

let state_at_yield instance yld =
  let st = new_state instance in
  fill instance st yld;
  st

(* Probe-shared packing kernel (DESIGN.md §11). Every strategy attempt of
   one fixed-yield probe sees the same item demands, so the kernel holds
   one flat packing state for the whole solve: bin capacities and fits
   thresholds written once, item demands refilled per probe, bins emptied
   per attempt instead of reallocated, and sort orders and
   Permutation-Pack item key classes memoized per probe. The search never
   probes one yield twice, so every probe refills.

   Bit-identity with a fresh-allocation probe (new items and bins per
   attempt, fresh sorts, Permutation-Pack by full scan): the thresholds
   are the expressions the record bins' fits test evaluated, and the
   loads and running sums the same left folds; memoized sorts are the
   same stable sorts over the same values; and the per-key-class cursors
   pick the item the full scan picks. test_kernel_diff.ml locks this
   against that reference, [Oracles.Naive_probe]. *)
type kernel = {
  k_state : Packing.State.t;
  k_scratch : Packing.Permutation_pack.scratch;
}

let make_kernel instance =
  {
    k_state = new_state instance;
    k_scratch = Packing.Permutation_pack.scratch ();
  }

(* One fixed-yield probe: the strategies in order until one packs, unless
   the infeasibility certificate refutes the probe first, which proves
   that every strategy would fail. The solve's one kernel serves every
   probe, which the search runs one after another on the calling domain;
   each attempt starts on empty bins. *)
let probe instance k strategies yld =
  Obs.Trace.span "probe" ~args:(probe_args yld) @@ fun () ->
  Obs.Metrics.incr c_oracle;
  fill instance k.k_state yld;
  let rec attempt idx = function
    | [] -> None
    | strategy :: rest -> (
        Obs.Metrics.incr c_attempts;
        match
          Packing.Strategy.run ~scratch:k.k_scratch k.k_state strategy
        with
        | None -> attempt (idx + 1) rest
        | Some placement ->
            if Obs.Metrics.enabled () then begin
              Obs.Metrics.incr c_feasible;
              Obs.Metrics.incr (win_counter strategy);
              Obs.Metrics.observe h_win_index idx
            end;
            Obs.Trace.instant "win"
              ~args:
                (("strategy", Packing.Strategy.name strategy)
                :: probe_args yld);
            Some placement)
  in
  if Packing.Strategy.infeasible k.k_state then begin
    Obs.Metrics.incr c_certified;
    None
  end
  else attempt 1 strategies

let oracle strategies instance =
  probe instance (make_kernel instance) strategies

let evaluate instance placement =
  match Model.Placement.min_yield instance placement with
  | None -> None
  | Some y -> Some { placement; min_yield = y }

let finish instance = function
  | None -> None
  | Some (placement, _probed_yield) -> evaluate instance placement

let solve ?tolerance strategy instance =
  Obs.Trace.span "solve" ~args:[ ("strategy", Packing.Strategy.name strategy) ]
  @@ fun () ->
  Binary_search.maximize ?tolerance (oracle [ strategy ] instance)
  |> finish instance

let solve_multi ?tolerance strategies instance =
  Obs.Trace.span "solve_multi"
    ~args:[ ("strategies", string_of_int (List.length strategies)) ]
  @@ fun () ->
  Binary_search.maximize ?tolerance (oracle strategies instance)
  |> finish instance
