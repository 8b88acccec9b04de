type solution = {
  placement : Model.Placement.t;
  min_yield : float;
}

let items_at_yield instance y =
  Array.init (Model.Instance.n_services instance) (fun j ->
      let s = Model.Instance.service instance j in
      Packing.Item.v ~id:j ~demand:(Model.Service.demand_at_yield s y))

let fresh_bins instance =
  Array.init (Model.Instance.n_nodes instance) (fun h ->
      let node = Model.Instance.node instance h in
      Packing.Bin.v ~id:h ~capacity:node.Model.Node.capacity)

let pack_at_yield strategy instance y =
  let items = items_at_yield instance y in
  let bins = fresh_bins instance in
  Packing.Strategy.run strategy ~bins ~items

(* Oracle-level observability: how many fixed-yield probes a solve costs,
   how many strategy attempts each probe burns before one packs, and which
   strategy actually wins (the question behind METAHVP's 253-strategy
   bill). Counting is keyed off strategy identity only, so totals are
   deterministic for a fixed amount of performed work. *)
let c_oracle = Obs.Metrics.counter "vp_solver.oracle_calls"
let c_feasible = Obs.Metrics.counter "vp_solver.oracle_feasible"
let c_attempts = Obs.Metrics.counter "vp_solver.strategy_attempts"
let h_win_index = Obs.Metrics.histogram "vp_solver.strategies_per_win"

let win_counter strategy =
  Obs.Metrics.counter ("vp_solver.win." ^ Packing.Strategy.name strategy)

let probe_args y = [ ("y", Printf.sprintf "%.6f" y) ]

(* Probe-shared packing kernel (DESIGN.md §11). Every strategy attempt of
   one fixed-yield probe sees the same item demands, so the kernel holds
   one item array whose demand vectors are refilled in place per probe (a
   fused [r + y*n] pass over the instance's flattened buffers), recycles
   one bin array via [Bin.reset] instead of reallocating per attempt, and
   memoizes per-probe sort orders and Permutation-Pack item permutations
   through [Strategy.cache].

   Bit-identity with the naive fresh-allocation path ([pack_at_yield] per
   strategy): refilled demands use the exact [axpy] expression fresh
   allocation uses; reset bins equal fresh bins; memoized sorts are the
   same stable sorts over the same values; and the scratch-backed
   Permutation-Pack selection compares the same keys with the same
   tie-breaks. Locked down by test_kernel_diff.ml. *)
type kernel = {
  k_items : Packing.Item.t array;
  k_bins : Packing.Bin.t array;
  k_cache : Packing.Strategy.cache;
  mutable k_yield : float;  (* yield k_items currently hold; nan = none *)
}

let make_kernel instance =
  let dims = instance.Model.Instance.dims in
  {
    k_items =
      Array.init (Model.Instance.n_services instance) (fun j ->
          Packing.Item.v ~id:j ~demand:(Vec.Epair.zero dims));
    k_bins = fresh_bins instance;
    k_cache = Packing.Strategy.cache ();
    k_yield = Float.nan;
  }

let refill inst k yld =
  if not (k.k_yield = yld) then begin
    let dims = inst.Model.Instance.dims in
    Array.iteri
      (fun j (it : Packing.Item.t) ->
        let off = j * dims in
        Vec.Vector.axpy_fill it.Packing.Item.demand.Vec.Epair.elementary yld
          ~x:inst.Model.Instance.need_elem ~y:inst.Model.Instance.req_elem
          ~off;
        Vec.Vector.axpy_fill it.Packing.Item.demand.Vec.Epair.aggregate yld
          ~x:inst.Model.Instance.need_agg ~y:inst.Model.Instance.req_agg ~off)
      k.k_items;
    Packing.Strategy.cache_new_probe k.k_cache;
    k.k_yield <- yld
  end

(* The kernels of one solve. The oracle may be called from several
   domains at once ({!batch_oracle}), so a probe takes a free kernel — or
   makes one when none is free — and gives it back when done: a solve
   never holds more kernels than it ran concurrent probes, and they die
   with it. Every kernel computes the same bits, so results do not depend
   on which probe got which kernel. *)
type kernels = {
  instance : Model.Instance.t;
  lock : Mutex.t;
  mutable free : kernel list;
}

let take ks =
  let k =
    Mutex.protect ks.lock (fun () ->
        match ks.free with
        | k :: rest ->
            ks.free <- rest;
            Some k
        | [] -> None)
  in
  match k with Some k -> k | None -> make_kernel ks.instance

let give ks k = Mutex.protect ks.lock (fun () -> ks.free <- k :: ks.free)

(* One fixed-yield probe: the strategies in order until one packs. *)
let probe ks strategies yld =
  Obs.Trace.span "probe" ~args:(probe_args yld) @@ fun () ->
  Obs.Metrics.incr c_oracle;
  let k = take ks in
  refill ks.instance k yld;
  let rec attempt idx = function
    | [] -> None
    | strategy :: rest -> (
        Obs.Metrics.incr c_attempts;
        Array.iter Packing.Bin.reset k.k_bins;
        match
          Packing.Strategy.run ~cache:k.k_cache strategy ~bins:k.k_bins
            ~items:k.k_items
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
  let result = attempt 1 strategies in
  give ks k;
  result

let oracle strategies instance =
  probe { instance; lock = Mutex.create (); free = [] } strategies

let batch_oracle = oracle

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
