type algo =
  | First_fit
  | Best_fit
  | Permutation_pack of { flavour : Permutation_pack.flavour;
                          window : int option }

type variant = Vp | Hvp

type t = {
  algo : algo;
  item_order : Vec.Metric.order;
  bin_order : Vec.Metric.order;
  variant : variant;
}

let assignment ~bins ~n_items =
  let assign = Array.make n_items (-1) in
  Array.iter
    (fun (bin : Bin.t) ->
      List.iter (fun item_id -> assign.(item_id) <- bin.Bin.id) bin.contents)
    bins;
  assign

(* Probe-shared sort memos. Most of the 253 HVP strategies differ only in
   packing rule or bin order, not item measure, so within one fixed-yield
   probe each distinct sorted item order need only be computed once. Bin
   orders sort by capacity, which never changes, so those memos survive
   for the lifetime of the cache. The memoized arrays alias the caller's
   item/bin records (the packing loops only read items and mutate bins in
   place), and are built by [Vec.Metric.sort] — a stable sort, so a memo
   hit returns exactly the order a fresh sort would. Counted under the
   solver's namespace: it is [Vp_solver]'s probe bill these hits cut. *)
let c_item_hits = Obs.Metrics.counter "vp_solver.items_cache_hits"

type cache = {
  mutable sorted_items : (Vec.Metric.order * Item.t array) list;
  mutable sorted_bins : (Vec.Metric.order * Bin.t array) list;
  pp_scratch : Permutation_pack.scratch;
  (* [infeasible]'s per-dimension scratch. *)
  mutable demand_sum : float array;
  mutable usable_cap : float array;
  mutable usable : bool array;
}

let cache () =
  { sorted_items = []; sorted_bins = [];
    pp_scratch = Permutation_pack.scratch (); demand_sum = [||];
    usable_cap = [||]; usable = [||] }

let cache_new_probe c =
  c.sorted_items <- [];
  Permutation_pack.scratch_new_probe c.pp_scratch

let items_in_order c order items =
  match List.assoc_opt order c.sorted_items with
  | Some sorted ->
      Obs.Metrics.incr c_item_hits;
      sorted
  | None ->
      let sorted = Vec.Metric.sort order Item.size items in
      c.sorted_items <- (order, sorted) :: c.sorted_items;
      sorted

let bins_in_order c order bins =
  match List.assoc_opt order c.sorted_bins with
  | Some sorted -> sorted
  | None ->
      let sorted = Vec.Metric.sort order Bin.size bins in
      c.sorted_bins <- (order, sorted) :: c.sorted_bins;
      sorted

let run ~cache t ~bins ~items =
  let items = items_in_order cache t.item_order items in
  let bins =
    match (t.variant, t.algo) with
    | Vp, _ | _, Best_fit -> bins
    | Hvp, (First_fit | Permutation_pack _) ->
        bins_in_order cache t.bin_order bins
  in
  let ok =
    match t.algo with
    | First_fit -> Fit.first_fit ~bins ~items
    | Best_fit ->
        let rank =
          match t.variant with
          | Vp -> Fit.By_load
          | Hvp -> Fit.By_remaining
        in
        Fit.best_fit ~rank ~bins ~items
    | Permutation_pack { flavour; window } ->
        let ranking =
          match t.variant with
          | Vp -> Permutation_pack.By_load
          | Hvp -> Permutation_pack.By_remaining_capacity
        in
        Permutation_pack.pack ~flavour ?window ~ranking
          ~scratch:cache.pp_scratch ~bins ~items ()
  in
  if ok then Some (assignment ~bins ~n_items:(Array.length items)) else None

(* The probe-level infeasibility certificate (DESIGN.md §11). Every
   strategy places an item only where [Bin.fits] holds; demands are
   non-negative, so a bin's load only grows. Hence (a) an item that fits
   no empty bin fits no bin at any point of any strategy, and (b) in each
   dimension the items with positive demand there can only land in bins
   where one of them fits empty, each of which ends below its [Bin.fits]
   threshold; so their total demand cannot exceed the sum of those
   thresholds. The float sums involved (bin loads, demand total,
   threshold total) are off by about (2 items + bins) x 2^-53 of the
   total at most, far below [margin]. Loops only, over the cache's
   scratch arrays: a call allocates nothing once the scratch is sized. *)
let margin = 1e-9

(* [c.usable] := the dimensions in which [bin] is usable: some item with
   positive demand there fits it empty. Stops once all [wanted]
   dimensions with demand are found. *)
let usable_dims c bin ~items ~wanted =
  let d = Bin.dim bin in
  let usable = c.usable in
  Array.fill usable 0 d false;
  let missing = ref wanted and j = ref 0 in
  while !missing > 0 && !j < Array.length items do
    let item = items.(!j) in
    let agg = (item.Item.demand.Vec.Epair.aggregate :> float array) in
    let adds = ref false in
    for k = 0 to d - 1 do
      if agg.(k) > 0. && not usable.(k) then adds := true
    done;
    if !adds && Bin.fits bin item then
      for k = 0 to d - 1 do
        if agg.(k) > 0. && not usable.(k) then begin
          usable.(k) <- true;
          decr missing
        end
      done;
    incr j
  done

let infeasible c ~bins ~items =
  Array.length items > 0
  &&
  let d = Vec.Epair.dim items.(0).Item.demand in
  if Array.length c.demand_sum < d then begin
    c.demand_sum <- Array.make d 0.;
    c.usable_cap <- Array.make d 0.;
    c.usable <- Array.make d false
  end;
  let total = c.demand_sum and cap = c.usable_cap in
  Array.fill total 0 d 0.;
  Array.fill cap 0 d 0.;
  (* (a), summing the demands on the way. *)
  let homeless = ref false and j = ref 0 in
  while (not !homeless) && !j < Array.length items do
    let item = items.(!j) in
    let agg = (item.Item.demand.Vec.Epair.aggregate :> float array) in
    for k = 0 to d - 1 do
      total.(k) <- total.(k) +. agg.(k)
    done;
    let b = ref 0 in
    while !b < Array.length bins && not (Bin.fits bins.(!b) item) do
      incr b
    done;
    homeless := !b = Array.length bins;
    incr j
  done;
  !homeless
  ||
  (* (b) *)
  let wanted = ref 0 in
  for k = 0 to d - 1 do
    if total.(k) > 0. then incr wanted
  done;
  for b = 0 to Array.length bins - 1 do
    let bin = bins.(b) in
    usable_dims c bin ~items ~wanted:!wanted;
    let ca = (bin.Bin.capacity.Vec.Epair.aggregate :> float array) in
    for k = 0 to d - 1 do
      if c.usable.(k) then
        cap.(k) <-
          cap.(k) +. (ca.(k) +. (Vec.Vector.eps *. Float.max 1. ca.(k)))
    done
  done;
  let over = ref false in
  for k = 0 to d - 1 do
    if total.(k) > cap.(k) +. (margin *. Float.max 1. cap.(k)) then over := true
  done;
  !over

let algos =
  [
    First_fit;
    Best_fit;
    Permutation_pack { flavour = Permutation_pack.Permutation; window = None };
  ]

let vp_all =
  List.concat_map
    (fun algo ->
      List.map
        (fun item_order ->
          { algo; item_order; bin_order = Vec.Metric.Unsorted; variant = Vp })
        Vec.Metric.all_orders)
    algos

let hvp_all =
  let best_fit =
    List.map
      (fun item_order ->
        { algo = Best_fit; item_order; bin_order = Vec.Metric.Unsorted;
          variant = Hvp })
      Vec.Metric.all_orders
  in
  let sorted_bins =
    List.concat_map
      (fun algo ->
        List.concat_map
          (fun item_order ->
            List.map
              (fun bin_order -> { algo; item_order; bin_order; variant = Hvp })
              Vec.Metric.all_orders)
          Vec.Metric.all_orders)
      [
        First_fit;
        Permutation_pack
          { flavour = Permutation_pack.Permutation; window = None };
      ]
  in
  best_fit @ sorted_bins

(* The pruned strategy subset identified in paper §5.1. *)
let light_item_orders =
  Vec.Metric.
    [
      Desc (Scalar Max);
      Desc (Scalar Sum);
      Desc (Scalar Max_difference);
      Desc (Scalar Max_ratio);
    ]

let light_bin_orders =
  Vec.Metric.
    [
      Asc Lex;
      Asc (Scalar Max);
      Asc (Scalar Sum);
      Desc (Scalar Max);
      Desc (Scalar Max_difference);
      Desc (Scalar Max_ratio);
      Unsorted;
    ]

let hvp_light =
  let best_fit =
    List.map
      (fun item_order ->
        { algo = Best_fit; item_order; bin_order = Vec.Metric.Unsorted;
          variant = Hvp })
      light_item_orders
  in
  let sorted_bins =
    List.concat_map
      (fun algo ->
        List.concat_map
          (fun item_order ->
            List.map
              (fun bin_order -> { algo; item_order; bin_order; variant = Hvp })
              light_bin_orders)
          light_item_orders)
      [
        First_fit;
        Permutation_pack
          { flavour = Permutation_pack.Permutation; window = None };
      ]
  in
  best_fit @ sorted_bins

let algo_name = function
  | First_fit -> "FF"
  | Best_fit -> "BF"
  | Permutation_pack { flavour = Permutation_pack.Permutation; window = None }
    ->
      "PP"
  | Permutation_pack { flavour = Permutation_pack.Permutation; window = Some w }
    ->
      Printf.sprintf "PP[w=%d]" w
  | Permutation_pack { flavour = Permutation_pack.Choose; window = None } ->
      "CP"
  | Permutation_pack { flavour = Permutation_pack.Choose; window = Some w } ->
      Printf.sprintf "CP[w=%d]" w

let name t =
  let prefix = match t.variant with Vp -> "VP" | Hvp -> "HVP" in
  match t.algo with
  | Best_fit ->
      Printf.sprintf "%s-%s(%s items)" prefix (algo_name t.algo)
        (Vec.Metric.order_to_string t.item_order)
  | First_fit | Permutation_pack _ ->
      if t.variant = Vp then
        Printf.sprintf "%s-%s(%s items)" prefix (algo_name t.algo)
          (Vec.Metric.order_to_string t.item_order)
      else
        Printf.sprintf "%s-%s(%s items, %s bins)" prefix (algo_name t.algo)
          (Vec.Metric.order_to_string t.item_order)
          (Vec.Metric.order_to_string t.bin_order)
