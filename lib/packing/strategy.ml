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

(* Every strategy reads its sort orders from the state's memos: a stable
   sort over the same keys, so a memo hit is the order a fresh sort would
   give. *)
let run ~scratch (st : State.t) t =
  State.reset st;
  let items = State.items_in_order st t.item_order in
  let bins =
    State.bins_in_order st
      (match t.variant with Vp -> Vec.Metric.Unsorted | Hvp -> t.bin_order)
  in
  let ok =
    match t.algo with
    | First_fit -> Fit.first_fit st ~bins ~items
    | Best_fit ->
        let rank =
          match t.variant with
          | Vp -> Fit.By_load
          | Hvp -> Fit.By_remaining
        in
        Fit.best_fit ~rank st ~items
    | Permutation_pack { flavour; window } ->
        let ranking =
          match t.variant with
          | Vp -> Permutation_pack.By_load
          | Hvp -> Permutation_pack.By_remaining_capacity
        in
        Permutation_pack.pack ~flavour ?window ~ranking ~scratch st ~bins
          ~items ()
  in
  if ok then Some (State.assignment st) else None

(* The probe-level infeasibility certificate (DESIGN.md §11). Every
   strategy places an item only where [Fit.fits] holds; demands are
   non-negative, so a bin's load only grows. Hence (a) an item that fits
   no empty bin fits no bin at any point of any strategy, and (b) in each
   dimension the items with positive demand there can only land in bins
   where one of them fits empty, each of which ends below its aggregate
   fits threshold; so their total demand cannot exceed the sum of those
   thresholds. The float sums involved (bin loads, demand total,
   threshold total) are off by about (2 items + bins) x 2^-53 of the
   total at most, far below [margin]. *)
let margin = 1e-9

(* [usable] := the dimensions in which bin [b] is usable: some item with
   positive demand there fits it empty. Stops once all [wanted]
   dimensions with demand are found. *)
let usable_dims (st : State.t) usable b ~wanted =
  let d = st.dims in
  Array.fill usable 0 d false;
  let missing = ref wanted and j = ref 0 in
  while !missing > 0 && !j < st.n_items do
    let o = !j * d in
    let adds = ref false in
    for k = 0 to d - 1 do
      if st.agg.(o + k) > 0. && not usable.(k) then adds := true
    done;
    if !adds && Fit.fits st b !j then
      for k = 0 to d - 1 do
        if st.agg.(o + k) > 0. && not usable.(k) then begin
          usable.(k) <- true;
          decr missing
        end
      done;
    incr j
  done

let infeasible (st : State.t) =
  st.n_items > 0
  &&
  let d = st.dims in
  State.reset st;
  let total = Array.make d 0. and cap = Array.make d 0. in
  (* (a), summing the demands on the way. *)
  let homeless = ref false and j = ref 0 in
  while (not !homeless) && !j < st.n_items do
    for k = 0 to d - 1 do
      total.(k) <- total.(k) +. st.agg.((!j * d) + k)
    done;
    let b = ref 0 in
    while !b < st.n_bins && not (Fit.fits st !b !j) do
      incr b
    done;
    homeless := !b = st.n_bins;
    incr j
  done;
  !homeless
  ||
  (* (b) *)
  let wanted = ref 0 in
  for k = 0 to d - 1 do
    if total.(k) > 0. then incr wanted
  done;
  let usable = Array.make d false in
  for b = 0 to st.n_bins - 1 do
    usable_dims st usable b ~wanted:!wanted;
    for k = 0 to d - 1 do
      if usable.(k) then cap.(k) <- cap.(k) +. st.agg_lim.((b * d) + k)
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
