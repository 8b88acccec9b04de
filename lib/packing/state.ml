type t = {
  dims : int;
  n_bins : int;
  n_items : int;
  cap : float array;
  elem_lim : float array;
  agg_lim : float array;
  load : float array;
  load_sum : float array;
  remaining_sum : float array;
  empty_remaining : float array;
  elem : float array;
  agg : float array;
  assign : int array;
  placed : int array;
  mutable n_placed : int;
  mutable demands : int;
  mutable item_orders : (Vec.Metric.order * int array) list;
  mutable bin_orders : (Vec.Metric.order * int array) list;
}

(* Sort-memo hits, counted under the solver's namespace: it is
   [Vp_solver]'s probe bill they cut. *)
let c_item_hits = Obs.Metrics.counter "vp_solver.items_cache_hits"

(* Demand stamps come from one process-wide counter, so a stamp names one
   demand set of one state and a memo keyed by it (Permutation-Pack's item
   classes) cannot mistake another state's demands for its own. *)
let stamps = Atomic.make 0

let new_demands t =
  t.demands <- Atomic.fetch_and_add stamps 1;
  t.item_orders <- []

(* The running sums are refolded over the bin's row after every
   placement, left to right, so they equal the folds a score made on
   demand would compute. *)
let refold t b =
  let o = b * t.dims in
  let sum = ref 0. and rem = ref 0. in
  for i = o to o + t.dims - 1 do
    sum := !sum +. t.load.(i);
    rem := !rem +. Float.max 0. (t.cap.(i) -. t.load.(i))
  done;
  t.load_sum.(b) <- !sum;
  t.remaining_sum.(b) <- !rem

let create ~dims ~capacities ~n_items =
  if dims <= 0 then invalid_arg "State.create: dims must be positive";
  if n_items < 0 then invalid_arg "State.create: negative item count";
  Array.iter
    (fun c ->
      if Vec.Epair.dim c <> dims then
        invalid_arg "State.create: dimension mismatch")
    capacities;
  let n_bins = Array.length capacities in
  let flat f =
    Array.init (n_bins * dims) (fun k ->
        f capacities.(k / dims) (k mod dims))
  in
  let t =
    {
      dims;
      n_bins;
      n_items;
      cap = flat (fun c d -> Vec.Vector.get c.Vec.Epair.aggregate d);
      elem_lim =
        flat (fun c d ->
            let ce = Vec.Vector.get c.Vec.Epair.elementary d in
            ce +. (Vec.Vector.eps *. Float.max 1. (Float.abs ce)));
      agg_lim =
        flat (fun c d ->
            let ca = Vec.Vector.get c.Vec.Epair.aggregate d in
            ca +. (Vec.Vector.eps *. Float.max 1. ca));
      load = Array.make (n_bins * dims) 0.;
      load_sum = Array.make n_bins 0.;
      remaining_sum = Array.make n_bins 0.;
      empty_remaining = Array.make n_bins 0.;
      elem = Array.make (n_items * dims) 0.;
      agg = Array.make (n_items * dims) 0.;
      assign = Array.make n_items (-1);
      placed = Array.make n_items 0;
      n_placed = 0;
      demands = 0;
      item_orders = [];
      bin_orders = [];
    }
  in
  for b = 0 to n_bins - 1 do
    refold t b
  done;
  Array.blit t.remaining_sum 0 t.empty_remaining 0 n_bins;
  new_demands t;
  t

let set_item t j (demand : Vec.Epair.t) =
  if Vec.Epair.dim demand <> t.dims then
    invalid_arg "State.set_item: dimension mismatch";
  let e = (demand.elementary :> float array)
  and a = (demand.aggregate :> float array) in
  Array.blit e 0 t.elem (j * t.dims) t.dims;
  Array.blit a 0 t.agg (j * t.dims) t.dims;
  new_demands t

let fill_at_yield t y ~need_elem ~req_elem ~need_agg ~req_agg =
  let n = t.n_items * t.dims in
  List.iter
    (fun buf ->
      if Array.length buf <> n then
        invalid_arg "State.fill_at_yield: buffer size")
    [ need_elem; req_elem; need_agg; req_agg ];
  for k = 0 to n - 1 do
    t.elem.(k) <- (y *. need_elem.(k)) +. req_elem.(k);
    t.agg.(k) <- (y *. need_agg.(k)) +. req_agg.(k)
  done;
  new_demands t

let reset t =
  Array.fill t.load 0 (Array.length t.load) 0.;
  Array.fill t.load_sum 0 t.n_bins 0.;
  Array.blit t.empty_remaining 0 t.remaining_sum 0 t.n_bins;
  Array.fill t.assign 0 t.n_items (-1);
  t.n_placed <- 0

let place t b j =
  let ob = b * t.dims and oj = j * t.dims in
  for i = 0 to t.dims - 1 do
    t.load.(ob + i) <- t.load.(ob + i) +. t.agg.(oj + i)
  done;
  refold t b;
  t.assign.(j) <- b;
  t.placed.(t.n_placed) <- j;
  t.n_placed <- t.n_placed + 1

let assignment t = Array.copy t.assign

let placement_order t = Array.sub t.placed 0 t.n_placed

let items_in_order t order =
  match List.assoc_opt order t.item_orders with
  | Some ids ->
      Obs.Metrics.incr c_item_hits;
      ids
  | None ->
      let ids = Vec.Metric.sort_rows order ~dims:t.dims t.agg in
      t.item_orders <- (order, ids) :: t.item_orders;
      ids

let bins_in_order t order =
  match List.assoc_opt order t.bin_orders with
  | Some ids -> ids
  | None ->
      let ids = Vec.Metric.sort_rows order ~dims:t.dims t.cap in
      t.bin_orders <- (order, ids) :: t.bin_orders;
      ids
