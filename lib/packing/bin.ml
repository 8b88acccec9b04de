type t = {
  id : int;
  capacity : Vec.Epair.t;
  load : float array;
  mutable contents : int list;
  mutable sum_load : float;
  mutable sum_remaining : float;
}

(* The running sums are recomputed as the same left folds the former
   on-demand [load_sum] / [remaining_sum] performed, so their values are
   bit-identical to the naive ones — they just move the O(D) work from
   every Best-Fit score (O(items x bins) reads) to every [place] /
   [reset] (O(items) writes). *)
let fold_load load = Array.fold_left ( +. ) 0. load

let fold_remaining capacity load =
  let open Vec in
  let acc = ref 0. in
  for i = 0 to Array.length load - 1 do
    acc := !acc +. Float.max 0. (Vector.get capacity.Epair.aggregate i -. load.(i))
  done;
  !acc

let v ~id ~capacity =
  let load = Array.make (Vec.Epair.dim capacity) 0. in
  {
    id;
    capacity;
    load;
    contents = [];
    sum_load = fold_load load;
    sum_remaining = fold_remaining capacity load;
  }

let reset t =
  Array.fill t.load 0 (Array.length t.load) 0.;
  t.contents <- [];
  t.sum_load <- fold_load t.load;
  t.sum_remaining <- fold_remaining t.capacity t.load

let dim t = Vec.Epair.dim t.capacity

let fits t (item : Item.t) =
  let open Vec in
  Vector.fits item.demand.Epair.elementary t.capacity.Epair.elementary
  &&
  let d = Array.length t.load in
  let rec loop i =
    if i >= d then true
    else
      let cap = Vector.get t.capacity.Epair.aggregate i in
      let tol = Vector.eps *. Float.max 1. cap in
      t.load.(i) +. Vector.get item.demand.Epair.aggregate i <= cap +. tol
      && loop (i + 1)
  in
  loop 0

let place t (item : Item.t) =
  let open Vec in
  for i = 0 to Array.length t.load - 1 do
    t.load.(i) <- t.load.(i) +. Vector.get item.demand.Epair.aggregate i
  done;
  t.contents <- item.id :: t.contents;
  t.sum_load <- fold_load t.load;
  t.sum_remaining <- fold_remaining t.capacity t.load

let load_vector t = Vec.Vector.of_array t.load

let remaining t =
  let open Vec in
  Vector.init (Array.length t.load) (fun i ->
      Float.max 0. (Vector.get t.capacity.Epair.aggregate i -. t.load.(i)))

let load_sum t = t.sum_load

let remaining_sum t = t.sum_remaining

let size t = t.capacity.Vec.Epair.aggregate

let pp ppf t =
  Format.fprintf ppf "bin#%d cap %a load %a" t.id Vec.Epair.pp t.capacity
    Vec.Vector.pp (load_vector t)
