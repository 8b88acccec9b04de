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
   [reset] (O(items) writes).

   [set_sums], [fits] and [place] read the raw arrays, with no
   [Vector.get] and no fold closure: a call across a module boundary
   returns its float boxed, and a solve tests and places items millions
   of times. Testing an item allocates nothing; placing one allocates its
   [contents] cell and the two boxed sums. *)
let set_sums t =
  let cap = (t.capacity.Vec.Epair.aggregate :> float array) in
  let load = t.load in
  let sum = ref 0. and rem = ref 0. in
  for i = 0 to Array.length load - 1 do
    sum := !sum +. load.(i);
    rem := !rem +. Float.max 0. (cap.(i) -. load.(i))
  done;
  t.sum_load <- !sum;
  t.sum_remaining <- !rem

let v ~id ~capacity =
  let t =
    {
      id;
      capacity;
      load = Array.make (Vec.Epair.dim capacity) 0.;
      contents = [];
      sum_load = 0.;
      sum_remaining = 0.;
    }
  in
  set_sums t;
  t

let reset t =
  Array.fill t.load 0 (Array.length t.load) 0.;
  t.contents <- [];
  set_sums t

let dim t = Vec.Epair.dim t.capacity

(* The elementary test of [Vector.fits] and the aggregate test against
   the load, dimension by dimension; both are pure comparisons, so
   interleaving them leaves the verdict as it was. [Vector.fits] itself
   allocates a closure per call; DESIGN.md §11 says why it is left so. *)
let rec fits_from load (cap : Vec.Epair.t) (demand : Vec.Epair.t) i =
  i >= Array.length load
  ||
  let ce = (cap.elementary :> float array).(i)
  and de = (demand.elementary :> float array).(i) in
  de <= ce +. (Vec.Vector.eps *. Float.max 1. (Float.abs ce))
  &&
  let ca = (cap.aggregate :> float array).(i) in
  let tol = Vec.Vector.eps *. Float.max 1. ca in
  load.(i) +. (demand.aggregate :> float array).(i) <= ca +. tol
  && fits_from load cap demand (i + 1)

let fits t (item : Item.t) =
  if Vec.Epair.dim item.demand <> Vec.Epair.dim t.capacity then
    invalid_arg "Bin.fits: dimension mismatch";
  fits_from t.load t.capacity item.demand 0

let place t (item : Item.t) =
  let demand = (item.demand.Vec.Epair.aggregate :> float array) in
  for i = 0 to Array.length t.load - 1 do
    t.load.(i) <- t.load.(i) +. demand.(i)
  done;
  t.contents <- item.id :: t.contents;
  set_sums t

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
