type t = {
  id : int;
  capacity : Vec.Epair.t;
  load : float array;
  mutable contents : int list;
}

let v ~id ~capacity =
  { id; capacity; load = Array.make (Vec.Epair.dim capacity) 0.;
    contents = [] }

let fits t (item : Item.t) =
  let open Vec in
  if Epair.dim item.demand <> Epair.dim t.capacity then
    invalid_arg "Bin.fits: dimension mismatch";
  let rec from i =
    i >= Array.length t.load
    ||
    let ce = Vector.get t.capacity.elementary i
    and de = Vector.get item.demand.elementary i in
    de <= ce +. (Vector.eps *. Float.max 1. (Float.abs ce))
    &&
    let ca = Vector.get t.capacity.aggregate i in
    t.load.(i) +. Vector.get item.demand.aggregate i
    <= ca +. (Vector.eps *. Float.max 1. ca)
    && from (i + 1)
  in
  from 0

let place t (item : Item.t) =
  Array.iteri
    (fun i x -> t.load.(i) <- t.load.(i) +. x)
    (Vec.Vector.to_array item.demand.Vec.Epair.aggregate);
  t.contents <- item.id :: t.contents

let load_vector t = Vec.Vector.of_array t.load

let remaining t =
  let open Vec in
  Vector.init (Array.length t.load) (fun i ->
      Float.max 0. (Vector.get t.capacity.Epair.aggregate i -. t.load.(i)))

let load_sum t = Array.fold_left ( +. ) 0. t.load

let remaining_sum t = Vec.Vector.sum (remaining t)

let size t = t.capacity.Vec.Epair.aggregate
