type t = { id : int; capacity : Vec.Epair.t }

let v ~id ~capacity =
  let open Vec in
  let d = Epair.dim capacity in
  for i = 0 to d - 1 do
    let e = Vector.get capacity.Epair.elementary i
    and a = Vector.get capacity.Epair.aggregate i in
    if not (Float.is_finite e && Float.is_finite a) then
      invalid_arg (Printf.sprintf "Node.v: non-finite capacity in dim %d" i);
    if e < 0. || a < 0. then
      invalid_arg (Printf.sprintf "Node.v: negative capacity in dim %d" i);
    if e > a +. Vector.eps then
      invalid_arg
        (Printf.sprintf "Node.v: elementary capacity exceeds aggregate in dim %d" i)
  done;
  { id; capacity }

let make_cores ~id ~cores ~cpu ~mem =
  if cores <= 0 then invalid_arg "Node.make_cores: cores must be positive";
  if cpu < 0. || mem < 0. then invalid_arg "Node.make_cores: negative capacity";
  let elementary = Vec.Vector.of_array [| cpu /. float_of_int cores; mem |] in
  let aggregate = Vec.Vector.of_array [| cpu; mem |] in
  v ~id ~capacity:(Vec.Epair.v ~elementary ~aggregate)

let dim t = Vec.Epair.dim t.capacity

let equal a b = a.id = b.id && Vec.Epair.equal a.capacity b.capacity

let pp ppf t = Format.fprintf ppf "node#%d %a" t.id Vec.Epair.pp t.capacity
