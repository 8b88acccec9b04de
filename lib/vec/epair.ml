type t = { elementary : Vector.t; aggregate : Vector.t }

let v ~elementary ~aggregate =
  if Vector.dim elementary <> Vector.dim aggregate then
    invalid_arg "Epair.v: dimension mismatch";
  { elementary; aggregate }

let of_arrays e a =
  v ~elementary:(Vector.of_array e) ~aggregate:(Vector.of_array a)

let uniform vec = { elementary = vec; aggregate = vec }

let dim p = Vector.dim p.elementary

let zero d = { elementary = Vector.zero d; aggregate = Vector.zero d }

let add a b =
  {
    elementary = Vector.add a.elementary b.elementary;
    aggregate = Vector.add a.aggregate b.aggregate;
  }

let sub a b =
  {
    elementary = Vector.sub a.elementary b.elementary;
    aggregate = Vector.sub a.aggregate b.aggregate;
  }

let scale s p =
  { elementary = Vector.scale s p.elementary;
    aggregate = Vector.scale s p.aggregate }

let at_yield ~requirement ~need y =
  {
    elementary = Vector.axpy y need.elementary requirement.elementary;
    aggregate = Vector.axpy y need.aggregate requirement.aggregate;
  }

let equal ?eps a b =
  Vector.equal ?eps a.elementary b.elementary
  && Vector.equal ?eps a.aggregate b.aggregate

let pp ppf p =
  Format.fprintf ppf "@[<h>(elt %a, agg %a)@]" Vector.pp p.elementary
    Vector.pp p.aggregate
