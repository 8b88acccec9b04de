type t = { id : int; requirement : Vec.Epair.t; need : Vec.Epair.t }

(* Component by component: a NaN fails every comparison, so a fold such
   as [Vector.min_component] could let it through. *)
let check_components what (p : Vec.Epair.t) =
  let check v =
    for i = 0 to Vec.Vector.dim v - 1 do
      let x = Vec.Vector.get v i in
      if not (Float.is_finite x) then
        invalid_arg (Printf.sprintf "Service.v: non-finite %s component" what);
      if x < 0. then
        invalid_arg (Printf.sprintf "Service.v: negative %s component" what)
    done
  in
  check p.Vec.Epair.elementary;
  check p.Vec.Epair.aggregate

let v ~id ~requirement ~need =
  if Vec.Epair.dim requirement <> Vec.Epair.dim need then
    invalid_arg "Service.v: requirement/need dimension mismatch";
  check_components "requirement" requirement;
  check_components "need" need;
  { id; requirement; need }

let cpu_dim = 0
let mem_dim = 1

let make_2d ~id ?(cpu_req = (0., 0.)) ?(mem_req = 0.) ?(cpu_need = (0., 0.))
    ?(mem_need = 0.) () =
  let components c m =
    let a = Array.make 2 0. in
    a.(cpu_dim) <- c;
    a.(mem_dim) <- m;
    Vec.Vector.of_array a
  in
  let pair (ce, ca) m =
    Vec.Epair.v ~elementary:(components ce m) ~aggregate:(components ca m)
  in
  v ~id ~requirement:(pair cpu_req mem_req) ~need:(pair cpu_need mem_need)

let dim t = Vec.Epair.dim t.requirement

let demand_at_yield t y =
  Vec.Epair.at_yield ~requirement:t.requirement ~need:t.need y

let equal a b =
  a.id = b.id
  && Vec.Epair.equal a.requirement b.requirement
  && Vec.Epair.equal a.need b.need

let pp ppf t =
  Format.fprintf ppf "service#%d req %a need %a" t.id Vec.Epair.pp
    t.requirement Vec.Epair.pp t.need
