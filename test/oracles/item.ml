type t = { id : int; demand : Vec.Epair.t }

let v ~id ~demand = { id; demand }

let size t = t.demand.Vec.Epair.aggregate
