let cpu = Model.Service.cpu_dim

(* Row [j]'s CPU component. *)
let cpu_of (rows : Model.Yield.rows) (a : float array) j =
  a.((j * rows.dims) + cpu)

(* One node's scheduler inputs, in slice order: the CPU left beyond the
   rigid requirements, each resident's planned allocation beyond its
   requirement, and its true need. [None] when the estimated residents'
   water-fill fails. The arithmetic behind every evaluation below. *)
let node_shares (node : Model.Node.t) ~true_rows ~estimated ~ids ~off ~len
    ~bounds ~order =
  let level = Model.Yield.fill node estimated ~ids ~off ~len ~bounds ~order in
  if level < 0. then None
  else begin
    let reqs =
      Array.init len (fun k -> cpu_of true_rows true_rows.req_agg ids.(off + k))
    in
    let capacity =
      Float.max 0.
        (Vec.Vector.get node.capacity.Vec.Epair.aggregate cpu
        -. Array.fold_left ( +. ) 0. reqs)
    in
    (* The planned allocation is the estimated service's aggregate CPU
       demand at its water-filled yield. The rigid requirement is granted
       unconditionally; policies share only the remainder, so planned
       allocations enter as their need component. *)
    let planned =
      Array.mapi
        (fun k r ->
          let j = ids.(off + k) in
          let y = Float.min bounds.(off + k) level in
          Float.max 0.
            ((y *. cpu_of estimated estimated.need_agg j)
            +. cpu_of estimated estimated.req_agg j
            -. r))
        reqs
    in
    let true_needs =
      Array.init len (fun k ->
          cpu_of true_rows true_rows.need_agg ids.(off + k))
    in
    Some (capacity, planned, true_needs)
  end

let node_min_yield policy node ~true_rows ~estimated ~ids ~off ~len ~bounds
    ~order =
  Option.map
    (fun (capacity, estimated_allocations, true_needs) ->
      Policy.min_yield policy ~capacity ~estimated_allocations ~true_needs)
    (node_shares node ~true_rows ~estimated ~ids ~off ~len ~bounds ~order)

(* [per_node ~ids ~off shares] on every node of a placement in node
   order, each node's services in ascending id order, over the
   instances' own rows. [false] for a placement the estimated instance
   rejects, at the first node whose water-fill fails, or when [per_node]
   returns [false]. *)
let each_node ~true_instance ~estimated placement per_node =
  Model.Placement.is_valid estimated placement
  &&
  let est_rows = Model.Yield.instance_rows estimated in
  Model.Placement.each_node true_instance placement
    (fun node true_rows ~ids ~off ~len ~bounds ~order ->
      match
        node_shares node ~true_rows ~estimated:est_rows ~ids ~off ~len ~bounds
          ~order
      with
      | None -> false
      | Some shares -> per_node ~ids ~off shares)

let consumptions policy ~true_instance ~estimated placement =
  let out = Array.make (Model.Instance.n_services true_instance) 0. in
  let ok =
    each_node ~true_instance ~estimated placement
      (fun ~ids ~off (capacity, estimated_allocations, true_needs) ->
        let cons =
          Policy.consumptions policy ~capacity ~estimated_allocations
            ~true_needs
        in
        Array.iteri (fun k c -> out.(ids.(off + k)) <- c) cons;
        true)
  in
  if ok then Some out else None

let actual_min_yield policy ~true_instance ~estimated placement =
  let worst = ref 1. in
  let ok =
    each_node ~true_instance ~estimated placement
      (fun ~ids:_ ~off:_ (capacity, estimated_allocations, true_needs) ->
        worst :=
          Float.min !worst
            (Policy.min_yield policy ~capacity ~estimated_allocations
               ~true_needs);
        true)
  in
  if ok then Some !worst else None
