let cpu (v : Vec.Vector.t) = Vec.Vector.get v Model.Service.cpu_dim

(* One node's scheduler inputs, in resident order: the CPU left beyond
   the rigid requirements, each resident's planned allocation beyond its
   requirement, and its true need. [None] when the estimated residents'
   water-fill fails. The arithmetic behind every evaluation below. *)
let node_shares (node : Model.Node.t) ~true_services ~estimated =
  match Model.Yield.water_fill node estimated with
  | None -> None
  | Some est_yields ->
      let open Vec in
      let true_services = Array.of_list true_services in
      let estimated = Array.of_list estimated in
      let est_yields = Array.of_list est_yields in
      let reqs =
        Array.map
          (fun (s : Model.Service.t) -> cpu s.requirement.Epair.aggregate)
          true_services
      in
      let capacity =
        Float.max 0.
          (cpu node.capacity.Epair.aggregate -. Array.fold_left ( +. ) 0. reqs)
      in
      (* The planned allocation is the estimated service's aggregate CPU
         demand at its water-filled yield. The rigid requirement is
         granted unconditionally; policies share only the remainder, so
         planned allocations enter as their need component. *)
      let planned =
        Array.mapi
          (fun i r ->
            let (e : Model.Service.t) = estimated.(i) in
            Float.max 0.
              ((est_yields.(i) *. cpu e.need.Epair.aggregate)
              +. cpu e.requirement.Epair.aggregate
              -. r))
          reqs
      in
      let true_needs =
        Array.map
          (fun (s : Model.Service.t) -> cpu s.need.Epair.aggregate)
          true_services
      in
      Some (capacity, planned, true_needs)

let node_min_yield policy node ~true_services ~estimated =
  Option.map
    (fun (capacity, estimated_allocations, true_needs) ->
      Policy.min_yield policy ~capacity ~estimated_allocations ~true_needs)
    (node_shares node ~true_services ~estimated)

(* Both instances grouped by node, each node's lists in ascending id
   order; [None] for a placement the estimated instance rejects. *)
let groups ~true_instance ~estimated placement =
  if not (Model.Placement.is_valid estimated placement) then None
  else
    Some
      ( Model.Placement.group_by_node true_instance placement,
        Model.Placement.group_by_node estimated placement )

let consumptions policy ~true_instance ~estimated placement =
  match groups ~true_instance ~estimated placement with
  | None -> None
  | Some (true_groups, est_groups) ->
      let out = Array.make (Model.Instance.n_services true_instance) 0. in
      let rec go h =
        if h = Array.length true_groups then Some out
        else
          match
            node_shares
              (Model.Instance.node true_instance h)
              ~true_services:true_groups.(h) ~estimated:est_groups.(h)
          with
          | None -> None
          | Some (capacity, estimated_allocations, true_needs) ->
              let cons =
                Policy.consumptions policy ~capacity ~estimated_allocations
                  ~true_needs
              in
              List.iteri
                (fun i (s : Model.Service.t) ->
                  out.(s.Model.Service.id) <- cons.(i))
                true_groups.(h);
              go (h + 1)
      in
      go 0

let actual_min_yield policy ~true_instance ~estimated placement =
  match groups ~true_instance ~estimated placement with
  | None -> None
  | Some (true_groups, est_groups) ->
      let rec go h worst =
        if h = Array.length true_groups then Some worst
        else
          match
            node_min_yield policy
              (Model.Instance.node true_instance h)
              ~true_services:true_groups.(h) ~estimated:est_groups.(h)
          with
          | None -> None
          | Some y -> go (h + 1) (Float.min worst y)
      in
      go 0 1.
