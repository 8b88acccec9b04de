let cpu_dim = 0

let estimated_allocations estimated placement =
  match Yield_ref.placement_water_fill estimated placement with
  | None -> None
  | Some yields ->
      Some
        (Array.init (Model.Instance.n_services estimated) (fun j ->
             let s = Model.Instance.service estimated j in
             let demand = Model.Service.demand_at_yield s yields.(j) in
             Vec.Vector.get demand.Vec.Epair.aggregate cpu_dim))

let consumptions policy ~true_instance ~estimated placement =
  match estimated_allocations estimated placement with
  | None -> None
  | Some est_alloc ->
      let open Vec in
      let out = Array.make (Model.Instance.n_services true_instance) 0. in
      let groups = Yield_ref.group_by_node true_instance placement in
      Array.iteri
        (fun h services ->
          match services with
          | [] -> ()
          | _ ->
              let node = Model.Instance.node true_instance h in
              let capacity =
                Vector.get node.Model.Node.capacity.Epair.aggregate cpu_dim
              in
              let req (s : Model.Service.t) =
                Vector.get s.requirement.Epair.aggregate cpu_dim
              in
              let reqs = List.map req services in
              let shared_capacity =
                Float.max 0. (capacity -. List.fold_left ( +. ) 0. reqs)
              in
              let true_needs =
                Array.of_list
                  (List.map
                     (fun (s : Model.Service.t) ->
                       Vector.get s.need.Epair.aggregate cpu_dim)
                     services)
              in
              let est_needs_alloc =
                Array.of_list
                  (List.map2
                     (fun (s : Model.Service.t) r ->
                       Float.max 0. (est_alloc.(s.Model.Service.id) -. r))
                     services reqs)
              in
              let cons =
                Sharing.Policy.consumptions policy ~capacity:shared_capacity
                  ~estimated_allocations:est_needs_alloc ~true_needs
              in
              List.iteri
                (fun i (s : Model.Service.t) ->
                  out.(s.Model.Service.id) <- cons.(i))
                services)
        groups;
      Some out

let actual_min_yield policy ~true_instance ~estimated placement =
  match consumptions policy ~true_instance ~estimated placement with
  | None -> None
  | Some cons ->
      let yields =
        Array.mapi
          (fun j c ->
            let s = Model.Instance.service true_instance j in
            let need =
              Vec.Vector.get s.Model.Service.need.Vec.Epair.aggregate cpu_dim
            in
            if need <= 0. then 1. else Float.min 1. (c /. need))
          cons
      in
      Some (Array.fold_left Float.min 1. yields)
