type t = {
  hosts : int;
  services : int;
  dims : int;
  services_per_node : float;
  requirement_utilization : float array;
  need_utilization : float array;
  capacity_cov : float array;
  all_services_placeable : bool;
}

let per_dim_cov nodes dims =
  Array.init dims (fun d ->
      let values =
        Array.map
          (fun (n : Node.t) ->
            Vec.Vector.get n.capacity.Vec.Epair.aggregate d)
          nodes
      in
      let n = float_of_int (Array.length values) in
      let mean = Array.fold_left ( +. ) 0. values /. n in
      if mean = 0. then 0.
      else begin
        let var =
          Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. values
          /. n
        in
        sqrt var /. mean
      end)

let analyze instance =
  let hosts = Instance.n_nodes instance in
  let services = Instance.n_services instance in
  let dims = Node.dim (Instance.node instance 0) in
  let total = Instance.total_capacity instance in
  let reqs = Instance.total_requirement instance in
  let needs = Instance.total_need instance in
  let ratio part =
    Array.init dims (fun d ->
        let c = Vec.Vector.get total d in
        if c = 0. then 0. else Vec.Vector.get part d /. c)
  in
  let nodes = Array.init hosts (Instance.node instance) in
  let all_services_placeable =
    let rows = Yield.instance_rows instance in
    let ids = Array.init services Fun.id in
    let placeable j =
      Array.exists
        (fun node -> Yield.requirements_fit node rows ~ids ~off:j ~len:1)
        nodes
    in
    let rec loop j = j >= services || (placeable j && loop (j + 1)) in
    loop 0
  in
  {
    hosts;
    services;
    dims;
    services_per_node = float_of_int services /. float_of_int hosts;
    requirement_utilization = ratio reqs;
    need_utilization = ratio needs;
    capacity_cov = per_dim_cov nodes dims;
    all_services_placeable;
  }

let pp ppf t =
  let arr a =
    String.concat " "
      (Array.to_list (Array.map (Printf.sprintf "%.3f") a))
  in
  Format.fprintf ppf
    "@[<v>%d nodes, %d services (%.1f per node), %d dimensions@,\
     requirement utilization per dim: %s@,\
     need utilization per dim:        %s@,\
     capacity CoV per dim:            %s@,\
     every service fits some empty node: %b@]"
    t.hosts t.services t.services_per_node t.dims
    (arr t.requirement_utilization)
    (arr t.need_utilization) (arr t.capacity_cov) t.all_services_placeable
