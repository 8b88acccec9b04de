type t = int array

type allocation = { placement : t; yields : float array }

let is_valid instance placement =
  Array.length placement = Instance.n_services instance
  && Array.for_all
       (fun h -> h >= 0 && h < Instance.n_nodes instance)
       placement

let group_by_node instance placement =
  let groups = Array.make (Instance.n_nodes instance) [] in
  (* Walk backwards so each node's list ends up in increasing id order. *)
  for j = Array.length placement - 1 downto 0 do
    let h = placement.(j) in
    groups.(h) <- Instance.service instance j :: groups.(h)
  done;
  groups

let feasible instance placement =
  is_valid instance placement
  && (let groups = group_by_node instance placement in
      let ok = ref true in
      Array.iteri
        (fun h services ->
          if not (Yield.requirements_fit (Instance.node instance h) services)
          then ok := false)
        groups;
      !ok)

let min_yield instance placement =
  if not (is_valid instance placement) then None
  else begin
    let groups = group_by_node instance placement in
    let worst = ref (Some 1.) in
    Array.iteri
      (fun h services ->
        match !worst with
        | None -> ()
        | Some w -> (
            match Yield.max_min_yield (Instance.node instance h) services with
            | None -> worst := None
            | Some y -> if y < w then worst := Some y))
      groups;
    !worst
  end

let water_fill instance placement =
  if not (is_valid instance placement) then None
  else begin
    let groups = group_by_node instance placement in
    let yields = Array.make (Instance.n_services instance) 0. in
    let ok = ref true in
    Array.iteri
      (fun h services ->
        if !ok then
          match Yield.water_fill (Instance.node instance h) services with
          | None -> ok := false
          | Some ys ->
              List.iter2
                (fun (s : Service.t) y -> yields.(s.Service.id) <- y)
                services ys)
      groups;
    if !ok then Some { placement = Array.copy placement; yields } else None
  end

let check_constraints ?(tol = 1e-6) instance { placement; yields } =
  let open Vec in
  let ( let* ) = Result.bind in
  let fail fmt = Format.kasprintf (fun m -> Error m) fmt in
  let* () =
    if Array.length placement <> Instance.n_services instance then
      fail "constraint 3: placement length %d <> %d services"
        (Array.length placement)
        (Instance.n_services instance)
    else Ok ()
  in
  let* () =
    if Array.length yields <> Instance.n_services instance then
      fail "yields length mismatch"
    else Ok ()
  in
  (* (1) & (3): each service on exactly one valid node. *)
  let* () =
    match
      Array.find_index
        (fun h -> h < 0 || h >= Instance.n_nodes instance)
        placement
    with
    | Some j -> fail "constraint 3: service %d placed on invalid node %d" j
                  placement.(j)
    | None -> Ok ()
  in
  (* (2): yield ranges. *)
  let* () =
    match
      Array.find_index (fun y -> y < -.tol || y > 1. +. tol) yields
    with
    | Some j -> fail "constraint 2: yield %g of service %d out of [0,1]"
                  yields.(j) j
    | None -> Ok ()
  in
  (* (5): per-service elementary capacities on the hosting node; yield is
     zero elsewhere by representation, so (4) is structural. *)
  let rec check_elementary j =
    if j >= Instance.n_services instance then Ok ()
    else begin
      let s = Instance.service instance j in
      let node = Instance.node instance placement.(j) in
      let demand = Service.demand_at_yield s yields.(j) in
      let ce = node.Node.capacity.Epair.elementary in
      let de = demand.Epair.elementary in
      let bad = ref None in
      for d = 0 to Vector.dim ce - 1 do
        if
          Vector.get de d > Vector.get ce d +. (tol *. Float.max 1. (Vector.get ce d))
          && !bad = None
        then bad := Some d
      done;
      match !bad with
      | Some d ->
          fail "constraint 5: service %d exceeds elementary capacity of node \
                %d in dim %d (%g > %g)"
            j placement.(j) d (Vector.get de d) (Vector.get ce d)
      | None -> check_elementary (j + 1)
    end
  in
  let* () = check_elementary 0 in
  (* (6): per-node aggregate capacities. *)
  let dims = Vector.dim (Instance.total_capacity instance) in
  let loads =
    Array.init (Instance.n_nodes instance) (fun _ -> Array.make dims 0.)
  in
  Array.iteri
    (fun j h ->
      let s = Instance.service instance j in
      let demand = Service.demand_at_yield s yields.(j) in
      for d = 0 to dims - 1 do
        loads.(h).(d) <-
          loads.(h).(d) +. Vector.get demand.Epair.aggregate d
      done)
    placement;
  let rec check_aggregate h =
    if h >= Instance.n_nodes instance then Ok ()
    else begin
      let ca = (Instance.node instance h).Node.capacity.Epair.aggregate in
      let bad = ref None in
      for d = 0 to dims - 1 do
        if
          loads.(h).(d) > Vector.get ca d +. (tol *. Float.max 1. (Vector.get ca d))
          && !bad = None
        then bad := Some d
      done;
      match !bad with
      | Some d ->
          fail "constraint 6: node %d aggregate capacity exceeded in dim %d \
                (%g > %g)"
            h d loads.(h).(d) (Vector.get ca d)
      | None -> check_aggregate (h + 1)
    end
  in
  check_aggregate 0
