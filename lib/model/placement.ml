type t = int array

type allocation = { placement : t; yields : float array }

let is_valid instance placement =
  Array.length placement = Instance.n_services instance
  && Array.for_all
       (fun h -> h >= 0 && h < Instance.n_nodes instance)
       placement

let by_node instance placement =
  let n_nodes = Instance.n_nodes instance in
  let start = Array.make (n_nodes + 1) 0 in
  Array.iter (fun h -> start.(h + 1) <- start.(h + 1) + 1) placement;
  for h = 1 to n_nodes do
    start.(h) <- start.(h) + start.(h - 1)
  done;
  let next = Array.sub start 0 n_nodes in
  let ids = Array.make (Array.length placement) 0 in
  Array.iteri
    (fun j h ->
      ids.(next.(h)) <- j;
      next.(h) <- next.(h) + 1)
    placement;
  (ids, start)

let each_node instance placement per_node =
  let ids, start = by_node instance placement in
  let rows = Yield.instance_rows instance in
  let n = Array.length placement in
  let bounds = Array.make n 0. and order = Array.make n 0 in
  let rec go h =
    h = Instance.n_nodes instance
    || per_node (Instance.node instance h) rows ~ids ~off:start.(h)
         ~len:(start.(h + 1) - start.(h))
         ~bounds ~order
       && go (h + 1)
  in
  go 0

let min_yield instance placement =
  if not (is_valid instance placement) then None
  else begin
    let worst = ref 1. in
    let ok =
      each_node instance placement
        (fun node rows ~ids ~off ~len ~bounds ~order ->
          let y = Yield.max_min node rows ~ids ~off ~len ~bounds ~order in
          if y < !worst then worst := y;
          y >= 0.)
    in
    if ok then Some !worst else None
  end

let water_fill instance placement =
  if not (is_valid instance placement) then None
  else begin
    let yields = Array.make (Instance.n_services instance) 0. in
    let ok =
      each_node instance placement
        (fun node rows ~ids ~off ~len ~bounds ~order ->
          let level = Yield.fill node rows ~ids ~off ~len ~bounds ~order in
          level >= 0.
          && begin
               for k = off to off + len - 1 do
                 yields.(ids.(k)) <- Float.min bounds.(k) level
               done;
               true
             end)
    in
    if ok then Some { placement = Array.copy placement; yields } else None
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
