let utilization instance (alloc : Placement.allocation) =
  let open Vec in
  let h_count = Instance.n_nodes instance in
  let dims = Node.dim (Instance.node instance 0) in
  let loads = Array.init h_count (fun _ -> Array.make dims 0.) in
  Array.iteri
    (fun j h ->
      let s = Instance.service instance j in
      let demand = Service.demand_at_yield s alloc.Placement.yields.(j) in
      for d = 0 to dims - 1 do
        loads.(h).(d) <-
          loads.(h).(d) +. Vector.get demand.Epair.aggregate d
      done)
    alloc.Placement.placement;
  Array.mapi
    (fun h load ->
      let cap =
        (Instance.node instance h).Node.capacity.Epair.aggregate
      in
      Array.mapi
        (fun d l ->
          let c = Vector.get cap d in
          if c <= 0. then 0. else l /. c)
        load)
    loads

let bar width fraction =
  let filled =
    max 0 (min width (int_of_float (Float.round (fraction *. float_of_int width))))
  in
  String.make filled '#' ^ String.make (width - filled) '.'

let bar_width = 20

let render instance (alloc : Placement.allocation) =
  let buf = Buffer.create 1024 in
  let util = utilization instance alloc in
  let ids, start = Placement.by_node instance alloc.Placement.placement in
  let dims = Node.dim (Instance.node instance 0) in
  let min_yield = Array.fold_left Float.min 1. alloc.Placement.yields in
  Buffer.add_string buf
    (Printf.sprintf "minimum yield %.4f over %d services on %d nodes\n"
       min_yield
       (Instance.n_services instance)
       (Instance.n_nodes instance));
  for h = 0 to Instance.n_nodes instance - 1 do
    Buffer.add_string buf (Printf.sprintf "node %d:" h);
    for d = 0 to dims - 1 do
      Buffer.add_string buf
        (Printf.sprintf "  dim%d [%s] %3.0f%%" d
           (bar bar_width util.(h).(d))
           (100. *. util.(h).(d)))
    done;
    Buffer.add_char buf '\n';
    for k = start.(h) to start.(h + 1) - 1 do
      Buffer.add_string buf
        (Printf.sprintf "  service %3d  yield %.4f\n" ids.(k)
           alloc.Placement.yields.(ids.(k)))
    done
  done;
  Buffer.contents buf
