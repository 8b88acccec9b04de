(* Services are admitted through a packing state whose item demands are
   their requirements (yield 0): a node is a candidate when
   [Packing.Fit.fits] holds against the requirements placed so far, and
   the chosen one takes the service through [Packing.State.place]. *)
let place instance =
  let st =
    Packing.State.create ~dims:instance.Model.Instance.dims
      ~capacities:
        (Array.map
           (fun (n : Model.Node.t) -> n.capacity)
           instance.Model.Instance.nodes)
      ~n_items:(Model.Instance.n_services instance)
  in
  Packing.State.fill_at_yield st 0.
    ~need_elem:instance.Model.Instance.need_elem
    ~req_elem:instance.Model.Instance.req_elem
    ~need_agg:instance.Model.Instance.need_agg
    ~req_agg:instance.Model.Instance.req_agg;
  let counts = Array.make st.n_bins 0 in
  let place_one j =
    let best = ref (-1) in
    for h = 0 to st.n_bins - 1 do
      if Packing.Fit.fits st h j && (!best < 0 || counts.(h) < counts.(!best))
      then best := h
    done;
    match !best with
    | -1 -> false
    | h ->
        Packing.State.place st h j;
        counts.(h) <- counts.(h) + 1;
        true
  in
  let rec loop j =
    if j >= st.n_items then Some (Packing.State.assignment st)
    else if place_one j then loop (j + 1)
    else None
  in
  loop 0
