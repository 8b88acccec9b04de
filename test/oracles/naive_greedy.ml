open Heuristics.Greedy

type counts = { candidate_evals : int ref; placements : int ref }

let counts () = { candidate_evals = ref 0; placements = ref 0 }

let need_agg (s : Model.Service.t) = s.need.Vec.Epair.aggregate
let req_agg (s : Model.Service.t) = s.requirement.Vec.Epair.aggregate

let sort_services strategy services =
  let key s =
    match strategy with
    | S1 -> 0.
    | S2 -> Vec.Vector.max_component (need_agg s)
    | S3 -> Vec.Vector.sum (need_agg s)
    | S4 -> Vec.Vector.max_component (req_agg s)
    | S5 -> Vec.Vector.sum (req_agg s)
    | S6 ->
        Float.max (Vec.Vector.sum (req_agg s)) (Vec.Vector.sum (need_agg s))
    | S7 -> Vec.Vector.sum (req_agg s) +. Vec.Vector.sum (need_agg s)
  in
  let services = Array.copy services in
  (match strategy with
  | S1 -> ()
  | _ ->
      Array.stable_sort (fun a b -> Float.compare (key b) (key a)) services);
  services

type node_state = {
  node : Model.Node.t;
  req_load : float array;
  virtual_load : float array;
}

let feasible state (s : Model.Service.t) =
  let open Vec in
  Yield_ref.fits s.requirement.Epair.elementary
    state.node.Model.Node.capacity.Epair.elementary
  &&
  let cap = state.node.Model.Node.capacity.Epair.aggregate in
  let d = Vector.dim cap in
  let rec loop i =
    if i >= d then true
    else
      let c = Vector.get cap i in
      let tol = Vector.eps *. Float.max 1. c in
      state.req_load.(i) +. Vector.get s.requirement.Epair.aggregate i
      <= c +. tol
      && loop (i + 1)
  in
  loop 0

let score strategy state (s : Model.Service.t) =
  let open Vec in
  let cap = state.node.Model.Node.capacity.Epair.aggregate in
  let d = Vector.dim cap in
  let avail i = Vector.get cap i -. state.virtual_load.(i) in
  let demand i =
    Vector.get s.requirement.Epair.aggregate i
    +. Vector.get s.need.Epair.aggregate i
  in
  let total_avail =
    let acc = ref 0. in
    for i = 0 to d - 1 do acc := !acc +. avail i done;
    !acc
  in
  match strategy with
  | P1 ->
      let dim_need = Vector.dominant_dimension (need_agg s) in
      -.avail dim_need
  | P2 ->
      let load_after = ref 0. and caps = ref 0. in
      for i = 0 to d - 1 do
        load_after := !load_after +. state.virtual_load.(i) +. demand i;
        caps := !caps +. Vector.get cap i
      done;
      if !caps <= 0. then infinity else !load_after /. !caps
  | P3 ->
      let dim_req = Vector.dominant_dimension (req_agg s) in
      avail dim_req -. demand dim_req
  | P4 -> total_avail
  | P5 ->
      let dim_req = Vector.dominant_dimension (req_agg s) in
      -.(avail dim_req -. demand dim_req)
  | P6 -> -.total_avail
  | P7 -> 0.

let place ?counts sort_strategy place_strategy instance =
  let count f = Option.iter f counts in
  let services =
    sort_services sort_strategy
      (Array.init (Model.Instance.n_services instance)
         (Model.Instance.service instance))
  in
  let dims =
    Vec.Epair.dim (Model.Instance.node instance 0).Model.Node.capacity
  in
  let states =
    Array.init (Model.Instance.n_nodes instance) (fun h ->
        {
          node = Model.Instance.node instance h;
          req_load = Array.make dims 0.;
          virtual_load = Array.make dims 0.;
        })
  in
  let placement = Array.make (Model.Instance.n_services instance) (-1) in
  let commit state (s : Model.Service.t) =
    let open Vec in
    for i = 0 to dims - 1 do
      state.req_load.(i) <-
        state.req_load.(i) +. Vector.get s.requirement.Epair.aggregate i;
      state.virtual_load.(i) <-
        state.virtual_load.(i)
        +. Vector.get s.requirement.Epair.aggregate i
        +. Vector.get s.need.Epair.aggregate i
    done
  in
  let place_one (s : Model.Service.t) =
    let best = ref (-1) and best_score = ref infinity in
    count (fun c ->
        c.candidate_evals := !(c.candidate_evals) + Array.length states);
    Array.iteri
      (fun h state ->
        if feasible state s then begin
          let sc = score place_strategy state s in
          if sc < !best_score then begin
            best := h;
            best_score := sc
          end
        end)
      states;
    if !best >= 0 then begin
      count (fun c -> incr c.placements);
      commit states.(!best) s;
      placement.(s.Model.Service.id) <- !best;
      true
    end
    else false
  in
  let rec loop j =
    if j >= Array.length services then Some placement
    else if place_one services.(j) then loop (j + 1)
    else None
  in
  loop 0

let metagreedy ?counts instance =
  List.fold_left
    (fun best (s, p) ->
      match
        Option.bind (place ?counts s p instance)
          (Heuristics.Vp_solver.evaluate instance)
      with
      | None -> best
      | Some sol -> (
          match best with
          | Some (b : Heuristics.Vp_solver.solution)
            when b.min_yield >= sol.min_yield ->
              best
          | _ -> Some sol))
    None all_combinations
