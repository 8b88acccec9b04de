type sort_strategy = S1 | S2 | S3 | S4 | S5 | S6 | S7

type place_strategy = P1 | P2 | P3 | P4 | P5 | P6 | P7

let all_sorts = [ S1; S2; S3; S4; S5; S6; S7 ]
let all_places = [ P1; P2; P3; P4; P5; P6; P7 ]

let all_combinations =
  List.concat_map (fun s -> List.map (fun p -> (s, p)) all_places) all_sorts

let sort_name = function
  | S1 -> "S1" | S2 -> "S2" | S3 -> "S3" | S4 -> "S4"
  | S5 -> "S5" | S6 -> "S6" | S7 -> "S7"

let place_name = function
  | P1 -> "P1" | P2 -> "P2" | P3 -> "P3" | P4 -> "P4"
  | P5 -> "P5" | P6 -> "P6" | P7 -> "P7"

let need_agg (s : Model.Service.t) = s.need.Vec.Epair.aggregate
let req_agg (s : Model.Service.t) = s.requirement.Vec.Epair.aggregate

(* Descending sort key; S1 keeps natural order. *)
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

(* One candidate evaluation = one feasibility check of (service, node);
   the score is only computed for feasible candidates, so the feasibility
   checks are the greedy inner-loop's unit of work. *)
let c_candidates = Obs.Metrics.counter "greedy.candidate_evals"
let c_placements = Obs.Metrics.counter "greedy.placements"

(* The nodes of one instance in flat arrays, node [h]'s dimension [i] at
   [h * dims + i]: the fits limits, i.e. the very right-hand sides the
   elementary and the aggregate tests compare against
   ([c +. eps *. max 1 |c|] and [c +. eps *. max 1 c]), the aggregate
   capacities and each node's summed capacity for the scores, and the
   loads a combination commits (rigid requirements, and requirement plus
   full need). One workspace serves every combination of a METAGREEDY
   solve. *)
type nodes = {
  elem_lim : float array;
  agg_lim : float array;
  cap : float array;
  cap_sum : float array;
  req_load : float array;
  virtual_load : float array;
}

let nodes instance =
  let dims = instance.Model.Instance.dims in
  let n = Model.Instance.n_nodes instance in
  let flat f =
    Array.init (n * dims) (fun k ->
        let c = (Model.Instance.node instance (k / dims)).Model.Node.capacity in
        f c (k mod dims))
  in
  let cap = flat (fun c i -> Vec.Vector.get c.Vec.Epair.aggregate i) in
  {
    elem_lim =
      flat (fun c i ->
          let ce = Vec.Vector.get c.Vec.Epair.elementary i in
          ce +. (Vec.Vector.eps *. Float.max 1. (Float.abs ce)));
    agg_lim =
      flat (fun c i ->
          let ca = Vec.Vector.get c.Vec.Epair.aggregate i in
          ca +. (Vec.Vector.eps *. Float.max 1. ca));
    cap;
    cap_sum =
      Array.init n (fun h ->
          let acc = ref 0. in
          for i = 0 to dims - 1 do
            acc := !acc +. cap.((h * dims) + i)
          done;
          !acc);
    req_load = Array.make (n * dims) 0.;
    virtual_load = Array.make (n * dims) 0.;
  }

(* Places [services] in order, each on the feasible node of smallest
   score, ties to the lowest index (an infinite score never wins). Plain
   loops over the flat arrays, each score computed inline, so placing a
   service allocates nothing. Every score keeps the float expression and
   evaluation order of the test suite's reference scan, so placements
   are bit-identical to it. *)
let place_sorted ws instance services place_strategy =
  let d = instance.Model.Instance.dims in
  let n = Array.length ws.cap_sum in
  let req_e = instance.Model.Instance.req_elem
  and req = instance.Model.Instance.req_agg
  and need = instance.Model.Instance.need_agg in
  let cap = ws.cap and vload = ws.virtual_load and rload = ws.req_load in
  Array.fill rload 0 (n * d) 0.;
  Array.fill vload 0 (n * d) 0.;
  let placement = Array.make (Array.length services) (-1) in
  let rec loop k =
    if k >= Array.length services then Some placement
    else begin
      let s : Model.Service.t = services.(k) in
      let o = s.id * d in
      let dim_need = Vec.Vector.dominant_dimension (need_agg s)
      and dim_req = Vec.Vector.dominant_dimension (req_agg s) in
      Obs.Metrics.add c_candidates n;
      let best = ref (-1) and best_score = ref infinity in
      for h = 0 to n - 1 do
        let b = h * d in
        let ok = ref true and i = ref 0 in
        while !ok && !i < d do
          ok := req_e.(o + !i) <= ws.elem_lim.(b + !i);
          incr i
        done;
        i := 0;
        while !ok && !i < d do
          ok := rload.(b + !i) +. req.(o + !i) <= ws.agg_lim.(b + !i);
          incr i
        done;
        if !ok then begin
          let sc =
            match place_strategy with
            | P1 -> -.(cap.(b + dim_need) -. vload.(b + dim_need))
            | P2 ->
                let load_after = ref 0. in
                for i = 0 to d - 1 do
                  load_after :=
                    !load_after +. vload.(b + i)
                    +. (req.(o + i) +. need.(o + i))
                done;
                if ws.cap_sum.(h) <= 0. then infinity
                else !load_after /. ws.cap_sum.(h)
            | P3 ->
                cap.(b + dim_req) -. vload.(b + dim_req)
                -. (req.(o + dim_req) +. need.(o + dim_req))
            | P5 ->
                -.(cap.(b + dim_req) -. vload.(b + dim_req)
                   -. (req.(o + dim_req) +. need.(o + dim_req)))
            | P4 | P6 ->
                let total_avail = ref 0. in
                for i = 0 to d - 1 do
                  total_avail := !total_avail +. (cap.(b + i) -. vload.(b + i))
                done;
                if place_strategy = P4 then !total_avail else -. !total_avail
            | P7 -> 0.
          in
          if sc < !best_score then begin
            best := h;
            best_score := sc
          end
        end
      done;
      if !best < 0 then None
      else begin
        Obs.Metrics.incr c_placements;
        let b = !best * d in
        for i = 0 to d - 1 do
          rload.(b + i) <- rload.(b + i) +. req.(o + i);
          vload.(b + i) <- vload.(b + i) +. req.(o + i) +. need.(o + i)
        done;
        placement.(s.id) <- !best;
        loop (k + 1)
      end
    end
  in
  loop 0

let all_services instance =
  Array.init (Model.Instance.n_services instance)
    (Model.Instance.service instance)

let place sort_strategy place_strategy instance =
  place_sorted (nodes instance) instance
    (sort_services sort_strategy (all_services instance))
    place_strategy

let solve sort_strategy place_strategy instance =
  match place sort_strategy place_strategy instance with
  | None -> None
  | Some placement -> Vp_solver.evaluate instance placement

(* The 49 combinations in [all_combinations] order, each sort computed
   once for its seven placement strategies and every combination on one
   node workspace; the earliest of equal yields wins. *)
let metagreedy instance =
  let ws = nodes instance and services = all_services instance in
  List.fold_left
    (fun best s ->
      let sorted = sort_services s services in
      List.fold_left
        (fun best p ->
          match
            Option.bind
              (place_sorted ws instance sorted p)
              (Vp_solver.evaluate instance)
          with
          | None -> best
          | Some sol -> (
              match best with
              | Some (b : Vp_solver.solution)
                when b.min_yield >= sol.min_yield ->
                  best
              | _ -> Some sol))
        best all_places)
    None all_sorts
