let round_probabilities ~rng ~e_matrix instance =
  let open Vec in
  let j_count = Model.Instance.n_services instance in
  let h_count = Model.Instance.n_nodes instance in
  let dims =
    Epair.dim (Model.Instance.node instance 0).Model.Node.capacity
  in
  let req_load = Array.init h_count (fun _ -> Array.make dims 0.) in
  let fits h (s : Model.Service.t) =
    let node = Model.Instance.node instance h in
    Vector.fits s.requirement.Epair.elementary
      node.Model.Node.capacity.Epair.elementary
    &&
    let cap = node.Model.Node.capacity.Epair.aggregate in
    let rec loop d =
      if d >= dims then true
      else
        let c = Vector.get cap d in
        let tol = Vector.eps *. Float.max 1. c in
        req_load.(h).(d) +. Vector.get s.requirement.Epair.aggregate d
        <= c +. tol
        && loop (d + 1)
    in
    loop 0
  in
  let commit h (s : Model.Service.t) =
    for d = 0 to dims - 1 do
      req_load.(h).(d) <-
        req_load.(h).(d) +. Vector.get s.requirement.Epair.aggregate d
    done
  in
  let placement = Array.make j_count (-1) in
  let place_one j =
    let s = Model.Instance.service instance j in
    let probs = Array.copy e_matrix.(j) in
    let rec draw () =
      if Array.for_all (fun p -> p <= 0.) probs then false
      else begin
        let h = Prng.Rng.choose_weighted rng probs in
        if fits h s then begin
          commit h s;
          placement.(j) <- h;
          true
        end
        else begin
          probs.(h) <- 0.;
          draw ()
        end
      end
    in
    draw ()
  in
  let rec loop j =
    if j >= j_count then Some placement
    else if place_one j then loop (j + 1)
    else None
  in
  loop 0

(* RRNZ (§3.3.2): every zero probability becomes the paper's ε = 0.01. *)
let no_zeros =
  Array.map (Array.map (fun p -> if p <= 0. then 0.01 else p))

(* Shared by all four variants, which differ only in where the e-matrix
   comes from and whether its zeros are lifted. *)
let round ~rng ~adjust e_matrix instance =
  match e_matrix with
  | None -> None
  | Some e_matrix -> (
      match round_probabilities ~rng ~e_matrix:(adjust e_matrix) instance with
      | None -> None
      | Some placement -> Vp_solver.evaluate instance placement)

(* The probe-based variants round the e-matrix of the highest feasible
   warm-started feasibility probe (Milp.relaxed_yield_search) instead of
   the one maximizing LP's. That vertex is feasibility-tight at the found
   yield rather than objective-optimal, and often spreads mass over more
   nodes. *)
let probed instance = Option.map fst (Milp.relaxed_yield_search instance)

let rrnd ~rng instance =
  round ~rng ~adjust:Fun.id (Milp.relaxed_e_matrix instance) instance

let rrnz ~rng instance =
  round ~rng ~adjust:no_zeros (Milp.relaxed_e_matrix instance) instance

let rrnd_probed ~rng instance =
  round ~rng ~adjust:Fun.id (probed instance) instance

let rrnz_probed ~rng instance =
  round ~rng ~adjust:no_zeros (probed instance) instance
