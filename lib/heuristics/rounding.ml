(* Services are admitted through the instance's packing state at yield 0,
   whose item demands are their requirements: a drawn node is tested with
   [Packing.Fit.fits] against the requirements committed so far and the
   service committed with [Packing.State.place]. *)
let round_probabilities ~rng ~e_matrix instance =
  let st = Vp_solver.state_at_yield instance 0. in
  let rec draw j probs =
    (not (Array.for_all (fun p -> p <= 0.) probs))
    &&
    let h = Prng.Rng.choose_weighted rng probs in
    if Packing.Fit.fits st h j then begin
      Packing.State.place st h j;
      true
    end
    else begin
      probs.(h) <- 0.;
      draw j probs
    end
  in
  let rec loop j =
    if j >= st.n_items then Some (Packing.State.assignment st)
    else if draw j (Array.copy e_matrix.(j)) then loop (j + 1)
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
