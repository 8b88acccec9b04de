type kind =
  | Yield_search of Packing.Strategy.t list
  | Direct

type t = {
  name : string;
  kind : kind;
  solve : Model.Instance.t -> Vp_solver.solution option;
}

let metagreedy =
  { name = "METAGREEDY"; kind = Direct; solve = Greedy.metagreedy }

let metavp =
  { name = "METAVP";
    kind = Yield_search Packing.Strategy.vp_all;
    solve = Vp_solver.solve_multi Packing.Strategy.vp_all }

let metahvp =
  { name = "METAHVP";
    kind = Yield_search Packing.Strategy.hvp_all;
    solve = Vp_solver.solve_multi Packing.Strategy.hvp_all }

let metahvplight =
  { name = "METAHVPLIGHT";
    kind = Yield_search Packing.Strategy.hvp_light;
    solve = Vp_solver.solve_multi Packing.Strategy.hvp_light }

let rrnd ~seed =
  {
    name = "RRND";
    kind = Direct;
    solve =
      (fun instance ->
        Rounding.rrnd ~rng:(Prng.Rng.create ~seed) instance);
  }

let rrnz ~seed =
  {
    name = "RRNZ";
    kind = Direct;
    solve =
      (fun instance ->
        Rounding.rrnz ~rng:(Prng.Rng.create ~seed) instance);
  }

let rrnd_probed ~seed =
  {
    name = "RRND-PROBED";
    kind = Direct;
    solve =
      (fun instance ->
        Rounding.rrnd_probed ~rng:(Prng.Rng.create ~seed) instance);
  }

let rrnz_probed ~seed =
  {
    name = "RRNZ-PROBED";
    kind = Direct;
    solve =
      (fun instance ->
        Rounding.rrnz_probed ~rng:(Prng.Rng.create ~seed) instance);
  }

let exact_milp ?node_limit () =
  {
    name = "MILP";
    kind = Direct;
    solve =
      (fun instance ->
        match Milp.solve_exact ?node_limit instance with
        | Some (Some e) -> Some e.Milp.solution
        | Some None | None -> None);
  }

let single_greedy sort place =
  {
    name =
      Printf.sprintf "GREEDY-%s/%s" (Greedy.sort_name sort)
        (Greedy.place_name place);
    kind = Direct;
    solve = Greedy.solve sort place;
  }

let majors ~seed =
  [ rrnd ~seed; rrnz ~seed; metagreedy; metavp; metahvp ]

let valid_names =
  [ "rrnd"; "rrnz"; "rrnd-probed"; "rrnz-probed"; "metagreedy"; "metavp";
    "metahvp"; "metahvplight"; "milp"; "greedy" ]

let by_name ~seed name =
  match String.uppercase_ascii name with
  | "RRND" -> Some (rrnd ~seed)
  (* The single best-performing greedy of the paper's §7 sweep — the cheap
     per-epoch re-solver for large online runs, where the meta algorithms'
     full sweep would dominate the event loop. *)
  | "GREEDY" -> Some (single_greedy Greedy.S7 Greedy.P4)
  | "RRNZ" -> Some (rrnz ~seed)
  | "RRND-PROBED" -> Some (rrnd_probed ~seed)
  | "RRNZ-PROBED" -> Some (rrnz_probed ~seed)
  | "METAGREEDY" -> Some metagreedy
  | "METAVP" -> Some metavp
  | "METAHVP" -> Some metahvp
  | "METAHVPLIGHT" -> Some metahvplight
  | "MILP" -> Some (exact_milp ())
  | _ -> None
