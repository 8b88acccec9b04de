type mapping = {
  n_vars : int;
  e : int -> int -> int;
  y : int -> int -> int;
  y_min : int;
}

let formulation instance =
  let open Vec in
  let j_count = Model.Instance.n_services instance in
  let h_count = Model.Instance.n_nodes instance in
  let dims =
    Epair.dim (Model.Instance.node instance 0).Model.Node.capacity
  in
  let e j h = (j * h_count) + h in
  let y j h = (j_count * h_count) + (j * h_count) + h in
  let y_min = 2 * j_count * h_count in
  let n_vars = y_min + 1 in
  let objective = Array.make n_vars 0. in
  objective.(y_min) <- 1.;
  let upper = Array.make n_vars 1. in
  let constraints = ref [] in
  let add c = constraints := c :: !constraints in
  (* (3) each service placed exactly once. *)
  for j = 0 to j_count - 1 do
    add
      (Lp.Problem.c
         ~name:(Printf.sprintf "place_%d" j)
         (List.init h_count (fun h -> (e j h, 1.)))
         Lp.Problem.Eq 1.)
  done;
  (* (4) yield only on the hosting node. *)
  for j = 0 to j_count - 1 do
    for h = 0 to h_count - 1 do
      add
        (Lp.Problem.c
           ~name:(Printf.sprintf "gate_%d_%d" j h)
           [ (y j h, 1.); (e j h, -1.) ]
           Lp.Problem.Le 0.)
    done
  done;
  (* (5) elementary capacities; constraints slack at e = y = 1 are omitted
     (they can never bind). *)
  for j = 0 to j_count - 1 do
    let s = Model.Instance.service instance j in
    for h = 0 to h_count - 1 do
      let node = Model.Instance.node instance h in
      for d = 0 to dims - 1 do
        let re = Vector.get s.Model.Service.requirement.Epair.elementary d in
        let ne = Vector.get s.Model.Service.need.Epair.elementary d in
        let ce = Vector.get node.Model.Node.capacity.Epair.elementary d in
        if re +. ne > ce +. Vector.eps then
          add
            (Lp.Problem.c
               ~name:(Printf.sprintf "elem_%d_%d_%d" j h d)
               [ (e j h, re); (y j h, ne) ]
               Lp.Problem.Le ce)
      done
    done
  done;
  (* (6) aggregate capacities. *)
  for h = 0 to h_count - 1 do
    let node = Model.Instance.node instance h in
    for d = 0 to dims - 1 do
      let coeffs = ref [] in
      for j = j_count - 1 downto 0 do
        let s = Model.Instance.service instance j in
        let ra = Vector.get s.Model.Service.requirement.Epair.aggregate d in
        let na = Vector.get s.Model.Service.need.Epair.aggregate d in
        if ra <> 0. then coeffs := (e j h, ra) :: !coeffs;
        if na <> 0. then coeffs := (y j h, na) :: !coeffs
      done;
      if !coeffs <> [] then
        add
          (Lp.Problem.c
             ~name:(Printf.sprintf "agg_%d_%d" h d)
             !coeffs Lp.Problem.Le
             (Vector.get node.Model.Node.capacity.Epair.aggregate d))
    done
  done;
  (* (7) Y below every service's yield. *)
  for j = 0 to j_count - 1 do
    add
      (Lp.Problem.c
         ~name:(Printf.sprintf "minyield_%d" j)
         ((y_min, -1.) :: List.init h_count (fun h -> (y j h, 1.)))
         Lp.Problem.Ge 0.)
  done;
  let problem =
    Lp.Problem.create ~sense:Lp.Problem.Maximize ~upper
      ~integer:(List.init (j_count * h_count) Fun.id)
      ~n_vars ~objective ~constraints:(List.rev !constraints) ()
  in
  (problem, { n_vars; e; y; y_min })

type reduced = {
  z : int -> int -> int;
  y : int -> int -> int;
  y_min : int;
}

(* The relaxation over e_jh = y_jh + z_jh, z_jh >= 0, in the column layout
   of [formulation] with z_jh where e_jh was. *)
let reduced_relaxation instance =
  let open Vec in
  let j_count = Model.Instance.n_services instance in
  let h_count = Model.Instance.n_nodes instance in
  let dims =
    Epair.dim (Model.Instance.node instance 0).Model.Node.capacity
  in
  let z j h = (j * h_count) + h in
  let y j h = (j_count * h_count) + (j * h_count) + h in
  let y_min = 2 * j_count * h_count in
  let n_vars = y_min + 1 in
  let objective = Array.make n_vars 0. in
  objective.(y_min) <- 1.;
  let upper = Array.make n_vars 1. in
  let constraints = ref [] in
  let add c = constraints := c :: !constraints in
  (* (3) Σ_h y_jh + z_jh = 1. *)
  for j = 0 to j_count - 1 do
    add
      (Lp.Problem.c
         ~name:(Printf.sprintf "place_%d" j)
         (List.concat
            (List.init h_count (fun h -> [ (z j h, 1.); (y j h, 1.) ])))
         Lp.Problem.Eq 1.)
  done;
  (* (4) y_jh <= e_jh is the bound z_jh >= 0. (5), where it can bind: in a
     dimension the service requires nothing of, the bound
     y_jh <= ce / ne; otherwise (re + ne) y_jh + re z_jh <= ce. *)
  for j = 0 to j_count - 1 do
    let s = Model.Instance.service instance j in
    for h = 0 to h_count - 1 do
      let node = Model.Instance.node instance h in
      for d = 0 to dims - 1 do
        let re = Vector.get s.Model.Service.requirement.Epair.elementary d in
        let ne = Vector.get s.Model.Service.need.Epair.elementary d in
        let ce = Vector.get node.Model.Node.capacity.Epair.elementary d in
        if re +. ne > ce +. Vector.eps then
          if re = 0. then upper.(y j h) <- Float.min upper.(y j h) (ce /. ne)
          else
            add
              (Lp.Problem.c
                 ~name:(Printf.sprintf "elem_%d_%d_%d" j h d)
                 [ (z j h, re); (y j h, re +. ne) ]
                 Lp.Problem.Le ce)
      done
    done
  done;
  (* (6) Σ_j (ra + na) y_jh + ra z_jh <= ca. *)
  for h = 0 to h_count - 1 do
    let node = Model.Instance.node instance h in
    for d = 0 to dims - 1 do
      let coeffs = ref [] in
      for j = j_count - 1 downto 0 do
        let s = Model.Instance.service instance j in
        let ra = Vector.get s.Model.Service.requirement.Epair.aggregate d in
        let na = Vector.get s.Model.Service.need.Epair.aggregate d in
        if ra <> 0. then coeffs := (z j h, ra) :: !coeffs;
        if ra +. na <> 0. then coeffs := (y j h, ra +. na) :: !coeffs
      done;
      if !coeffs <> [] then
        add
          (Lp.Problem.c
             ~name:(Printf.sprintf "agg_%d_%d" h d)
             !coeffs Lp.Problem.Le
             (Vector.get node.Model.Node.capacity.Epair.aggregate d))
    done
  done;
  (* (7) unchanged. *)
  for j = 0 to j_count - 1 do
    add
      (Lp.Problem.c
         ~name:(Printf.sprintf "minyield_%d" j)
         ((y_min, -1.) :: List.init h_count (fun h -> (y j h, 1.)))
         Lp.Problem.Ge 0.)
  done;
  let problem =
    Lp.Problem.create ~sense:Lp.Problem.Maximize ~upper ~n_vars ~objective
      ~constraints:(List.rev !constraints) ()
  in
  (problem, { z; y; y_min })

type exact = {
  solution : Vp_solver.solution;
  milp_objective : float;
}

let placement_of_e instance mapping x =
  let j_count = Model.Instance.n_services instance in
  let h_count = Model.Instance.n_nodes instance in
  Array.init j_count (fun j ->
      let best = ref 0 in
      for h = 1 to h_count - 1 do
        if x.(mapping.e j h) > x.(mapping.e j !best) then best := h
      done;
      !best)

let solve_exact ?node_limit instance =
  let problem, mapping = formulation instance in
  match Lp.Branch_bound.solve ?node_limit problem with
  | Lp.Branch_bound.Infeasible -> Some None
  | Lp.Branch_bound.Unbounded ->
      (* The formulation is bounded by construction. *)
      assert false
  | Lp.Branch_bound.Node_limit None -> None
  | Lp.Branch_bound.Node_limit (Some sol) | Lp.Branch_bound.Optimal sol -> (
      let placement = placement_of_e instance mapping sol.Lp.Simplex.x in
      match Vp_solver.evaluate instance placement with
      | None -> Some None
      | Some solution ->
          Some (Some { solution; milp_objective = sol.Lp.Simplex.objective }))

let solve_relaxed instance =
  let problem, mapping = reduced_relaxation instance in
  match Lp.Simplex.solve problem with
  | Lp.Simplex.Optimal sol -> Some (sol, mapping)
  | Lp.Simplex.Infeasible -> None
  | Lp.Simplex.Unbounded -> assert false

let relaxed_bound instance =
  match solve_relaxed instance with
  | Some (sol, _) -> Some sol.Lp.Simplex.objective
  | None -> None

let e_matrix_of instance (mapping : reduced) x =
  let j_count = Model.Instance.n_services instance in
  let h_count = Model.Instance.n_nodes instance in
  Array.init j_count (fun j ->
      Array.init h_count (fun h -> x.(mapping.y j h) +. x.(mapping.z j h)))

let relaxed_e_matrix instance =
  match solve_relaxed instance with
  | None -> None
  | Some (sol, mapping) ->
      Some (e_matrix_of instance mapping sol.Lp.Simplex.x)

let probe_formulation instance ~yield_floor =
  let problem, mapping = reduced_relaxation instance in
  let floor_y = Float.max 0. (Float.min 1. yield_floor) in
  let lower = Array.make problem.Lp.Problem.n_vars 0. in
  lower.(mapping.y_min) <- floor_y;
  let objective = Array.make problem.Lp.Problem.n_vars 0. in
  ({ problem with Lp.Problem.objective; lower }, mapping)

let relaxed_yield_search instance =
  let oracle basis y =
    let problem, mapping = probe_formulation instance ~yield_floor:y in
    let result, returned = Lp.Simplex.solve_basis ?warm_basis:basis problem in
    let next = match returned with Some _ -> returned | None -> basis in
    match result with
    | Lp.Simplex.Optimal sol ->
        (next, Some (e_matrix_of instance mapping sol.Lp.Simplex.x))
    | Lp.Simplex.Infeasible -> (next, None)
    | Lp.Simplex.Unbounded ->
        (* Every probe variable lives in [0,1] and the objective is 0. *)
        assert false
  in
  Binary_search.maximize_warm ~init:None oracle
