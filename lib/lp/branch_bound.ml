type outcome =
  | Optimal of Simplex.solution
  | Infeasible
  | Unbounded
  | Node_limit of Simplex.solution option

let integrality_tol = 1e-6

(* Search-shape counters (lib/obs): relaxations solved, nodes whose
   relaxation was infeasible (both children of a branch on an already-tight
   variable land here), and nodes cut by the incumbent bound. *)
let c_nodes = Obs.Metrics.counter "branch_bound.nodes"
let c_infeasible = Obs.Metrics.counter "branch_bound.infeasible_nodes"
let c_pruned = Obs.Metrics.counter "branch_bound.pruned_nodes"

(* Most fractional integer variable of [x], if any. *)
let branching_variable (p : Problem.t) x =
  let best = ref (-1) and best_frac = ref integrality_tol in
  for v = 0 to p.n_vars - 1 do
    if p.integer.(v) then begin
      let f = x.(v) -. Float.round x.(v) in
      let dist = Float.abs f in
      (* distance to nearest integer, in [0, 0.5] *)
      if dist > !best_frac then begin
        best := v;
        best_frac := dist
      end
    end
  done;
  if !best >= 0 then Some !best else None

(* A node is pruned unless its relaxation beats the incumbent by more than
   this. *)
let absolute_gap = 1e-7

let solve ?(node_limit = 200_000) (p : Problem.t) =
  let better a b =
    match p.sense with
    | Problem.Maximize -> a > b
    | Problem.Minimize -> a < b
  in
  let can_improve relax_obj incumbent =
    match incumbent with
    | None -> true
    | Some (inc : Simplex.solution) ->
        better relax_obj (inc.objective +.
          match p.sense with
          | Problem.Maximize -> absolute_gap
          | Problem.Minimize -> -.absolute_gap)
  in
  let nodes = ref 0 in
  let incumbent = ref None in
  let truncated = ref false in
  let root_unbounded = ref false in
  (* DFS over (lower, upper) bound pairs. Each node re-solves its LP
     relaxation warm-started from the parent's optimal basis: a child
     differs from its parent only in one variable bound, so the parent
     basis is dual feasible for the child and the dual simplex usually
     reconciles it in a handful of pivots. Both children start from the
     parent's basis; an infeasible child's basis is dropped. Every node
     shares the relaxation's constraint list, so each warm start adopts
     the factor its parent's basis carries instead of factoring it. *)
  let relaxed = Problem.relax p in
  let rec explore lower upper depth warm =
    if !truncated then ()
    else if !nodes >= node_limit then truncated := true
    else begin
      incr nodes;
      Obs.Metrics.incr c_nodes;
      let node = { relaxed with Problem.lower; upper } in
      match Simplex.solve_basis ?warm_basis:warm node with
      | Simplex.Infeasible, _ -> Obs.Metrics.incr c_infeasible
      | Simplex.Unbounded, _ ->
          (* Only meaningful at the root: an unbounded relaxation of a node
             created by tightening bounds is still reported as unbounded
             overall, matching MILP-solver convention. *)
          if depth = 0 then root_unbounded := true else truncated := true
      | Simplex.Optimal sol, basis ->
          let warm = match basis with Some _ -> basis | None -> warm in
          if can_improve sol.objective !incumbent then begin
            match branching_variable p sol.x with
            | None ->
                (* Integral: new incumbent. Round integer coordinates
                   exactly so downstream consumers can pattern-match. *)
                let x = Array.copy sol.x in
                Array.iteri
                  (fun v flag -> if flag then x.(v) <- Float.round x.(v))
                  p.integer;
                let objective = Problem.objective_value p x in
                incumbent := Some { Simplex.objective; x }
            | Some v ->
                let fl = Float.of_int (int_of_float (Float.round
                           (Float.floor sol.x.(v)))) in
                let down_upper = Array.copy upper in
                down_upper.(v) <- Float.min upper.(v) fl;
                let up_lower = Array.copy lower in
                up_lower.(v) <- Float.max lower.(v) (fl +. 1.);
                (* Explore the branch suggested by the fractional value
                   first: round-to-nearest gives slightly better incumbents
                   early on. *)
                if sol.x.(v) -. fl >= 0.5 then begin
                  if up_lower.(v) <= upper.(v) then
                    explore up_lower upper (depth + 1) warm;
                  if down_upper.(v) >= lower.(v) then
                    explore lower down_upper (depth + 1) warm
                end
                else begin
                  if down_upper.(v) >= lower.(v) then
                    explore lower down_upper (depth + 1) warm;
                  if up_lower.(v) <= upper.(v) then
                    explore up_lower upper (depth + 1) warm
                end
          end
          else Obs.Metrics.incr c_pruned
    end
  in
  explore (Array.copy p.lower) (Array.copy p.upper) 0 None;
  if !root_unbounded then Unbounded
  else if !truncated then Node_limit !incumbent
  else
    match !incumbent with
    | Some sol -> Optimal sol
    | None -> Infeasible
