let tol = Vec.Vector.eps

let fits (demand : Vec.Vector.t) (capacity : Vec.Vector.t) =
  let demand = (demand :> float array)
  and capacity = (capacity :> float array) in
  if Array.length demand <> Array.length capacity then
    invalid_arg "Yield_ref.fits: dimension mismatch";
  let rec loop i =
    if i >= Array.length demand then true
    else
      let slack_tol = tol *. Float.max 1. (Float.abs capacity.(i)) in
      demand.(i) <= capacity.(i) +. slack_tol && loop (i + 1)
  in
  loop 0

let elementary_bound (node : Model.Node.t) (s : Model.Service.t) =
  let open Vec in
  let ce = node.capacity.Epair.elementary
  and re = s.requirement.Epair.elementary
  and ne = s.need.Epair.elementary in
  let d = Vector.dim ce in
  let rec loop i bound =
    if i >= d then Some bound
    else
      let cap = Vector.get ce i
      and req = Vector.get re i
      and need = Vector.get ne i in
      let slack_tol = tol *. Float.max 1. cap in
      if req > cap +. slack_tol then None
      else if need > 0. then
        loop (i + 1) (Float.min bound (Float.max 0. ((cap -. req) /. need)))
      else loop (i + 1) bound
  in
  loop 0 1.

let requirements_fit (node : Model.Node.t) services =
  let open Vec in
  let d = Model.Node.dim node in
  let ok_elementary =
    List.for_all
      (fun (s : Model.Service.t) ->
        fits s.requirement.Epair.elementary
          node.capacity.Epair.elementary)
      services
  in
  ok_elementary
  &&
  let sum = Array.make d 0. in
  List.iter
    (fun (s : Model.Service.t) ->
      for i = 0 to d - 1 do
        sum.(i) <- sum.(i) +. Vector.get s.requirement.Epair.aggregate i
      done)
    services;
  fits (Vector.of_array sum) node.capacity.Epair.aggregate

(* Exact breakpoint sweep for one aggregate dimension: the largest L in
   [0, 1] with  sum_j (r_j + min(L, cap_j) * n_j) <= c,  where cap_j is the
   service's elementary bound. The demand is piecewise linear and
   nondecreasing in L, so we walk the sorted caps, spending slack at the
   current slope until it runs out or every service saturates. *)
let level_for_dimension ~capacity ~requirements_sum items =
  (* items: (cap_j, n_j) with n_j > 0 *)
  let items =
    List.sort (fun (a, _) (b, _) -> Float.compare a b) items
  in
  let slack = capacity -. requirements_sum in
  if slack < 0. then 0.
  else begin
    let slope0 = List.fold_left (fun acc (_, n) -> acc +. n) 0. items in
    let rec sweep l slack slope = function
      | [] ->
          (* All services saturated below their caps' max; level is free to
             reach 1. *)
          1.
      | (cap, n) :: rest ->
          if slope <= 1e-15 then
            (* Numerically exhausted slope: no further demand growth. *)
            sweep cap slack 0. rest
          else
            let reach = l +. (slack /. slope) in
            if reach <= cap then Float.min 1. reach
            else
              let used = slope *. (cap -. l) in
              sweep cap (slack -. used) (slope -. n) rest
    in
    (* Merge equal caps implicitly: processing them one by one at the same l
       is equivalent. *)
    Float.max 0. (Float.min 1. (sweep 0. slack slope0 items))
  end

let aggregate_level (node : Model.Node.t) services =
  let open Vec in
  let d = Model.Node.dim node in
  let bounds =
    List.map
      (fun s ->
        match elementary_bound node s with Some b -> (s, b) | None -> (s, 0.))
      services
  in
  let level = ref 1. in
  for dim = 0 to d - 1 do
    let capacity = Vector.get node.capacity.Epair.aggregate dim in
    let requirements_sum =
      List.fold_left
        (fun acc ((s : Model.Service.t), _) ->
          acc +. Vector.get s.requirement.Epair.aggregate dim)
        0. bounds
    in
    let items =
      List.filter_map
        (fun ((s : Model.Service.t), b) ->
          let n = Vector.get s.need.Epair.aggregate dim in
          if n > 0. then Some (b, n) else None)
        bounds
    in
    let l = level_for_dimension ~capacity ~requirements_sum items in
    if l < !level then level := l
  done;
  !level

let max_min_yield node services =
  match services with
  | [] -> Some 1.
  | _ ->
      if not (requirements_fit node services) then None
      else begin
        let min_bound = ref 1. in
        let ok = ref true in
        List.iter
          (fun s ->
            match elementary_bound node s with
            | None -> ok := false
            | Some b -> if b < !min_bound then min_bound := b)
          services;
        if not !ok then None
        else Some (Float.min !min_bound (aggregate_level node services))
      end

let water_fill node services =
  match services with
  | [] -> Some []
  | _ ->
      if not (requirements_fit node services) then None
      else begin
        let bounds = List.map (elementary_bound node) services in
        if List.exists Option.is_none bounds then None
        else begin
          let level = aggregate_level node services in
          Some
            (List.map
               (fun b -> Float.min (Option.get b) level)
               bounds)
        end
      end

let fits_at_yield (node : Model.Node.t) services y =
  let open Vec in
  let d = Model.Node.dim node in
  let ok_elementary =
    List.for_all
      (fun (s : Model.Service.t) ->
        let demand = Model.Service.demand_at_yield s y in
        fits demand.Epair.elementary node.capacity.Epair.elementary)
      services
  in
  ok_elementary
  &&
  let sum = Array.make d 0. in
  List.iter
    (fun (s : Model.Service.t) ->
      let demand = Model.Service.demand_at_yield s y in
      for i = 0 to d - 1 do
        sum.(i) <- sum.(i) +. Vector.get demand.Epair.aggregate i
      done)
    services;
  fits (Vector.of_array sum) node.capacity.Epair.aggregate

let group_by_node instance placement =
  let groups = Array.make (Model.Instance.n_nodes instance) [] in
  (* Walk backwards so each node's list ends up in increasing id order. *)
  for j = Array.length placement - 1 downto 0 do
    let h = placement.(j) in
    groups.(h) <- Model.Instance.service instance j :: groups.(h)
  done;
  groups

(* The placement-level folds over lists: every node's services in
   ascending id order ([group_by_node]). *)
let placement_min_yield instance placement =
  if not (Model.Placement.is_valid instance placement) then None
  else begin
    let groups = group_by_node instance placement in
    let worst = ref (Some 1.) in
    Array.iteri
      (fun h services ->
        match !worst with
        | None -> ()
        | Some w -> (
            match
              max_min_yield (Model.Instance.node instance h) services
            with
            | None -> worst := None
            | Some y -> if y < w then worst := Some y))
      groups;
    !worst
  end

let placement_water_fill instance placement =
  if not (Model.Placement.is_valid instance placement) then None
  else begin
    let groups = group_by_node instance placement in
    let yields = Array.make (Model.Instance.n_services instance) 0. in
    let ok = ref true in
    Array.iteri
      (fun h services ->
        if !ok then
          match water_fill (Model.Instance.node instance h) services with
          | None -> ok := false
          | Some ys ->
              List.iter2
                (fun (s : Model.Service.t) y -> yields.(s.id) <- y)
                services ys)
      groups;
    if !ok then Some yields else None
  end

let placement_feasible instance placement =
  Model.Placement.is_valid instance placement
  && Array.for_all Fun.id
       (Array.mapi
          (fun h services ->
            requirements_fit (Model.Instance.node instance h) services)
          (group_by_node instance placement))
