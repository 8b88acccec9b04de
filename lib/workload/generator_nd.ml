type resource = {
  name : string;
  poolable : bool;
  elements : int;
  fluid : bool;
  utilization : float;
}

let cpu =
  { name = "cpu"; poolable = false; elements = 4; fluid = true;
    utilization = 1.0 }

let memory =
  { name = "memory"; poolable = true; elements = 1; fluid = false;
    utilization = 0.6 }

let network =
  { name = "network"; poolable = false; elements = 2; fluid = true;
    utilization = 0.5 }

let disk =
  { name = "disk"; poolable = true; elements = 1; fluid = false;
    utilization = 0.4 }

let default_resources = [| cpu; memory; network; disk |]

type config = {
  hosts : int;
  services : int;
  cov : float;
  resources : resource array;
}

let validate config =
  if Array.length config.resources = 0 then
    invalid_arg "Generator_nd: no resources";
  if config.hosts <= 0 then invalid_arg "Generator_nd: hosts";
  if config.services <= 0 then invalid_arg "Generator_nd: services";
  if not (Float.is_finite config.cov && config.cov >= 0.) then
    invalid_arg "Generator_nd: cov";
  Array.iter
    (fun r ->
      if r.elements < 1 then
        invalid_arg (Printf.sprintf "Generator_nd: %s: elements < 1" r.name);
      if not (r.utilization > 0. && r.utilization <= 1.) then
        invalid_arg
          (Printf.sprintf "Generator_nd: %s: utilization out of (0, 1]"
             r.name))
    config.resources

let capacity_median = 0.5

let sample_capacity rng cov =
  if cov <= 0. then capacity_median
  else
    Prng.Rng.truncated_normal rng ~mean:capacity_median
      ~stddev:(cov *. capacity_median) ~lo:0.001 ~hi:1.0

let generate ?rng config =
  validate config;
  let rng = match rng with Some r -> r | None -> Prng.Rng.create ~seed:42 in
  let dims = Array.length config.resources in
  (* Platform. *)
  let aggregates =
    Array.init config.hosts (fun _ ->
        Array.init dims (fun _ -> sample_capacity rng config.cov))
  in
  let nodes =
    Array.init config.hosts (fun id ->
        let agg = aggregates.(id) in
        let elt =
          Array.mapi
            (fun d a ->
              let r = config.resources.(d) in
              if r.poolable then a else a /. float_of_int r.elements)
            agg
        in
        Model.Node.v ~id
          ~capacity:
            (Vec.Epair.v
               ~elementary:(Vec.Vector.of_array elt)
               ~aggregate:(Vec.Vector.of_array agg)))
  in
  let total d =
    Array.fold_left (fun acc agg -> acc +. agg.(d)) 0. aggregates
  in
  (* Raw per-service demands: lognormal shapes for rigid resources (many
     small, few large), element counts plus per-element intensity for fluid
     ones. Each dimension is then rescaled to its target utilization. *)
  let raw =
    Array.init config.services (fun _ ->
        Array.init dims (fun d ->
            let r = config.resources.(d) in
            if r.fluid then begin
              let used_elements = 1 + Prng.Rng.int rng r.elements in
              let intensity = Prng.Rng.uniform_range rng 0.25 1.0 in
              (float_of_int used_elements, intensity)
            end
            else begin
              let rec draw attempts =
                if attempts > 1_000 then 0.05
                else
                  let x = Prng.Rng.lognormal rng ~mu:(-3.0) ~sigma:1.0 in
                  if x >= 0.001 && x <= 0.5 then x else draw (attempts + 1)
              in
              (1., draw 0)
            end))
  in
  let scale =
    Array.init dims (fun d ->
        let sum =
          Array.fold_left
            (fun acc per_service ->
              let elements, intensity = per_service.(d) in
              acc +. (elements *. intensity))
            0. raw
        in
        config.resources.(d).utilization *. total d /. sum)
  in
  let services =
    Array.init config.services (fun id ->
        let req_e = Array.make dims 0. and req_a = Array.make dims 0. in
        let need_e = Array.make dims 0. and need_a = Array.make dims 0. in
        Array.iteri
          (fun d (elements, intensity) ->
            let r = config.resources.(d) in
            let agg = scale.(d) *. elements *. intensity in
            let elt = agg /. elements in
            if r.fluid then begin
              need_a.(d) <- agg;
              need_e.(d) <- elt
            end
            else begin
              req_a.(d) <- agg;
              req_e.(d) <- (if r.poolable then agg else elt)
            end)
          raw.(id);
        Model.Service.v ~id
          ~requirement:
            (Vec.Epair.v
               ~elementary:(Vec.Vector.of_array req_e)
               ~aggregate:(Vec.Vector.of_array req_a))
          ~need:
            (Vec.Epair.v
               ~elementary:(Vec.Vector.of_array need_e)
               ~aggregate:(Vec.Vector.of_array need_a)))
  in
  Model.Instance.v ~nodes ~services
