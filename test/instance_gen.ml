(* Random instances for the differential properties: the paper's 2-D
   generator, or Generator_nd over D = 1, 3 or 4 of its default resources.
   cov 0 is drawn too (every node gets the median capacity, so node scores
   tie), and half the cases zero the needs of every other service. *)

type t = {
  seed : int;
  dims : int;
  hosts : int;
  services : int;
  cov : float;
  slack : float;
  zero_needs : bool;
}

let gen =
  QCheck2.Gen.(
    let* seed = int_range 0 100_000 in
    let* dims = oneofl [ 1; 2; 2; 3; 4 ] in
    let* hosts = int_range 1 6 in
    let* services = int_range 1 16 in
    let* cov = oneofl [ 0.; 0.25; 0.5; 1.0 ] in
    let* slack10 = int_range 1 9 in
    let* zero_needs = bool in
    pure
      { seed; dims; hosts; services; cov;
        slack = float_of_int slack10 /. 10.; zero_needs })

let print p =
  Printf.sprintf "D=%d %dx%d seed %d cov %g slack %g%s" p.dims p.hosts
    p.services p.seed p.cov p.slack
    (if p.zero_needs then " zero needs" else "")

let zero_every_other_need =
  Model.Instance.map_services (fun (s : Model.Service.t) ->
      if s.id mod 2 = 1 then s
      else
        Model.Service.v ~id:s.id ~requirement:s.requirement
          ~need:(Vec.Epair.zero (Model.Service.dim s)))

let instance p =
  let rng = Prng.Rng.create ~seed:p.seed in
  let inst =
    if p.dims = 2 then
      Workload.Generator.generate ~rng
        { Workload.Generator.hosts = p.hosts; services = p.services;
          cov = p.cov; slack = p.slack; cpu_homogeneous = false;
          mem_homogeneous = false }
    else
      let all = Workload.Generator_nd.default_resources in
      let resources =
        if p.dims = 1 then [| all.(p.seed mod Array.length all) |]
        else Array.sub all 0 p.dims
      in
      Workload.Generator_nd.generate ~rng
        { Workload.Generator_nd.hosts = p.hosts; services = p.services;
          cov = p.cov; resources }
  in
  if p.zero_needs then zero_every_other_need inst else inst

(* A hand-built 2-D instance whose CPU is oversubscribed [factor] times
   (4-core nodes, small memory requirements, CPU needs only): each
   service's aggregate CPU need is [factor] times its share of the total
   capacity, so the relaxation's optimum is about [1 / factor] and a
   yield search bisects instead of stopping at 1. *)
let oversubscribed ~seed ~nodes:n_nodes ~services:n_services ~factor =
  let rng = Prng.Rng.create ~seed in
  let nodes =
    Array.init n_nodes (fun id ->
        Model.Node.make_cores ~id ~cores:4
          ~cpu:(Prng.Rng.uniform_range rng 1.5 2.5)
          ~mem:1.0)
  in
  let total_cpu =
    Array.fold_left
      (fun acc (nd : Model.Node.t) ->
        acc +. Vec.Vector.get nd.capacity.Vec.Epair.aggregate 0)
      0. nodes
  in
  let per_service = factor *. total_cpu /. Float.of_int n_services in
  let services =
    Array.init n_services (fun id ->
        let agg = per_service *. Prng.Rng.uniform_range rng 0.7 1.3 in
        Model.Service.make_2d ~id
          ~mem_req:(Prng.Rng.uniform_range rng 0.05 0.15)
          ~cpu_need:(agg /. 2., agg) ())
  in
  Model.Instance.v ~nodes ~services
