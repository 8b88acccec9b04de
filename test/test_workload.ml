(* Tests for the workload substrate: PRNG, Google-trace model, instance
   generator, and error perturbation. *)

let check_float = Alcotest.(check (float 1e-9))

(* PRNG. *)

let test_rng_deterministic () =
  let a = Prng.Rng.create ~seed:7 and b = Prng.Rng.create ~seed:7 in
  for _ = 1 to 100 do
    check_float "same stream" (Prng.Rng.uniform a) (Prng.Rng.uniform b)
  done

let test_rng_copy_independent () =
  let a = Prng.Rng.create ~seed:7 in
  let _ = Prng.Rng.uniform a in
  let b = Prng.Rng.copy a in
  check_float "copy continues identically" (Prng.Rng.uniform a)
    (Prng.Rng.uniform b)

let test_rng_split_differs () =
  let a = Prng.Rng.create ~seed:7 in
  let b = Prng.Rng.split a in
  let xa = Prng.Rng.uniform a and xb = Prng.Rng.uniform b in
  Alcotest.(check bool) "streams diverge" true (xa <> xb)

let test_rng_uniform_range () =
  let rng = Prng.Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let x = Prng.Rng.uniform_range rng (-2.) 5. in
    Alcotest.(check bool) "in range" true (x >= -2. && x < 5.)
  done

let test_rng_int_range () =
  let rng = Prng.Rng.create ~seed:3 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    let k = Prng.Rng.int rng 5 in
    Alcotest.(check bool) "in range" true (k >= 0 && k < 5);
    seen.(k) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_rng_gaussian_moments () =
  let rng = Prng.Rng.create ~seed:11 in
  let n = 20_000 in
  let xs = Array.init n (fun _ -> Prng.Rng.gaussian rng) in
  let mean = Array.fold_left ( +. ) 0. xs /. float_of_int n in
  let var =
    Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. xs
    /. float_of_int n
  in
  Alcotest.(check bool) "mean ~ 0" true (Float.abs mean < 0.05);
  Alcotest.(check bool) "variance ~ 1" true (Float.abs (var -. 1.) < 0.1)

let test_truncated_normal_bounds () =
  let rng = Prng.Rng.create ~seed:5 in
  for _ = 1 to 2000 do
    let x =
      Prng.Rng.truncated_normal rng ~mean:0.5 ~stddev:0.5 ~lo:0.001 ~hi:1.0
    in
    Alcotest.(check bool) "within bounds" true (x >= 0.001 && x <= 1.0)
  done

let test_choose_weighted () =
  let rng = Prng.Rng.create ~seed:9 in
  let counts = Array.make 3 0 in
  for _ = 1 to 3000 do
    let i = Prng.Rng.choose_weighted rng [| 0.7; 0.0; 0.3 |] in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero-weight never drawn" 0 counts.(1);
  Alcotest.(check bool) "roughly proportional" true
    (counts.(0) > counts.(2));
  Alcotest.check_raises "all zero"
    (Invalid_argument "Rng.choose_weighted: all weights zero") (fun () ->
      ignore (Prng.Rng.choose_weighted rng [| 0.; 0. |]))

(* Google trace model. *)

let test_core_distribution_normalized () =
  let total =
    Array.fold_left (fun acc (_, p) -> acc +. p) 0.
      Workload.Google_trace.core_distribution
  in
  check_float "probabilities sum to 1" 1.0 total

let test_trace_samples_in_range () =
  let rng = Prng.Rng.create ~seed:1 in
  for _ = 1 to 2000 do
    let t = Workload.Google_trace.sample rng in
    Alcotest.(check bool) "cores in 1..4" true
      (t.Workload.Google_trace.cores >= 1
       && t.cores <= Workload.Google_trace.max_cores);
    Alcotest.(check bool) "memory fraction in (0, 0.5]" true
      (t.memory_fraction > 0. && t.memory_fraction <= 0.5)
  done

let test_trace_mostly_single_core () =
  let rng = Prng.Rng.create ~seed:2 in
  let single = ref 0 in
  let n = 5000 in
  for _ = 1 to n do
    if Workload.Google_trace.sample_cores rng = 1 then incr single
  done;
  Alcotest.(check bool) "majority single-core" true
    (float_of_int !single /. float_of_int n > 0.6)

(* Generator. *)

let config ?(hosts = 16) ?(services = 40) ?(cov = 0.5) ?(slack = 0.4)
    ?(cpu_homogeneous = false) ?(mem_homogeneous = false) () =
  {
    Workload.Generator.hosts;
    services;
    cov;
    slack;
    cpu_homogeneous;
    mem_homogeneous;
  }

let test_generator_validation () =
  Alcotest.check_raises "bad slack"
    (Invalid_argument "Generator: slack must be in (0, 1)") (fun () ->
      ignore (Workload.Generator.generate (config ~slack:1.0 ())));
  Alcotest.check_raises "NaN slack"
    (Invalid_argument "Generator: slack must be in (0, 1)") (fun () ->
      ignore (Workload.Generator.generate (config ~slack:Float.nan ())));
  List.iter
    (fun cov ->
      Alcotest.check_raises
        (Printf.sprintf "cov %g" cov)
        (Invalid_argument "Generator: cov must be finite and non-negative")
        (fun () -> ignore (Workload.Generator.generate (config ~cov ()))))
    [ Float.nan; Float.infinity; -0.5 ]

let test_generator_sizes () =
  let inst = Workload.Generator.generate (config ()) in
  Alcotest.(check int) "hosts" 16 (Model.Instance.n_nodes inst);
  Alcotest.(check int) "services" 40 (Model.Instance.n_services inst)

let test_cpu_needs_normalized () =
  (* Sum of aggregate CPU needs = total CPU capacity (paper §4). *)
  let inst = Workload.Generator.generate (config ()) in
  let total_cpu = Vec.Vector.get (Model.Instance.total_capacity inst) 0 in
  let total_need = Vec.Vector.get (Model.Instance.total_need inst) 0 in
  Alcotest.(check (float 1e-6)) "needs = capacity" total_cpu total_need

let test_memory_slack_respected () =
  List.iter
    (fun slack ->
      let inst = Workload.Generator.generate (config ~slack ()) in
      let total_mem = Vec.Vector.get (Model.Instance.total_capacity inst) 1 in
      let total_req =
        Vec.Vector.get (Model.Instance.total_requirement inst) 1
      in
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "slack %.1f" slack)
        ((1. -. slack) *. total_mem)
        total_req)
    [ 0.1; 0.4; 0.9 ]

let test_homogeneous_flags () =
  let inst =
    Workload.Generator.generate ~rng:(Prng.Rng.create ~seed:3)
      (config ~cov:1.0 ~cpu_homogeneous:true ())
  in
  let cpu h =
    Vec.Vector.get
      (Model.Instance.node inst h).Model.Node.capacity.Vec.Epair.aggregate 0
  in
  for h = 0 to Model.Instance.n_nodes inst - 1 do
    check_float "cpu pinned at 0.5" 0.5 (cpu h)
  done;
  (* Memory should vary at cov = 1. *)
  let mem h =
    Vec.Vector.get
      (Model.Instance.node inst h).Model.Node.capacity.Vec.Epair.aggregate 1
  in
  let distinct = ref false in
  for h = 1 to Model.Instance.n_nodes inst - 1 do
    if mem h <> mem 0 then distinct := true
  done;
  Alcotest.(check bool) "memory heterogeneous" true !distinct

let test_cov_zero_fully_homogeneous () =
  let inst = Workload.Generator.generate (config ~cov:0.0 ()) in
  for h = 0 to Model.Instance.n_nodes inst - 1 do
    let node = Model.Instance.node inst h in
    check_float "cpu" 0.5
      (Vec.Vector.get node.Model.Node.capacity.Vec.Epair.aggregate 0);
    check_float "mem" 0.5
      (Vec.Vector.get node.Model.Node.capacity.Vec.Epair.aggregate 1)
  done

let test_quad_core_elementary () =
  let inst = Workload.Generator.generate (config ()) in
  let node = Model.Instance.node inst 0 in
  check_float "elementary = aggregate / 4"
    (Vec.Vector.get node.Model.Node.capacity.Vec.Epair.aggregate 0 /. 4.)
    (Vec.Vector.get node.Model.Node.capacity.Vec.Epair.elementary 0)

let test_elementary_need_is_per_core () =
  (* n_e = n_a / cores: the per-core reference value is common to all
     services. *)
  let inst = Workload.Generator.generate (config ()) in
  let references =
    List.init (Model.Instance.n_services inst) (fun j ->
        let s = Model.Instance.service inst j in
        Vec.Vector.get s.Model.Service.need.Vec.Epair.elementary 0)
  in
  match references with
  | [] -> Alcotest.fail "no services"
  | r :: rest ->
      List.iter (fun r' -> check_float "same reference" r r') rest

let test_generator_deterministic () =
  let a = Workload.Generator.generate ~rng:(Prng.Rng.create ~seed:4) (config ()) in
  let b = Workload.Generator.generate ~rng:(Prng.Rng.create ~seed:4) (config ()) in
  for j = 0 to Model.Instance.n_services a - 1 do
    Alcotest.(check bool) "same services" true
      (Model.Service.equal (Model.Instance.service a j)
         (Model.Instance.service b j))
  done

(* Errors. *)

let test_perturb_zero_error_identity () =
  let inst = Workload.Generator.generate (config ()) in
  let rng = Prng.Rng.create ~seed:0 in
  let p = Workload.Errors.perturb ~rng ~max_error:0. inst in
  for j = 0 to Model.Instance.n_services inst - 1 do
    Alcotest.(check bool) "unchanged" true
      (Model.Service.equal (Model.Instance.service inst j)
         (Model.Instance.service p j))
  done

let test_perturb_bounds () =
  let inst = Workload.Generator.generate (config ()) in
  let rng = Prng.Rng.create ~seed:1 in
  let max_error = 0.1 in
  let p = Workload.Errors.perturb ~rng ~max_error inst in
  let orig = Workload.Errors.true_cpu_needs inst in
  let pert = Workload.Errors.true_cpu_needs p in
  Array.iteri
    (fun j x ->
      Alcotest.(check bool) "within error band or clamped" true
        (Float.abs (x -. orig.(j)) <= max_error +. 1e-9 || x = 0.001);
      Alcotest.(check bool) "above floor" true (x >= 0.001))
    pert

let test_perturb_preserves_elementary_proportion () =
  let inst = Workload.Generator.generate (config ()) in
  let rng = Prng.Rng.create ~seed:2 in
  let p = Workload.Errors.perturb ~rng ~max_error:0.2 inst in
  for j = 0 to Model.Instance.n_services inst - 1 do
    let s = Model.Instance.service inst j
    and s' = Model.Instance.service p j in
    let ratio (x : Model.Service.t) =
      let open Vec in
      let e = Vector.get x.need.Epair.elementary 0
      and a = Vector.get x.need.Epair.aggregate 0 in
      if a = 0. then 0. else e /. a
    in
    Alcotest.(check (float 1e-9)) "elem/agg ratio preserved" (ratio s)
      (ratio s')
  done

let test_perturb_only_touches_cpu () =
  let inst = Workload.Generator.generate (config ()) in
  let rng = Prng.Rng.create ~seed:3 in
  let p = Workload.Errors.perturb ~rng ~max_error:0.3 inst in
  for j = 0 to Model.Instance.n_services inst - 1 do
    let s = Model.Instance.service inst j
    and s' = Model.Instance.service p j in
    Alcotest.(check bool) "requirements unchanged" true
      (Vec.Epair.equal s.Model.Service.requirement s'.Model.Service.requirement);
    check_float "memory need unchanged"
      (Vec.Vector.get s.Model.Service.need.Vec.Epair.aggregate 1)
      (Vec.Vector.get s'.Model.Service.need.Vec.Epair.aggregate 1)
  done

let test_threshold () =
  let inst = Workload.Generator.generate (config ~services:60 ()) in
  let t = Workload.Errors.apply_threshold ~threshold:0.2 inst in
  let needs = Workload.Errors.true_cpu_needs t in
  Array.iter
    (fun x -> Alcotest.(check bool) "at least threshold" true (x >= 0.2))
    needs;
  (* Needs already above threshold stay put. *)
  let orig = Workload.Errors.true_cpu_needs inst in
  Array.iteri
    (fun j x -> if orig.(j) >= 0.2 then check_float "untouched" orig.(j) x)
    needs

(* N-dimensional generator. *)

let nd_config ?(hosts = 6) ?(services = 18) ?(cov = 0.5)
    ?(resources = Workload.Generator_nd.default_resources) () =
  { Workload.Generator_nd.hosts; services; cov; resources }

let test_nd_dims () =
  let inst = Workload.Generator_nd.generate (nd_config ()) in
  let node = Model.Instance.node inst 0 in
  Alcotest.(check int) "4 dimensions" 4
    (Vec.Epair.dim node.Model.Node.capacity)

let test_nd_utilization_targets () =
  let inst = Workload.Generator_nd.generate (nd_config ()) in
  let total = Model.Instance.total_capacity inst in
  let needs = Model.Instance.total_need inst in
  let reqs = Model.Instance.total_requirement inst in
  let resources = Workload.Generator_nd.default_resources in
  Array.iteri
    (fun d (r : Workload.Generator_nd.resource) ->
      let demand =
        if r.fluid then Vec.Vector.get needs d else Vec.Vector.get reqs d
      in
      Alcotest.(check (float 1e-6))
        (r.name ^ " utilization")
        (r.utilization *. Vec.Vector.get total d)
        demand)
    resources

let test_nd_fluid_rigid_split () =
  let inst = Workload.Generator_nd.generate (nd_config ()) in
  let needs = Model.Instance.total_need inst in
  let reqs = Model.Instance.total_requirement inst in
  (* cpu (0) and network (2) are fluid; memory (1) and disk (3) rigid. *)
  Alcotest.(check (float 1e-12)) "cpu has no requirement" 0.
    (Vec.Vector.get reqs 0);
  Alcotest.(check (float 1e-12)) "memory has no need" 0.
    (Vec.Vector.get needs 1);
  Alcotest.(check bool) "network need positive" true
    (Vec.Vector.get needs 2 > 0.);
  Alcotest.(check bool) "disk requirement positive" true
    (Vec.Vector.get reqs 3 > 0.)

let test_nd_poolable_elementary () =
  let inst = Workload.Generator_nd.generate (nd_config ()) in
  for h = 0 to Model.Instance.n_nodes inst - 1 do
    let cap = (Model.Instance.node inst h).Model.Node.capacity in
    (* memory (poolable): elementary = aggregate; cpu (4 elements):
       elementary = aggregate / 4. *)
    check_float "memory poolable"
      (Vec.Vector.get cap.Vec.Epair.aggregate 1)
      (Vec.Vector.get cap.Vec.Epair.elementary 1);
    check_float "cpu quarters"
      (Vec.Vector.get cap.Vec.Epair.aggregate 0 /. 4.)
      (Vec.Vector.get cap.Vec.Epair.elementary 0)
  done

let test_nd_solvable () =
  (* METAHVPLIGHT must handle 4-D instances end to end. *)
  let inst =
    Workload.Generator_nd.generate
      ~rng:(Prng.Rng.create ~seed:8)
      (nd_config ~hosts:6 ~services:18 ())
  in
  match Heuristics.Algorithms.metahvplight.solve inst with
  | Some sol -> (
      match Model.Placement.water_fill inst sol.placement with
      | Some alloc ->
          Alcotest.(check bool) "valid 4-D allocation" true
            (Model.Placement.check_constraints inst alloc = Ok ())
      | None -> Alcotest.fail "placement infeasible")
  | None -> Alcotest.fail "4-D instance should be solvable"

let test_nd_validation () =
  Alcotest.check_raises "empty resources"
    (Invalid_argument "Generator_nd: no resources") (fun () ->
      ignore
        (Workload.Generator_nd.generate (nd_config ~resources:[||] ())))

(* Property: slack scaling and CPU normalization hold for arbitrary
   configurations. *)

let prop_generator_invariants =
  QCheck2.Test.make ~name:"generator invariants (any config)" ~count:100
    QCheck2.Gen.(
      let* seed = int_range 0 10_000 in
      let* hosts = int_range 1 32 in
      let* services = int_range 1 64 in
      let* cov10 = int_range 0 10 in
      let* slack100 = int_range 5 95 in
      pure (seed, hosts, services, float_of_int cov10 /. 10.,
            float_of_int slack100 /. 100.))
    (fun (seed, hosts, services, cov, slack) ->
      let inst =
        Workload.Generator.generate
          ~rng:(Prng.Rng.create ~seed)
          (config ~hosts ~services ~cov ~slack ())
      in
      let total = Model.Instance.total_capacity inst in
      let needs = Model.Instance.total_need inst in
      let reqs = Model.Instance.total_requirement inst in
      Float.abs (Vec.Vector.get needs 0 -. Vec.Vector.get total 0) <= 1e-6
      && Float.abs
           (Vec.Vector.get reqs 1 -. ((1. -. slack) *. Vec.Vector.get total 1))
         <= 1e-6)

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("rng deterministic", test_rng_deterministic);
      ("rng copy", test_rng_copy_independent);
      ("rng split", test_rng_split_differs);
      ("rng uniform range", test_rng_uniform_range);
      ("rng int range", test_rng_int_range);
      ("rng gaussian moments", test_rng_gaussian_moments);
      ("truncated normal bounds", test_truncated_normal_bounds);
      ("choose weighted", test_choose_weighted);
      ("trace distribution normalized", test_core_distribution_normalized);
      ("trace samples in range", test_trace_samples_in_range);
      ("trace mostly single-core", test_trace_mostly_single_core);
      ("generator validation", test_generator_validation);
      ("generator sizes", test_generator_sizes);
      ("CPU needs normalized to capacity", test_cpu_needs_normalized);
      ("memory slack respected", test_memory_slack_respected);
      ("homogeneous flags", test_homogeneous_flags);
      ("cov 0 fully homogeneous", test_cov_zero_fully_homogeneous);
      ("quad-core elementary", test_quad_core_elementary);
      ("common per-core reference need", test_elementary_need_is_per_core);
      ("generator deterministic", test_generator_deterministic);
      ("perturb zero error", test_perturb_zero_error_identity);
      ("perturb bounds + floor", test_perturb_bounds);
      ("perturb keeps elem/agg ratio", test_perturb_preserves_elementary_proportion);
      ("perturb only touches CPU needs", test_perturb_only_touches_cpu);
      ("threshold mitigation", test_threshold);
      ("nd generator dims", test_nd_dims);
      ("nd utilization targets", test_nd_utilization_targets);
      ("nd fluid/rigid split", test_nd_fluid_rigid_split);
      ("nd poolable elementary", test_nd_poolable_elementary);
      ("nd 4-D instances solvable", test_nd_solvable);
      ("nd validation", test_nd_validation);
    ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_generator_invariants ]
