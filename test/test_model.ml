(* Tests for the problem model: nodes, services, instances, yield semantics
   (including the paper's Fig. 1 worked example), placements and the MILP
   constraint checker. *)

let check_float = Alcotest.(check (float 1e-9))

(* Fig. 1 of the paper. *)
let node_a = Model.Node.make_cores ~id:0 ~cores:4 ~cpu:3.2 ~mem:1.0
let node_b = Model.Node.make_cores ~id:1 ~cores:2 ~cpu:2.0 ~mem:0.5

let fig1_service =
  Model.Service.make_2d ~id:0 ~cpu_req:(0.5, 1.0) ~mem_req:0.5
    ~cpu_need:(0.5, 1.0) ~mem_need:0.0 ()

let fig1_instance =
  Model.Instance.v ~nodes:[| node_a; node_b |] ~services:[| fig1_service |]

(* One node's services (ids 0, 1, ... in list order) as a one-node
   instance, all placed on it: the library's per-node evaluation reached
   through [Model.Placement]. *)
let one_node (node : Model.Node.t) services =
  ( Model.Instance.v
      ~nodes:[| Model.Node.v ~id:0 ~capacity:node.capacity |]
      ~services:(Array.of_list services),
    Array.make (List.length services) 0 )

let water_fill_one node services =
  let inst, placement = one_node node services in
  Option.map
    (fun (a : Model.Placement.allocation) -> Array.to_list a.yields)
    (Model.Placement.water_fill inst placement)

let min_yield_one node services =
  let inst, placement = one_node node services in
  Model.Placement.min_yield inst placement

let test_node_constructors () =
  let open Vec in
  check_float "elementary cpu" 0.8
    (Vector.get node_a.Model.Node.capacity.Epair.elementary 0);
  check_float "aggregate cpu" 3.2
    (Vector.get node_a.Model.Node.capacity.Epair.aggregate 0);
  check_float "memory poolable" 1.0
    (Vector.get node_a.Model.Node.capacity.Epair.elementary 1)

let test_node_invalid () =
  Alcotest.check_raises "elementary > aggregate"
    (Invalid_argument "Node.v: elementary capacity exceeds aggregate in dim 0")
    (fun () ->
      ignore
        (Model.Node.v ~id:0
           ~capacity:(Vec.Epair.of_arrays [| 2.; 1. |] [| 1.; 1. |])));
  (* NaN fails every comparison, so only an explicit finiteness check
     stops it (constructors are the boundary the codec and generators
     share). *)
  List.iter
    (fun bad ->
      Alcotest.check_raises
        (Printf.sprintf "node capacity %g" bad)
        (Invalid_argument "Node.v: non-finite capacity in dim 1")
        (fun () ->
          ignore
            (Model.Node.v ~id:0
               ~capacity:(Vec.Epair.of_arrays [| 1.; bad |] [| 1.; bad |])));
      Alcotest.check_raises
        (Printf.sprintf "service need %g" bad)
        (Invalid_argument "Service.v: non-finite need component")
        (fun () -> ignore (Model.Service.make_2d ~id:0 ~cpu_need:(0., bad) ())))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_service_demand () =
  let open Vec in
  let d = Model.Service.demand_at_yield fig1_service 0.6 in
  check_float "agg cpu at 0.6" 1.6 (Vector.get d.Epair.aggregate 0);
  check_float "elem cpu at 0.6" 0.8 (Vector.get d.Epair.elementary 0)

let test_fig1_yields () =
  (match Model.Yield.max_min_yield node_a [ fig1_service ] with
  | Some y -> check_float "node A yield" 0.6 y
  | None -> Alcotest.fail "node A should be feasible");
  match Model.Yield.max_min_yield node_b [ fig1_service ] with
  | Some y -> check_float "node B yield" 1.0 y
  | None -> Alcotest.fail "node B should be feasible"

let test_elementary_bound () =
  (match Oracles.Yield_ref.elementary_bound node_a fig1_service with
  | Some b -> check_float "bound on A" 0.6 b
  | None -> Alcotest.fail "bound must exist");
  (* The library's water-filled yield is the bound here: node A's
     aggregate capacity does not bind. *)
  (match water_fill_one node_a [ fig1_service ] with
  | Some [ y ] -> check_float "library bound on A" 0.6 y
  | _ -> Alcotest.fail "water-fill must succeed");
  (* A service whose elementary requirement exceeds one core. *)
  let fat =
    Model.Service.make_2d ~id:0 ~cpu_req:(0.9, 0.9) ~mem_req:0.1 ()
  in
  Alcotest.(check bool) "requirement too large" true
    (Oracles.Yield_ref.elementary_bound node_a fat = None);
  Alcotest.(check bool) "library rejects it" true
    (min_yield_one node_a [ fat ] = None)

let test_zero_need_service () =
  let rigid = Model.Service.make_2d ~id:0 ~mem_req:0.3 () in
  match Model.Yield.max_min_yield node_a [ rigid ] with
  | Some y -> check_float "no needs -> yield 1" 1.0 y
  | None -> Alcotest.fail "should fit"

let test_requirements_fit () =
  let s1 = Model.Service.make_2d ~id:0 ~mem_req:0.6 () in
  let s2 = Model.Service.make_2d ~id:1 ~mem_req:0.6 () in
  Alcotest.(check bool) "one fits" true
    (Oracles.Yield_ref.requirements_fit node_a [ s1 ]);
  Alcotest.(check bool) "two exceed memory" false
    (Oracles.Yield_ref.requirements_fit node_a [ s1; s2 ]);
  let feasible services =
    let inst, placement = one_node node_a services in
    Model.Placement.min_yield inst placement <> None
  in
  Alcotest.(check bool) "library: one fits" true (feasible [ s1 ]);
  Alcotest.(check bool) "library: two exceed memory" false
    (feasible [ s1; s2 ])

let test_aggregate_level_sharing () =
  (* Two services with CPU needs 0.5/0.5 aggregate on a node with 1.0 CPU:
     level 1; with needs 1.0 each: level 0.5. *)
  let node = Model.Node.make_cores ~id:0 ~cores:4 ~cpu:1.0 ~mem:1.0 in
  let svc id need =
    Model.Service.make_2d ~id ~mem_req:0.1 ~cpu_need:(need /. 4., need) ()
  in
  let l1 = Oracles.Yield_ref.aggregate_level node [ svc 0 0.5; svc 1 0.5 ] in
  check_float "exact fill" 1.0 l1;
  let l2 = Oracles.Yield_ref.aggregate_level node [ svc 0 1.0; svc 1 1.0 ] in
  check_float "half fill" 0.5 l2;
  (* No elementary bound binds, so the library's minimum is the level. *)
  Alcotest.(check (option (float 1e-9))) "library exact fill" (Some 1.0)
    (min_yield_one node [ svc 0 0.5; svc 1 0.5 ]);
  Alcotest.(check (option (float 1e-9))) "library half fill" (Some 0.5)
    (min_yield_one node [ svc 0 1.0; svc 1 1.0 ])

let test_water_fill_respects_elementary_caps () =
  (* Node: 2 cores x 0.5. Service 0's elementary need caps it at 0.5 yield;
     service 1 can use the leftover. *)
  let node = Model.Node.make_cores ~id:0 ~cores:2 ~cpu:1.0 ~mem:1.0 in
  let s0 = Model.Service.make_2d ~id:0 ~mem_req:0.1 ~cpu_need:(1.0, 1.0) () in
  let s1 = Model.Service.make_2d ~id:1 ~mem_req:0.1 ~cpu_need:(0.25, 0.5) () in
  match water_fill_one node [ s0; s1 ] with
  | Some [ y0; y1 ] ->
      check_float "capped by elementary" 0.5 y0;
      (* remaining aggregate: 1 - 0.5 = 0.5 -> y1 = min(1, 0.5/0.5) = 1 *)
      check_float "water-filled above" 1.0 y1
  | _ -> Alcotest.fail "water_fill failed"

let test_water_fill_min_matches_max_min () =
  (* The minimum of water-filled yields equals max_min_yield. *)
  let node = Model.Node.make_cores ~id:0 ~cores:4 ~cpu:0.8 ~mem:1.0 in
  let services =
    [
      Model.Service.make_2d ~id:0 ~mem_req:0.2 ~cpu_need:(0.1, 0.4) ();
      Model.Service.make_2d ~id:1 ~mem_req:0.2 ~cpu_need:(0.2, 0.6) ();
      Model.Service.make_2d ~id:2 ~mem_req:0.2 ~cpu_need:(0.05, 0.2) ();
    ]
  in
  match
    (water_fill_one node services, Model.Yield.max_min_yield node services)
  with
  | Some ys, Some m ->
      check_float "min matches" m (List.fold_left Float.min 1. ys)
  | _ -> Alcotest.fail "both should succeed"

let test_fits_at_yield () =
  Alcotest.(check bool) "fits at 0.6 on A" true
    (Oracles.Yield_ref.fits_at_yield node_a [ fig1_service ] 0.6);
  Alcotest.(check bool) "fails above 0.6 on A" false
    (Oracles.Yield_ref.fits_at_yield node_a [ fig1_service ] 0.7);
  Alcotest.(check bool) "fits at 1.0 on B" true
    (Oracles.Yield_ref.fits_at_yield node_b [ fig1_service ] 1.0)

let test_instance_validation () =
  Alcotest.check_raises "bad ids"
    (Invalid_argument "Instance.v: node ids must be 0..H-1") (fun () ->
      ignore (Model.Instance.v ~nodes:[| node_b |] ~services:[| fig1_service |]))

let test_instance_totals () =
  let open Vec in
  let total = Model.Instance.total_capacity fig1_instance in
  check_float "total cpu" 5.2 (Vector.get total 0);
  check_float "total mem" 1.5 (Vector.get total 1);
  let req = Model.Instance.total_requirement fig1_instance in
  check_float "req cpu" 1.0 (Vector.get req 0);
  let need = Model.Instance.total_need fig1_instance in
  check_float "need cpu" 1.0 (Vector.get need 0)

let test_placement_min_yield () =
  (match Model.Placement.min_yield fig1_instance [| 0 |] with
  | Some y -> check_float "on A" 0.6 y
  | None -> Alcotest.fail "feasible");
  (match Model.Placement.min_yield fig1_instance [| 1 |] with
  | Some y -> check_float "on B" 1.0 y
  | None -> Alcotest.fail "feasible");
  Alcotest.(check bool) "invalid placement" true
    (Model.Placement.min_yield fig1_instance [| 7 |] = None)

let test_placement_water_fill_and_check () =
  match Model.Placement.water_fill fig1_instance [| 1 |] with
  | None -> Alcotest.fail "feasible"
  | Some alloc -> (
      check_float "yield" 1.0 alloc.Model.Placement.yields.(0);
      match Model.Placement.check_constraints fig1_instance alloc with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)

let test_check_constraints_rejects_overload () =
  let alloc =
    { Model.Placement.placement = [| 0 |]; yields = [| 1.0 |] }
  in
  (* At yield 1.0 on node A the elementary CPU constraint (0.5 + 0.5 > 0.8)
     is violated. *)
  match Model.Placement.check_constraints fig1_instance alloc with
  | Ok () -> Alcotest.fail "should reject"
  | Error e ->
      Alcotest.(check bool) "names constraint 5" true
        (String.length e >= 12 && String.sub e 0 12 = "constraint 5")

let test_group_by_node () =
  let s0 = Model.Service.make_2d ~id:0 ~mem_req:0.1 () in
  let s1 = Model.Service.make_2d ~id:1 ~mem_req:0.1 () in
  let s2 = Model.Service.make_2d ~id:2 ~mem_req:0.1 () in
  let inst =
    Model.Instance.v ~nodes:[| node_a; node_b |] ~services:[| s0; s1; s2 |]
  in
  let placement = [| 1; 0; 1 |] in
  let ids, start = Model.Placement.by_node inst placement in
  let slice h = Array.to_list (Array.sub ids start.(h) (start.(h + 1) - start.(h))) in
  Alcotest.(check (list int)) "node 0" [ 1 ] (slice 0);
  Alcotest.(check (list int)) "node 1 in id order" [ 0; 2 ] (slice 1);
  (* The same groups as the list reference. *)
  Array.iteri
    (fun h services ->
      Alcotest.(check (list int)) (Printf.sprintf "reference node %d" h)
        (List.map (fun (s : Model.Service.t) -> s.id) services)
        (slice h))
    (Oracles.Yield_ref.group_by_node inst placement)

(* Yields maximizing the average (equivalently the sum) instead of the
   minimum, for one fixed node: the paper's §2 argument against
   average-yield maximization. It pours capacity into the services that
   are cheapest to satisfy (smallest aggregate need in the binding
   dimension) and can leave expensive ones at yield 0, where max-min
   water-filling starves no service whose requirements fit. Exact for a
   single binding aggregate dimension; with several it is the natural
   greedy (cheapest service first). [None] when requirements do not
   fit. *)
let max_average_yields (node : Model.Node.t) services =
  let open Model in
  let open Vec in
  match services with
  | [] -> Some []
  | _ ->
      if not (Oracles.Yield_ref.requirements_fit node services) then None
      else begin
        let bounds =
          List.map (Oracles.Yield_ref.elementary_bound node) services
        in
        if List.exists Option.is_none bounds then None
        else begin
          let d = Node.dim node in
          (* Remaining aggregate capacity after requirements. *)
          let slack = Array.make d 0. in
          for i = 0 to d - 1 do
            slack.(i) <-
              Vector.get node.capacity.Epair.aggregate i
              -. List.fold_left
                   (fun acc (s : Service.t) ->
                     acc +. Vector.get s.requirement.Epair.aggregate i)
                   0. services
          done;
          (* Greedy: raise the cheapest services first. Cost of one unit of
             yield for service j is its aggregate need vector; order by the
             largest need component (the dimension most likely to bind). *)
          let indexed =
            List.mapi
              (fun i (s, b) -> (i, s, Option.get b))
              (List.combine services bounds)
          in
          let order =
            List.sort
              (fun (_, (a : Service.t), _) (_, (b : Service.t), _) ->
                Float.compare
                  (Vector.max_component a.need.Epair.aggregate)
                  (Vector.max_component b.need.Epair.aggregate))
              indexed
          in
          let yields = Array.make (List.length services) 0. in
          List.iter
            (fun (i, (s : Service.t), bound) ->
              (* Largest yield the remaining slack allows this service. *)
              let y = ref bound in
              for dim = 0 to d - 1 do
                let n = Vector.get s.need.Epair.aggregate dim in
                if n > 0. then
                  y := Float.min !y (Float.max 0. (slack.(dim) /. n))
              done;
              yields.(i) <- !y;
              for dim = 0 to d - 1 do
                slack.(dim) <-
                  slack.(dim) -. (!y *. Vector.get s.need.Epair.aggregate dim)
              done)
            order;
          Some (Array.to_list yields)
        end
      end

let test_max_average_starves () =
  (* §2 motivation: a cheap service and an expensive one on a single node.
     Average maximization starves the expensive one; max-min does not. *)
  let node = Model.Node.make_cores ~id:0 ~cores:4 ~cpu:1.0 ~mem:1.0 in
  let cheap =
    Model.Service.make_2d ~id:0 ~mem_req:0.1 ~cpu_need:(0.25, 0.2) ()
  in
  let expensive =
    Model.Service.make_2d ~id:1 ~mem_req:0.1 ~cpu_need:(0.25, 1.0) ()
  in
  (match max_average_yields node [ cheap; expensive ] with
  | Some [ y_cheap; y_expensive ] ->
      check_float "cheap saturated" 1.0 y_cheap;
      Alcotest.(check bool)
        (Printf.sprintf "expensive nearly starved (%.2f)" y_expensive)
        true (y_expensive <= 0.81)
  | _ -> Alcotest.fail "max_average_yields failed");
  match water_fill_one node [ cheap; expensive ] with
  | Some [ y_cheap; y_expensive ] ->
      Alcotest.(check bool) "max-min protects the expensive service" true
        (y_expensive > 0.81 && y_cheap >= y_expensive)
  | _ -> Alcotest.fail "water_fill failed"

let test_max_average_at_least_min_sum () =
  (* The average-maximizing greedy never yields a smaller sum than the
     max-min allocation. *)
  let node = Model.Node.make_cores ~id:0 ~cores:4 ~cpu:0.8 ~mem:1.0 in
  let services =
    [
      Model.Service.make_2d ~id:0 ~mem_req:0.1 ~cpu_need:(0.1, 0.4) ();
      Model.Service.make_2d ~id:1 ~mem_req:0.1 ~cpu_need:(0.2, 0.8) ();
      Model.Service.make_2d ~id:2 ~mem_req:0.1 ~cpu_need:(0.05, 0.2) ();
    ]
  in
  match (max_average_yields node services, water_fill_one node services) with
  | Some avg, Some fair ->
      let sum = List.fold_left ( +. ) 0. in
      Alcotest.(check bool) "sum(avg) >= sum(fair)" true
        (sum avg +. 1e-9 >= sum fair)
  | _ -> Alcotest.fail "both should succeed"

let test_analysis () =
  let a = Model.Analysis.analyze fig1_instance in
  Alcotest.(check int) "hosts" 2 a.hosts;
  Alcotest.(check int) "services" 1 a.services;
  check_float "services per node" 0.5 a.services_per_node;
  (* CPU requirement 1.0 over 5.2 capacity. *)
  Alcotest.(check (float 1e-9)) "cpu req utilization" (1.0 /. 5.2)
    a.requirement_utilization.(0);
  Alcotest.(check (float 1e-9)) "mem req utilization" (0.5 /. 1.5)
    a.requirement_utilization.(1);
  Alcotest.(check bool) "placeable" true a.all_services_placeable;
  (* Identical nodes would have cov 0; A and B differ. *)
  Alcotest.(check bool) "heterogeneous cpu" true (a.capacity_cov.(0) > 0.)

let test_analysis_unplaceable () =
  let inst =
    Model.Instance.v
      ~nodes:[| Model.Node.make_cores ~id:0 ~cores:4 ~cpu:1. ~mem:0.1 |]
      ~services:[| Model.Service.make_2d ~id:0 ~mem_req:0.5 () |]
  in
  let a = Model.Analysis.analyze inst in
  Alcotest.(check bool) "unplaceable detected" false a.all_services_placeable

let test_report () =
  match Model.Placement.water_fill fig1_instance [| 1 |] with
  | None -> Alcotest.fail "feasible"
  | Some alloc ->
      let util = Model.Report.utilization fig1_instance alloc in
      (* Node B at yield 1: CPU demand 2.0 of 2.0, memory 0.5 of 0.5. *)
      check_float "node B cpu full" 1.0 util.(1).(0);
      check_float "node B mem full" 1.0 util.(1).(1);
      check_float "node A idle" 0.0 util.(0).(0);
      let text = Model.Report.render fig1_instance alloc in
      Alcotest.(check bool) "mentions yield" true
        (String.length text > 0
        && String.sub text 0 13 = "minimum yield")

(* Properties: water-filled allocations always satisfy constraints. *)

let random_node_gen =
  QCheck2.Gen.(
    let* cpu = float_range 0.2 1.0 in
    let* mem = float_range 0.2 1.0 in
    pure (cpu, mem))

let random_instance_gen =
  QCheck2.Gen.(
    let* n_nodes = int_range 1 4 in
    let* n_services = int_range 1 8 in
    let* nodes = list_size (pure n_nodes) random_node_gen in
    let* services =
      list_size (pure n_services)
        (triple (float_range 0.0 0.15) (float_range 0.0 0.3) (int_range 1 4))
    in
    pure (nodes, services))

let build_instance (nodes, services) =
  let nodes =
    List.mapi
      (fun id (cpu, mem) -> Model.Node.make_cores ~id ~cores:4 ~cpu ~mem)
      nodes
  in
  let services =
    List.mapi
      (fun id (mem_req, cpu_need, cores) ->
        Model.Service.make_2d ~id ~mem_req
          ~cpu_need:(cpu_need /. float_of_int cores, cpu_need)
          ())
      services
  in
  Model.Instance.v ~nodes:(Array.of_list nodes)
    ~services:(Array.of_list services)

let prop_water_fill_valid =
  QCheck2.Test.make ~name:"water-filled allocations satisfy constraints 1-7"
    ~count:300
    QCheck2.Gen.(pair random_instance_gen (int_range 0 1000))
    (fun (spec, salt) ->
      let inst = build_instance spec in
      let h = Model.Instance.n_nodes inst in
      let rng = Prng.Rng.create ~seed:salt in
      let placement =
        Array.init (Model.Instance.n_services inst) (fun _ ->
            Prng.Rng.int rng h)
      in
      match Model.Placement.water_fill inst placement with
      | None -> true (* infeasible placements are allowed to be rejected *)
      | Some alloc -> (
          match Model.Placement.check_constraints inst alloc with
          | Ok () -> true
          | Error _ -> false))

let prop_min_yield_le_water_fill_min =
  QCheck2.Test.make
    ~name:"max_min_yield equals min of water-filled yields" ~count:300
    QCheck2.Gen.(pair random_instance_gen (int_range 0 1000))
    (fun (spec, salt) ->
      let inst = build_instance spec in
      let h = Model.Instance.n_nodes inst in
      let rng = Prng.Rng.create ~seed:salt in
      let placement =
        Array.init (Model.Instance.n_services inst) (fun _ ->
            Prng.Rng.int rng h)
      in
      match
        (Model.Placement.min_yield inst placement,
         Model.Placement.water_fill inst placement)
      with
      | None, None -> true
      | Some m, Some alloc ->
          let wf_min = Array.fold_left Float.min 1. alloc.yields in
          Float.abs (m -. wf_min) <= 1e-9
      | _ -> false)

let prop_max_min_yield_consistent_with_fits =
  (* The two independent code paths must agree: the exact breakpoint-sweep
     max-min yield is feasible under the packing-style fixed-yield check,
     and a slightly higher common yield is not (unless capped at 1). *)
  QCheck2.Test.make ~name:"max_min_yield is the fits_at_yield frontier"
    ~count:300
    QCheck2.Gen.(pair random_instance_gen (int_range 0 1000))
    (fun (spec, salt) ->
      let inst = build_instance spec in
      let rng = Prng.Rng.create ~seed:salt in
      let h = Prng.Rng.int rng (Model.Instance.n_nodes inst) in
      let node = Model.Instance.node inst h in
      (* Random subset of services on this node. *)
      let services =
        List.filter
          (fun _ -> Prng.Rng.uniform rng < 0.6)
          (List.init (Model.Instance.n_services inst)
             (Model.Instance.service inst))
      in
      let fits = Oracles.Yield_ref.fits_at_yield node services in
      match Model.Yield.max_min_yield node services with
      | None -> not (Oracles.Yield_ref.requirements_fit node services)
      | Some y ->
          (* Independent oracle: bisect the fixed-yield feasibility check
             and compare against the exact breakpoint sweep. *)
          if not (fits 0.) then false
          else begin
            let lo = ref 0. and hi = ref 1. in
            if fits 1. then lo := 1.
            else
              for _ = 1 to 40 do
                let mid = 0.5 *. (!lo +. !hi) in
                if fits mid then lo := mid else hi := mid
              done;
            Float.abs (!lo -. y) <= 1e-6
          end)

let prop_fits_at_yield_monotone =
  QCheck2.Test.make ~name:"fits_at_yield is monotone in yield" ~count:300
    QCheck2.Gen.(
      triple random_instance_gen (float_bound_inclusive 1.)
        (float_bound_inclusive 1.))
    (fun (spec, y1, y2) ->
      let inst = build_instance spec in
      let lo = Float.min y1 y2 and hi = Float.max y1 y2 in
      let node = Model.Instance.node inst 0 in
      let services =
        List.init (Model.Instance.n_services inst)
          (Model.Instance.service inst)
      in
      (not (Oracles.Yield_ref.fits_at_yield node services hi))
      || Oracles.Yield_ref.fits_at_yield node services lo)

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("node constructors", test_node_constructors);
      ("node validation", test_node_invalid);
      ("service demand at yield", test_service_demand);
      ("Fig. 1 yields (0.6 on A, 1.0 on B)", test_fig1_yields);
      ("elementary bound", test_elementary_bound);
      ("zero-need service", test_zero_need_service);
      ("requirements fit", test_requirements_fit);
      ("aggregate level", test_aggregate_level_sharing);
      ("water-fill with elementary caps", test_water_fill_respects_elementary_caps);
      ("water-fill min = max-min yield", test_water_fill_min_matches_max_min);
      ("fits_at_yield", test_fits_at_yield);
      ("instance validation", test_instance_validation);
      ("instance totals", test_instance_totals);
      ("placement min yield", test_placement_min_yield);
      ("placement water-fill + checker", test_placement_water_fill_and_check);
      ("checker rejects overload", test_check_constraints_rejects_overload);
      ("group by node", test_group_by_node);
      ("analysis", test_analysis);
      ("analysis unplaceable", test_analysis_unplaceable);
      ("max-average starves (§2 motivation)", test_max_average_starves);
      ("max-average sum dominates", test_max_average_at_least_min_sum);
      ("placement report", test_report);
    ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_water_fill_valid;
        prop_min_yield_le_water_fill_min;
        prop_max_min_yield_consistent_with_fits;
        prop_fits_at_yield_monotone;
      ]
