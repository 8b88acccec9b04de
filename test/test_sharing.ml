(* Tests for the resource-sharing simulator: work-conserving scheduler,
   allocation policies, Theorem 1, and the zero-knowledge baseline. *)

let check_float = Alcotest.(check (float 1e-9))
let check_float6 = Alcotest.(check (float 1e-6))

(* Work-conserving scheduler. *)

let test_all_satisfiable () =
  let alloc =
    Sharing.Work_conserving.allocate ~capacity:1. ~weights:[| 1.; 1. |]
      ~needs:[| 0.3; 0.4 |]
  in
  check_float "first" 0.3 alloc.(0);
  check_float "second" 0.4 alloc.(1)

let test_redistribution () =
  (* needs (0.2, 0.9), equal weights, capacity 1: water-filling gives the
     second service 0.8. *)
  let alloc =
    Sharing.Work_conserving.allocate ~capacity:1. ~weights:[| 1.; 1. |]
      ~needs:[| 0.2; 0.9 |]
  in
  check_float "small satisfied" 0.2 alloc.(0);
  check_float6 "big gets the rest" 0.8 alloc.(1)

let test_weighted_shares () =
  (* Weights 3:1, both unsatisfiable: allocations proportional. *)
  let alloc =
    Sharing.Work_conserving.allocate ~capacity:1. ~weights:[| 3.; 1. |]
      ~needs:[| 2.; 2. |]
  in
  check_float6 "3/4" 0.75 alloc.(0);
  check_float6 "1/4" 0.25 alloc.(1)

let test_zero_capacity () =
  let alloc =
    Sharing.Work_conserving.allocate ~capacity:0. ~weights:[| 1. |]
      ~needs:[| 1. |]
  in
  check_float "nothing" 0. alloc.(0)

let test_zero_weights_rejected () =
  Alcotest.check_raises "all weights zero"
    (Invalid_argument "Work_conserving.allocate: all weights zero") (fun () ->
      ignore
        (Sharing.Work_conserving.allocate ~capacity:1. ~weights:[| 0.; 0. |]
           ~needs:[| 0.5; 0.5 |]))

(* Service 0's share comes within epsilon of its need, so the first round
   marks it satisfied 1.06e-5 short; every service is then satisfied,
   and the rounds end with 0.69 of the capacity unallocated. *)
let test_satisfied_service_topped_up () =
  let capacity = 1.8813950326712636
  and needs = [| 0.76821461802129076; 0.42200652019694618 |] in
  let alloc =
    Sharing.Work_conserving.allocate ~capacity
      ~weights:[| 1.5970648664837532; 2.3142786856353825 |]
      ~needs
  in
  Alcotest.(check (float 0.)) "service 0 gets its need" needs.(0) alloc.(0);
  Alcotest.(check (float 0.)) "service 1 gets its need" needs.(1) alloc.(1);
  Alcotest.(check bool) "within capacity" true
    (alloc.(0) +. alloc.(1) <= capacity)

let test_multi_round_cascade () =
  (* Three services; two successive satisfactions release capacity. *)
  let alloc =
    Sharing.Work_conserving.allocate ~capacity:0.9
      ~weights:[| 1.; 1.; 1. |]
      ~needs:[| 0.1; 0.25; 1.0 |]
  in
  check_float "tiny" 0.1 alloc.(0);
  check_float6 "middle" 0.25 alloc.(1);
  check_float6 "rest to the big one" 0.55 alloc.(2)

(* Scheduler invariants as properties. *)

let sharing_gen =
  QCheck2.Gen.(
    let* j = int_range 1 12 in
    let* capacity = float_range 0.1 2. in
    let* weights = list_size (pure j) (float_range 0.01 3.) in
    let* needs = list_size (pure j) (float_range 0. 1.) in
    pure (capacity, Array.of_list weights, Array.of_list needs))

let prop_never_exceeds_need =
  QCheck2.Test.make ~name:"consumption never exceeds need" ~count:500
    sharing_gen (fun (capacity, weights, needs) ->
      let alloc = Sharing.Work_conserving.allocate ~capacity ~weights ~needs in
      Array.for_all2 (fun a n -> a <= n +. 1e-9) alloc needs)

let prop_never_exceeds_capacity =
  QCheck2.Test.make ~name:"total consumption never exceeds capacity"
    ~count:500 sharing_gen (fun (capacity, weights, needs) ->
      let alloc = Sharing.Work_conserving.allocate ~capacity ~weights ~needs in
      Array.fold_left ( +. ) 0. alloc
      <= capacity +. (1e-6 *. float_of_int (Array.length needs)))

let prop_work_conserving =
  QCheck2.Test.make
    ~name:"work conserving: capacity exhausted or all satisfied" ~count:500
    sharing_gen (fun (capacity, weights, needs) ->
      let alloc = Sharing.Work_conserving.allocate ~capacity ~weights ~needs in
      let total = Array.fold_left ( +. ) 0. alloc in
      let all_satisfied =
        Array.for_all2 (fun a n -> a >= n -. 1e-9) alloc needs
      in
      let eps_budget =
        Sharing.Work_conserving.epsilon *. float_of_int (Array.length needs)
      in
      all_satisfied || total >= capacity -. eps_budget -. 1e-9)

let prop_satisfied_untouched_by_weights =
  QCheck2.Test.make
    ~name:"fully satisfiable demand ignores weights" ~count:300
    QCheck2.Gen.(
      let* j = int_range 1 8 in
      let* weights = list_size (pure j) (float_range 0.01 3.) in
      let* needs = list_size (pure j) (float_range 0. 0.1) in
      pure (Array.of_list weights, Array.of_list needs))
    (fun (weights, needs) ->
      (* Sum of needs <= 0.8 < capacity 1: everyone satisfied. *)
      let alloc =
        Sharing.Work_conserving.allocate ~capacity:1. ~weights ~needs
      in
      (* A service declared satisfied may be short by at most the
         scheduler's epsilon (the termination tolerance). *)
      Array.for_all2
        (fun a n -> Float.abs (a -. n) <= Sharing.Work_conserving.epsilon)
        alloc needs)

(* Policies. *)

let test_alloc_caps_strands_capacity () =
  (* Estimates gave service 0 a generous cap and service 1 a tiny one; the
     true needs are reversed. Caps strand the surplus. *)
  let yields =
    Sharing.Policy.yields Sharing.Policy.Alloc_caps ~capacity:1.
      ~estimated_allocations:[| 0.8; 0.1 |]
      ~true_needs:[| 0.1; 0.8 |]
  in
  check_float "service 0 satisfied" 1.0 yields.(0);
  check_float6 "service 1 starves at its cap" (0.1 /. 0.8) yields.(1)

let test_alloc_weights_work_conserving () =
  (* Same scenario under ALLOCWEIGHTS: the scheduler hands the surplus to
     the underestimated service. *)
  let yields =
    Sharing.Policy.yields Sharing.Policy.Alloc_weights ~capacity:1.
      ~estimated_allocations:[| 0.8; 0.1 |]
      ~true_needs:[| 0.1; 0.8 |]
  in
  check_float "service 0 satisfied" 1.0 yields.(0);
  check_float6 "service 1 recovered" 1.0 yields.(1)

let test_equal_weights_ignores_estimates () =
  let a =
    Sharing.Policy.yields Sharing.Policy.Equal_weights ~capacity:1.
      ~estimated_allocations:[| 0.9; 0.0 |]
      ~true_needs:[| 0.6; 0.6 |]
  in
  let b =
    Sharing.Policy.yields Sharing.Policy.Equal_weights ~capacity:1.
      ~estimated_allocations:[| 0.0; 0.9 |]
      ~true_needs:[| 0.6; 0.6 |]
  in
  check_float "same under permuted estimates" a.(0) b.(0);
  check_float6 "split evenly" (0.5 /. 0.6) a.(0)

let test_policy_zero_need_service () =
  let yields =
    Sharing.Policy.yields Sharing.Policy.Equal_weights ~capacity:1.
      ~estimated_allocations:[| 0.0; 0.5 |]
      ~true_needs:[| 0.0; 0.5 |]
  in
  check_float "zero-need yield 1" 1.0 yields.(0)

let test_min_yield_empty () =
  check_float "empty node" 1.0
    (Sharing.Policy.min_yield Sharing.Policy.Equal_weights ~capacity:1.
       ~estimated_allocations:[||] ~true_needs:[||])

(* Theorem 1. *)

let test_bound_values () =
  check_float "J=1" 1.0 (Sharing.Theorem.bound 1);
  check_float "J=2" 0.75 (Sharing.Theorem.bound 2);
  check_float "J=10" 0.19 (Sharing.Theorem.bound 10)

let test_tight_instance () =
  List.iter
    (fun j ->
      let needs = Sharing.Theorem.worst_case_instance j in
      check_float6
        (Printf.sprintf "tight at J=%d" j)
        (Sharing.Theorem.bound j)
        (Sharing.Theorem.competitive_ratio ~needs))
    [ 2; 3; 5; 8; 13 ]

let test_optimal_min_yield () =
  check_float "undersubscribed" 1.0
    (Sharing.Theorem.optimal_min_yield ~needs:[| 0.2; 0.3 |]);
  check_float6 "oversubscribed" (1. /. 1.5)
    (Sharing.Theorem.optimal_min_yield ~needs:[| 0.5; 1.0 |])

let prop_theorem_bound_holds =
  QCheck2.Test.make
    ~name:"EQUALWEIGHTS ratio >= (2J-1)/J^2 for needs in (0,1]" ~count:500
    QCheck2.Gen.(
      let* j = int_range 1 15 in
      let* needs = list_size (pure j) (float_range 0.001 1.) in
      pure (Array.of_list needs))
    (fun needs ->
      let j = Array.length needs in
      Sharing.Theorem.competitive_ratio ~needs
      >= Sharing.Theorem.bound j -. 1e-6)

let prop_policy_yields_in_range =
  QCheck2.Test.make ~name:"policy yields always in [0, 1]" ~count:300
    QCheck2.Gen.(
      let* j = int_range 1 10 in
      let* capacity = float_range 0. 2. in
      let* est = list_size (pure j) (float_bound_inclusive 1.) in
      let* needs = list_size (pure j) (float_bound_inclusive 1.) in
      let* policy = int_range 0 2 in
      pure (capacity, Array.of_list est, Array.of_list needs, policy))
    (fun (capacity, estimated_allocations, true_needs, policy) ->
      let policy =
        match policy with
        | 0 -> Sharing.Policy.Alloc_caps
        | 1 -> Sharing.Policy.Alloc_weights
        | _ -> Sharing.Policy.Equal_weights
      in
      let ys =
        Sharing.Policy.yields policy ~capacity ~estimated_allocations
          ~true_needs
      in
      Array.for_all (fun y -> y >= -1e-9 && y <= 1. +. 1e-9) ys)

let prop_adaptive_threshold_clamped =
  QCheck2.Test.make ~name:"adaptive threshold stays in its clamp range"
    ~count:200
    QCheck2.Gen.(
      let* obs =
        list_size (int_range 1 20)
          (list_size (int_range 1 8) (float_bound_inclusive 2.))
      in
      pure obs)
    (fun observations ->
      let c =
        Sharing.Adaptive_threshold.create ~quantile:95. ~min_threshold:0.05
          ~max_threshold:0.3 ()
      in
      List.iter
        (fun xs ->
          let estimated = Array.of_list xs in
          let actual = Array.map (fun x -> x /. 2.) estimated in
          Sharing.Adaptive_threshold.observe c ~estimated ~actual)
        observations;
      let t = Sharing.Adaptive_threshold.threshold c in
      t >= 0.05 && t <= 0.3)

(* Run-time evaluation: the library's node-by-node path against the
   whole-instance reference. *)

type eval_service =
  | Full  (** CPU and memory requirement and need *)
  | Need_only  (** no requirement *)
  | Requirement_only  (** no need *)
  | Empty  (** neither *)

type eval_case = {
  nodes : (int * float * float) list;  (** cores, CPU, memory *)
  services : (eval_service * float * float * float * int) list;
      (** kind, CPU need, memory size, estimate factor, node *)
  overload : int option;
      (** a node handed a memory requirement no node can hold *)
}

let eval_case_gen =
  QCheck2.Gen.(
    let* hosts = int_range 1 5 in
    let* nodes =
      list_size (pure hosts)
        (triple (int_range 1 4) (float_range 0.2 1.) (float_range 0.2 1.))
    in
    (* One node more than the placement targets, so some node is always
       empty. *)
    let nodes = nodes @ [ (2, 0.5, 0.5) ] in
    let* services =
      list_size (int_range 1 12)
        (let* kind =
           oneofl [ Full; Full; Need_only; Requirement_only; Empty ]
         in
         let* cpu = float_range 0. 0.6 in
         let* mem = float_range 0. 0.3 in
         (* Factor 0 gives an estimated need of zero. *)
         let* factor = oneofl [ 0.; 0.5; 0.9; 1.; 1.2; 2. ] in
         let* node = int_range 0 (hosts - 1) in
         pure (kind, cpu, mem, factor, node))
    in
    let* overload = opt (int_range 0 (hosts - 1)) in
    pure { nodes; services; overload })

let print_eval_case c =
  let kind = function
    | Full -> "full"
    | Need_only -> "need"
    | Requirement_only -> "req"
    | Empty -> "empty"
  in
  Printf.sprintf "nodes [%s] services [%s] overload %s"
    (String.concat "; "
       (List.map
          (fun (cores, cpu, mem) -> Printf.sprintf "%dc %g/%g" cores cpu mem)
          c.nodes))
    (String.concat "; "
       (List.map
          (fun (k, cpu, mem, f, h) ->
            Printf.sprintf "%s cpu %g mem %g x%g @%d" (kind k) cpu mem f h)
          c.services))
    (match c.overload with None -> "-" | Some h -> string_of_int h)

(* The true and estimated instances and the placement of a case. Services
   run on two cores' worth of elementary CPU; the estimate scales the CPU
   need and keeps the requirements, as the error model does. *)
let eval_instances c =
  let nodes =
    Array.of_list
      (List.mapi
         (fun id (cores, cpu, mem) ->
           Model.Node.make_cores ~id ~cores ~cpu ~mem)
         c.nodes)
  in
  let services =
    c.services
    @ (match c.overload with
      | None -> []
      | Some h -> [ (Requirement_only, 0., 1.5, 1., h) ])
  in
  let make ~estimated =
    Array.of_list
      (List.mapi
         (fun id (kind, cpu, mem, factor, _) ->
           let req = (cpu /. 8., cpu /. 4.) in
           let cpu = if estimated then cpu *. factor else cpu in
           let need = (cpu /. 2., cpu) in
           match kind with
           | Full ->
               Model.Service.make_2d ~id ~cpu_req:req ~mem_req:mem
                 ~cpu_need:need ~mem_need:(mem /. 2.) ()
           | Need_only -> Model.Service.make_2d ~id ~cpu_need:need ()
           | Requirement_only ->
               Model.Service.make_2d ~id ~cpu_req:req ~mem_req:mem ()
           | Empty -> Model.Service.make_2d ~id ())
         services)
  in
  let placement =
    Array.of_list (List.map (fun (_, _, _, _, h) -> h) services)
  in
  ( Model.Instance.v ~nodes ~services:(make ~estimated:false),
    Model.Instance.v ~nodes ~services:(make ~estimated:true),
    placement )

let same_bits a b = Int64.bits_of_float a = Int64.bits_of_float b

let prop_runtime_eval_matches_reference =
  QCheck2.Test.make
    ~name:"runtime eval node by node = whole-instance reference (bitwise)"
    ~count:400 ~print:print_eval_case eval_case_gen (fun c ->
      let true_instance, estimated, placement = eval_instances c in
      List.for_all
        (fun policy ->
          let ours =
            Sharing.Runtime_eval.actual_min_yield policy ~true_instance
              ~estimated placement
          and theirs =
            Oracles.Runtime_eval_ref.actual_min_yield policy ~true_instance
              ~estimated placement
          in
          let ours_c =
            Sharing.Runtime_eval.consumptions policy ~true_instance
              ~estimated placement
          and theirs_c =
            Oracles.Runtime_eval_ref.consumptions policy ~true_instance
              ~estimated placement
          in
          (match (ours, theirs) with
          | None, None -> true
          | Some a, Some b -> same_bits a b
          | _ -> false)
          &&
          match (ours_c, theirs_c) with
          | None, None -> true
          | Some a, Some b ->
              Array.length a = Array.length b && Array.for_all2 same_bits a b
          | _ -> false)
        [
          Sharing.Policy.Alloc_caps;
          Sharing.Policy.Alloc_weights;
          Sharing.Policy.Equal_weights;
        ])

(* The generator reaches the cases the property is about: placements
   that fail on an overloaded node, and placements that evaluate with
   zero-need and with requirement-only services on some node. (Every case
   has an empty node by construction.) *)
let test_runtime_eval_cases_reached () =
  let cases =
    QCheck2.Gen.generate ~n:400 ~rand:(Random.State.make [| 7 |]) eval_case_gen
  in
  let overloaded_fails = ref 0 and zero_need = ref 0 and req_only = ref 0 in
  List.iter
    (fun c ->
      let true_instance, estimated, placement = eval_instances c in
      let has kind = List.exists (fun (k, _, _, _, _) -> k = kind) c.services in
      match
        Oracles.Runtime_eval_ref.actual_min_yield Sharing.Policy.Alloc_weights
          ~true_instance ~estimated placement
      with
      | None -> if c.overload <> None then incr overloaded_fails
      | Some _ ->
          if has Empty then incr zero_need;
          if has Requirement_only then incr req_only)
    cases;
  Alcotest.(check bool) "overloaded nodes fail" true (!overloaded_fails > 0);
  Alcotest.(check bool) "zero-need services evaluate" true (!zero_need > 0);
  Alcotest.(check bool) "requirement-only services evaluate" true
    (!req_only > 0)

(* The flat water-fill kernel against the list reference, at D = 1-5.
   Component values are chosen to reach each float-order detail the
   kernel must keep: requirements equal to a capacity or above it by less
   than the tolerance (level 0 from a negative slack, a bound of 0 from
   an elementary requirement that fits only within tolerance), zero
   needs (services left out of a dimension's sweep), grid values that tie
   elementary bounds and round when summed in another order, and needs
   of 1e-17 (a slope below 1e-15). Crowded cases put 17-40 services on
   one node, so the sort by bound runs over long slices full of ties. *)

type kernel_case = {
  k_dims : int;
  k_nodes : (float array * float array) array;  (** elementary, aggregate *)
  k_services : (float array * float array * float array * float array) array;
      (** elementary and aggregate requirement, elementary and aggregate
          need *)
  k_factor : float;  (** estimated needs = factor * true needs *)
  k_placement : int array;
}

let kernel_case_gen =
  QCheck2.Gen.(
    (* Dense cases crowd a few nodes with services whose grid needs round
       differently when summed in another order; sparse ones leave whole
       dimensions without needs, where a requirement sum just above the
       capacity decides the level alone; crowded ones give one large node
       many services with small requirements, so it often fits them. *)
    let* shape =
      frequency [ (2, pure `Sparse); (2, pure `Dense); (1, pure `Crowded) ]
    in
    let sparse = shape = `Sparse and crowded = shape = `Crowded in
    let* k_dims = int_range 1 5 in
    let vec g = array_size (pure k_dims) g in
    let edge = oneofl [ 0.5; 1.; 2. ] in
    let node =
      let* agg =
        vec
          (if crowded then oneofl [ 2.; 4.; 8. ]
           else frequency [ (1, pure 0.); (4, edge); (3, float_range 0.1 4.) ])
      in
      let* per = vec (oneofl [ 1.; 2.; 4.; 8. ]) in
      pure (Array.map2 ( /. ) agg per, agg)
    in
    let requirement =
      if crowded then
        frequency [ (6, pure 0.); (2, oneofl [ 0.01; 0.02; 0.05 ]) ]
      else
        frequency
          [
            (6, pure 0.);
            (3, oneofl [ 0.1; 0.2; 0.25; 0.3 ]);
            (1, oneofl [ 0.25; 0.5; 0.8; 1.; 2. ]);
            (2, map (fun c -> c *. (1. +. 3e-10)) edge);
            (2, float_range 0. 0.6);
          ]
    in
    let need zeros =
      frequency
        [
          (zeros, pure 0.);
          (1, pure 1e-17);
          (4, oneofl [ 0.1; 0.2; 0.3; 0.7 ]);
          (3, float_range 0. 1.);
        ]
    in
    let* hosts = if crowded then pure 1 else int_range 1 3 in
    let* k_nodes = array_size (pure hosts) node in
    let* k_services =
      array_size
        (match shape with
        | `Sparse -> int_range 1 4
        | `Dense -> int_range 1 12
        | `Crowded -> int_range 17 40)
        (let* re = vec requirement and* ra = vec requirement in
         let* ne = vec (need (if sparse then 8 else 1))
         and* na = vec (need (if sparse then 8 else 3)) in
         pure (re, ra, ne, na))
    in
    let* k_factor = oneofl [ 0.5; 1.; 1.5 ] in
    let* k_placement =
      array_size (pure (Array.length k_services)) (int_bound (hosts - 1))
    in
    pure { k_dims; k_nodes; k_services; k_factor; k_placement })

let print_kernel_case c =
  let vec a =
    "[" ^ String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") a))
    ^ "]"
  in
  Printf.sprintf "D=%d factor %g placement [%s]\nnodes %s\nservices %s"
    c.k_dims c.k_factor
    (String.concat " " (Array.to_list (Array.map string_of_int c.k_placement)))
    (String.concat "; "
       (Array.to_list (Array.map (fun (e, a) -> vec e ^ "/" ^ vec a) c.k_nodes)))
    (String.concat "; "
       (Array.to_list
          (Array.map
             (fun (re, ra, ne, na) ->
               Printf.sprintf "req %s/%s need %s/%s" (vec re) (vec ra) (vec ne)
                 (vec na))
             c.k_services)))

(* The true and the estimated instance: the same nodes and requirements,
   the estimate's needs scaled by the case's factor. *)
let kernel_instances c =
  let nodes =
    Array.mapi
      (fun id (e, a) ->
        Model.Node.v ~id ~capacity:(Vec.Epair.of_arrays e a))
      c.k_nodes
  in
  let make factor =
    Array.mapi
      (fun id (re, ra, ne, na) ->
        let scale = Array.map (fun x -> factor *. x) in
        Model.Service.v ~id
          ~requirement:(Vec.Epair.of_arrays re ra)
          ~need:(Vec.Epair.of_arrays (scale ne) (scale na)))
      c.k_services
  in
  ( Model.Instance.v ~nodes ~services:(make 1.),
    Model.Instance.v ~nodes ~services:(make c.k_factor) )

let same_option_bits a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> same_bits x y
  | _ -> false

let same_array_bits a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> Array.length x = Array.length y && Array.for_all2 same_bits x y
  | _ -> false

let prop_kernel_matches_reference =
  QCheck2.Test.make
    ~name:"water-fill kernel = list reference (bitwise, D = 1-5)" ~count:8000
    ~print:print_kernel_case kernel_case_gen (fun c ->
      let true_instance, estimated = kernel_instances c in
      let p = c.k_placement in
      List.for_all
        (fun inst ->
          same_option_bits
            (Model.Placement.min_yield inst p)
            (Oracles.Yield_ref.placement_min_yield inst p)
          && same_array_bits
               (Option.map
                  (fun (a : Model.Placement.allocation) -> a.yields)
                  (Model.Placement.water_fill inst p))
               (Oracles.Yield_ref.placement_water_fill inst p)
          && Array.for_all2
               (fun node services ->
                 same_option_bits
                   (Model.Yield.max_min_yield node services)
                   (Oracles.Yield_ref.max_min_yield node services))
               inst.Model.Instance.nodes
               (Oracles.Yield_ref.group_by_node inst p))
        [ true_instance; estimated ]
      && List.for_all
           (fun policy ->
             same_option_bits
               (Sharing.Runtime_eval.actual_min_yield policy ~true_instance
                  ~estimated p)
               (Oracles.Runtime_eval_ref.actual_min_yield policy
                  ~true_instance ~estimated p)
             && same_array_bits
                  (Sharing.Runtime_eval.consumptions policy ~true_instance
                     ~estimated p)
                  (Oracles.Runtime_eval_ref.consumptions policy ~true_instance
                     ~estimated p))
           [
             Sharing.Policy.Alloc_caps;
             Sharing.Policy.Alloc_weights;
             Sharing.Policy.Equal_weights;
           ])

(* The generator reaches feasible and failing placements at every D, and
   feasible nodes holding more than 16 services, two of them with equal
   elementary bounds below 1. *)
let test_kernel_cases_reached () =
  let cases =
    QCheck2.Gen.generate ~n:1500 ~rand:(Random.State.make [| 11 |])
      kernel_case_gen
  in
  let feasible = Array.make 6 0 and failing = Array.make 6 0 in
  let crowded_ties = ref 0 in
  List.iter
    (fun c ->
      let inst, _ = kernel_instances c in
      match Oracles.Yield_ref.placement_min_yield inst c.k_placement with
      | Some _ ->
          feasible.(c.k_dims) <- feasible.(c.k_dims) + 1;
          Array.iteri
            (fun h services ->
              let bounds =
                List.filter_map
                  (Oracles.Yield_ref.elementary_bound
                     (Model.Instance.node inst h))
                  services
                |> List.filter (fun b -> b < 1.)
              in
              if
                List.length services > 16
                && List.length (List.sort_uniq Float.compare bounds)
                   < List.length bounds
              then incr crowded_ties)
            (Oracles.Yield_ref.group_by_node inst c.k_placement)
      | None -> failing.(c.k_dims) <- failing.(c.k_dims) + 1)
    cases;
  for d = 1 to 5 do
    Alcotest.(check bool) (Printf.sprintf "D=%d feasible" d) true
      (feasible.(d) > 0);
    Alcotest.(check bool) (Printf.sprintf "D=%d failing" d) true
      (failing.(d) > 0)
  done;
  Alcotest.(check bool) "crowded nodes with tied bounds" true
    (!crowded_ties > 0)

(* The controller is the one source of an adaptive threshold, which the
   online engine puts into its water-fill rows unchecked. NaN passes
   every range test, and an infinite clamp range let an infinite
   threshold through; each setting and each observed array names
   itself, and a rejected epoch records nothing. *)
let test_adaptive_threshold_rejects_non_finite () =
  List.iter
    (fun (name, create) ->
      Alcotest.check_raises name
        (Invalid_argument ("Adaptive_threshold.create: non-finite " ^ name))
        (fun () -> ignore (create ())))
    Sharing.Adaptive_threshold.
      [
        ("quantile", fun () -> create ~quantile:Float.nan ());
        ("initial", fun () -> create ~initial:Float.nan ());
        ("min_threshold", fun () -> create ~min_threshold:Float.nan ());
        ("max_threshold", fun () -> create ~max_threshold:Float.nan ());
        ( "initial",
          fun () ->
            create ~max_threshold:Float.infinity ~initial:Float.infinity () );
        ("max_threshold", fun () -> create ~max_threshold:Float.infinity ());
        ( "min_threshold",
          fun () -> create ~min_threshold:Float.neg_infinity () );
      ];
  let c = Sharing.Adaptive_threshold.create () in
  List.iter
    (fun (name, estimated, actual) ->
      Alcotest.check_raises name
        (Invalid_argument ("Adaptive_threshold.observe: non-finite " ^ name))
        (fun () -> Sharing.Adaptive_threshold.observe c ~estimated ~actual))
    [
      ("estimated", [| 0.1; Float.nan |], [| 0.1; 0.1 |]);
      ("actual", [| 0.1 |], [| Float.infinity |]);
      ("estimated", [| Float.neg_infinity |], [| Float.nan |]);
    ];
  Alcotest.(check int) "rejected epochs record nothing" 0
    (Sharing.Adaptive_threshold.observations c);
  Alcotest.(check (float 0.)) "threshold unchanged" 0.
    (Sharing.Adaptive_threshold.threshold c)

(* Zero-knowledge baseline. *)

let test_zero_knowledge_even_spread () =
  let nodes =
    Array.init 3 (fun id -> Model.Node.make_cores ~id ~cores:4 ~cpu:1. ~mem:1.)
  in
  let services =
    Array.init 6 (fun id -> Model.Service.make_2d ~id ~mem_req:0.1 ())
  in
  let inst = Model.Instance.v ~nodes ~services in
  match Sharing.Zero_knowledge.place inst with
  | None -> Alcotest.fail "should place"
  | Some placement ->
      let counts = Array.make 3 0 in
      Array.iter (fun h -> counts.(h) <- counts.(h) + 1) placement;
      Alcotest.(check (array int)) "two per node" [| 2; 2; 2 |] counts

let test_zero_knowledge_respects_memory () =
  let nodes =
    [|
      Model.Node.make_cores ~id:0 ~cores:4 ~cpu:1. ~mem:0.15;
      Model.Node.make_cores ~id:1 ~cores:4 ~cpu:1. ~mem:1.0;
    |]
  in
  let services =
    Array.init 3 (fun id -> Model.Service.make_2d ~id ~mem_req:0.3 ())
  in
  let inst = Model.Instance.v ~nodes ~services in
  match Sharing.Zero_knowledge.place inst with
  | None -> Alcotest.fail "should place"
  | Some placement ->
      Array.iteri
        (fun j h ->
          Alcotest.(check int) (Printf.sprintf "service %d avoids node 0" j) 1
            h)
        placement;
      Alcotest.(check bool) "feasible" true
        (Oracles.Yield_ref.placement_feasible inst placement)

let test_zero_knowledge_failure () =
  let inst =
    Model.Instance.v
      ~nodes:[| Model.Node.make_cores ~id:0 ~cores:4 ~cpu:1. ~mem:0.1 |]
      ~services:[| Model.Service.make_2d ~id:0 ~mem_req:0.5 () |]
  in
  Alcotest.(check bool) "no fit" true (Sharing.Zero_knowledge.place inst = None)

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("all satisfiable", test_all_satisfiable);
      ("redistribution", test_redistribution);
      ("weighted shares", test_weighted_shares);
      ("zero capacity", test_zero_capacity);
      ("zero weights rejected", test_zero_weights_rejected);
      ("multi-round cascade", test_multi_round_cascade);
      ("ALLOCCAPS strands capacity", test_alloc_caps_strands_capacity);
      ("ALLOCWEIGHTS recovers surplus", test_alloc_weights_work_conserving);
      ("EQUALWEIGHTS ignores estimates", test_equal_weights_ignores_estimates);
      ("zero-need service", test_policy_zero_need_service);
      ("empty node min yield", test_min_yield_empty);
      ("theorem bound values", test_bound_values);
      ("tight instance achieves the bound", test_tight_instance);
      ("optimal min yield", test_optimal_min_yield);
      ("zero-knowledge even spread", test_zero_knowledge_even_spread);
      ("zero-knowledge respects memory", test_zero_knowledge_respects_memory);
      ("zero-knowledge failure", test_zero_knowledge_failure);
      ("runtime eval cases reached", test_runtime_eval_cases_reached);
    ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_never_exceeds_need;
        prop_never_exceeds_capacity;
        prop_work_conserving;
        prop_satisfied_untouched_by_weights;
        prop_policy_yields_in_range;
        prop_adaptive_threshold_clamped;
        prop_theorem_bound_holds;
        prop_runtime_eval_matches_reference;
      ]
  @ [ Alcotest.test_case "satisfied service topped up" `Quick
        test_satisfied_service_topped_up;
      Alcotest.test_case "kernel cases reached" `Quick
        test_kernel_cases_reached;
      Alcotest.test_case "adaptive threshold rejects non-finite input"
        `Quick test_adaptive_threshold_rejects_non_finite ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_kernel_matches_reference ]
