(* Tests for the vector-packing engine: the flat packing state, First/Best-
   Fit (against the record references of [Oracles.Record_fit]),
   Permutation-Pack (the cursor path against the full scan of
   [Oracles.Pp_scan] and the D!-list version), and the strategy
   enumerations. *)

open Packing

let v = Vec.Vector.of_list
let epair e a = Vec.Epair.v ~elementary:(v e) ~aggregate:(v a)

(* A uniform demand or capacity: elementary = aggregate (poolable view). *)
let uniform comps = epair comps comps

(* A state with one bin per capacity and one item per demand, both in
   list order. *)
let state capacities demands =
  let dims = Vec.Epair.dim (List.hd capacities) in
  let st =
    State.create ~dims ~capacities:(Array.of_list capacities)
      ~n_items:(List.length demands)
  in
  List.iteri (State.set_item st) demands;
  st

let ustate bins items = state (List.map uniform bins) (List.map uniform items)

let ids n = Array.init n Fun.id

let load (st : State.t) b = Array.sub st.load (b * st.dims) st.dims

let check_float = Alcotest.(check (float 1e-9))

(* Permutation-Pack on a fresh scratch over every bin and item in id
   order; [run] runs a strategy on a fresh scratch. *)
let pack ?flavour ?window ?ranking (st : State.t) =
  Permutation_pack.pack ?flavour ?window ?ranking
    ~scratch:(Permutation_pack.scratch ()) st ~bins:(ids st.n_bins)
    ~items:(ids st.n_items) ()

let run strategy st =
  Strategy.run ~scratch:(Permutation_pack.scratch ()) st strategy

let test_bin_fits_and_place () =
  let st = ustate [ [ 1.0; 1.0 ] ] [ [ 0.6; 0.2 ]; [ 0.6; 0.2 ] ] in
  Alcotest.(check bool) "fits empty" true (Fit.fits st 0 0);
  State.place st 0 0;
  Alcotest.(check bool) "second overflows dim 0" false (Fit.fits st 0 1);
  check_float "load" 0.6 st.load.(0);
  check_float "remaining" 0.4 (st.cap.(0) -. st.load.(0));
  check_float "load sum" 0.8 st.load_sum.(0);
  check_float "remaining sum" 1.2 st.remaining_sum.(0);
  Alcotest.(check (array int)) "assignment" [| 0; -1 |] (State.assignment st)

(* The running load_sum / remaining_sum must always equal the folds over
   load and capacity they replace, through arbitrary place/reset
   sequences, and a reset state must behave like a fresh one. *)
let test_bin_running_sums () =
  let check_sums msg (st : State.t) =
    let l = load st 0 and c = Array.sub st.cap 0 st.dims in
    check_float (msg ^ ": load_sum") (Array.fold_left ( +. ) 0. l)
      st.load_sum.(0);
    let rem = ref 0. in
    Array.iteri (fun i x -> rem := !rem +. Float.max 0. (c.(i) -. x)) l;
    check_float (msg ^ ": remaining_sum") !rem st.remaining_sum.(0)
  in
  let items = [ [ 0.3; 0.1; 0.2 ]; [ 0.9; 0.2; 0.1 ]; [ 0.4; 0.4; 0.4 ] ] in
  let st = ustate [ [ 1.0; 2.0; 0.5 ] ] items in
  check_sums "fresh" st;
  State.place st 0 0;
  check_sums "after one place" st;
  (* Overfill a dimension: remaining clamps at 0 in that dimension. *)
  State.place st 0 1;
  check_sums "after overfilling dim 0" st;
  State.reset st;
  check_sums "after reset" st;
  let fresh = ustate [ [ 1.0; 2.0; 0.5 ] ] items in
  check_float "reset load_sum = fresh" fresh.load_sum.(0) st.load_sum.(0);
  check_float "reset remaining_sum = fresh" fresh.remaining_sum.(0)
    st.remaining_sum.(0);
  Alcotest.(check (array int)) "reset unplaces every item" [| -1; -1; -1 |]
    (State.assignment st);
  Alcotest.(check (array int)) "reset clears the placement order" [||]
    (State.placement_order st);
  State.place st 0 2;
  check_sums "place after reset" st

let test_bin_elementary_filter () =
  (* Elementary demand exceeds elementary capacity: never fits, regardless
     of aggregate headroom. *)
  let st =
    state
      [ epair [ 0.25; 1.0 ] [ 1.0; 1.0 ] ]
      [ epair [ 0.3; 0.1 ] [ 0.3; 0.1 ] ]
  in
  Alcotest.(check bool) "elementary filter" false (Fit.fits st 0 0)

let test_first_fit_order () =
  let st =
    ustate [ [ 0.5; 0.5 ]; [ 1.0; 1.0 ] ] [ [ 0.4; 0.4 ]; [ 0.4; 0.4 ] ]
  in
  Alcotest.(check bool) "packs" true
    (Fit.first_fit st ~bins:(ids 2) ~items:(ids 2));
  (* First item goes to bin 0 (first that fits), second no longer fits
     there. *)
  Alcotest.(check (array int)) "assignment" [| 0; 1 |] (State.assignment st)

let test_first_fit_failure_is_reported () =
  let st = ustate [ [ 0.5; 0.5 ] ] [ [ 0.6; 0.1 ] ] in
  Alcotest.(check bool) "cannot pack" false
    (Fit.first_fit st ~bins:(ids 1) ~items:(ids 1))

let test_best_fit_by_load () =
  (* Identical bins; after the first item, BF prefers the fuller bin. *)
  let st =
    ustate [ [ 1.0; 1.0 ]; [ 1.0; 1.0 ] ]
      [ [ 0.3; 0.3 ]; [ 0.3; 0.3 ]; [ 0.3; 0.3 ] ]
  in
  Alcotest.(check bool) "packs" true
    (Fit.best_fit ~rank:Fit.By_load st ~items:(ids 3));
  Alcotest.(check (array int)) "all on one bin" [| 0; 0; 0 |]
    (State.assignment st)

let test_best_fit_by_remaining_prefers_smaller_bin () =
  (* Heterogeneous: HVP Best-Fit targets the bin with least remaining
     capacity. *)
  let st = ustate [ [ 1.0; 1.0 ]; [ 0.5; 0.5 ] ] [ [ 0.3; 0.3 ] ] in
  Alcotest.(check bool) "packs" true
    (Fit.best_fit ~rank:Fit.By_remaining st ~items:(ids 1));
  Alcotest.(check (array int)) "smaller bin wins" [| 1 |] (State.assignment st)

let test_permutation_key_paper_example () =
  (* Paper §3.5.2's 4-D example: bin ordering (4,2,3,1), item ordering
     (3,1,4,2) -> key (3,4,1,2). 0-indexed: bin perm (3,1,2,0), item perm
     (2,0,3,1), key (2,3,0,1). *)
  let bin_perm = [| 3; 1; 2; 0 |] in
  let pos = Array.make 4 0 in
  Array.iteri (fun rank d -> pos.(d) <- rank) bin_perm;
  (* item with demands ranked: largest in dim 2, then 0, then 3, then 1 *)
  let it = Oracles.Item.v ~id:0 ~demand:(uniform [ 0.6; 0.1; 0.9; 0.3 ]) in
  let key = Oracles.Pp_scan.item_key ~bin_perm_pos:pos it in
  Alcotest.(check (array int)) "key" [| 2; 3; 0; 1 |] key

let test_compare_keys_window () =
  let a = [| 0; 3; 1; 2 |] and b = [| 0; 1; 3; 2 |] in
  Alcotest.(check bool) "full permutation order" true
    (Oracles.Pp_scan.compare_keys Permutation_pack.Permutation ~window:4 a b
     > 0);
  Alcotest.(check bool) "window 1 ties" true
    (Oracles.Pp_scan.compare_keys Permutation_pack.Permutation ~window:1 a b
     = 0);
  (* Choose-Pack compares window contents as a set. *)
  Alcotest.(check bool) "choose w=2 {0,3} vs {0,1}" true
    (Oracles.Pp_scan.compare_keys Permutation_pack.Choose ~window:2 a b > 0)

let test_permutation_pack_balances () =
  (* One bin, two dims. Load starts skewed by a seed item (item 2); PP
     must pick the item that fights the imbalance. *)
  let st =
    ustate [ [ 1.0; 1.0 ] ] [ [ 0.3; 0.1 ]; [ 0.1; 0.3 ]; [ 0.4; 0.1 ] ]
  in
  State.place st 0 2;
  (* dim 0 is loaded *)
  Alcotest.(check bool) "packs" true
    (Permutation_pack.pack ~scratch:(Permutation_pack.scratch ()) st
       ~bins:[| 0 |] ~items:[| 0; 1 |] ());
  (* Item 1 (big in dim 1, the less-loaded dimension) must be placed
     first. *)
  Alcotest.(check (array int)) "selection order" [| 2; 1; 0 |]
    (State.placement_order st)

let test_permutation_pack_failure () =
  let st = ustate [ [ 0.5; 0.5 ] ] [ [ 0.4; 0.4 ]; [ 0.4; 0.4 ] ] in
  Alcotest.(check bool) "second item does not fit" false (pack st)

let test_strategy_counts () =
  Alcotest.(check int) "33 VP strategies" 33 (List.length Strategy.vp_all);
  Alcotest.(check int) "253 HVP strategies" 253 (List.length Strategy.hvp_all);
  Alcotest.(check int) "60 light strategies" 60
    (List.length Strategy.hvp_light)

let test_strategy_names_unique () =
  let names =
    List.map Strategy.name (Strategy.vp_all @ Strategy.hvp_all)
  in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_light_subset_of_full () =
  let full = List.map Strategy.name Strategy.hvp_all in
  List.iter
    (fun s ->
      let n = Strategy.name s in
      Alcotest.(check bool) (n ^ " in METAHVP set") true (List.mem n full))
    Strategy.hvp_light

let test_hvp_first_fit_sorted_bins () =
  (* HVP-FF with bins ascending by MAX: the small bin is tried first. *)
  let strategy =
    {
      Strategy.algo = Strategy.First_fit;
      item_order = Vec.Metric.Unsorted;
      bin_order = Vec.Metric.Asc (Vec.Metric.Scalar Vec.Metric.Max);
      variant = Strategy.Hvp;
    }
  in
  let st = ustate [ [ 1.0; 1.0 ]; [ 0.5; 0.5 ] ] [ [ 0.3; 0.3 ] ] in
  match run strategy st with
  | Some assign -> Alcotest.(check (array int)) "small bin first" [| 1 |] assign
  | None -> Alcotest.fail "should pack"

(* The infeasibility certificate at its boundaries. [packable] runs every
   METAHVP strategy on the state. *)
let certifies st = Strategy.infeasible st

let packable st =
  List.exists (fun s -> run s st <> None) Strategy.hvp_all

(* Every item is its bin's aggregate fits threshold, [c +. 1e-9 *. max 1
   c]. Summed in item order the demands round one ulp above the
   thresholds summed in bin order, so only the margin keeps this packing
   uncertified. *)
let test_certificate_exact_fill () =
  let caps = [ 0.1; 0.1; 2.0 ] in
  let thr c = c +. (1e-9 *. Float.max 1. c) in
  let st () =
    ustate
      (List.map (fun c -> [ c ]) caps)
      (List.map (fun c -> [ thr c ]) (List.rev caps))
  in
  let sum = List.fold_left ( +. ) 0. in
  Alcotest.(check bool) "demands round above the thresholds" true
    (sum (List.rev_map thr caps) > sum (List.map thr caps));
  Alcotest.(check bool) "packable" true (packable (st ()));
  Alcotest.(check bool) "not certified" false (certifies (st ()))

(* Bins under 1 have the absolute tolerance 1e-9; four items each half of
   it over their bin put the total 2e-9 over capacity, beyond the margin
   but within the summed tolerances. *)
let test_certificate_half_tolerance () =
  let st () =
    ustate (List.init 4 (fun _ -> [ 0.25 ]))
      (List.init 4 (fun _ -> [ 0.25 +. 0.5e-9 ]))
  in
  Alcotest.(check bool) "packable" true (packable (st ()));
  Alcotest.(check bool) "not certified" false (certifies (st ()))

(* The second item fits neither bin, though the volumes alone would
   pass. *)
let test_certificate_oversized_item () =
  let st =
    ustate [ [ 0.5; 1. ]; [ 1.; 0.5 ] ] [ [ 0.1; 0.1 ]; [ 0.75; 0.75 ] ]
  in
  Alcotest.(check bool) "certified" true (certifies st)

(* Each item fits bin 0 empty, but only bin 0 takes demand in dimension 0:
   the zero-demand item fitting bin 1 does not make it usable there. *)
let test_certificate_usable_bins () =
  let st () =
    ustate [ [ 1.; 1. ]; [ 0.5; 1. ] ] [ [ 0.6; 0. ]; [ 0.6; 0. ]; [ 0.; 0.1 ] ]
  in
  Alcotest.(check bool) "not packable" false (packable (st ()));
  Alcotest.(check bool) "certified" true (certifies (st ()))

(* Random packing instances. *)

let random_packing_gen =
  QCheck2.Gen.(
    let* dims = int_range 2 4 in
    let* n_bins = int_range 1 6 in
    let* n_items = int_range 1 20 in
    let* bin_comps =
      list_size (pure n_bins) (list_size (pure dims) (float_range 0.3 1.))
    in
    let* item_comps =
      list_size (pure n_items) (list_size (pure dims) (float_range 0.01 0.4))
    in
    pure (bin_comps, item_comps))

let build_packing (bin_comps, item_comps) = ustate bin_comps item_comps

let no_overflow (st : State.t) =
  List.for_all
    (fun b ->
      Oracles.Yield_ref.fits
        (Vec.Vector.of_array (load st b))
        (Vec.Vector.of_array (Array.sub st.cap (b * st.dims) st.dims)))
    (List.init st.n_bins Fun.id)

let prop_packing_never_overflows =
  QCheck2.Test.make ~name:"no algorithm ever overflows a bin" ~count:300
    random_packing_gen (fun spec ->
      List.for_all
        (fun run ->
          let st = build_packing spec in
          ignore (run st);
          no_overflow st)
        [
          (fun (st : State.t) ->
            Fit.first_fit st ~bins:(ids st.n_bins) ~items:(ids st.n_items));
          (fun st -> Fit.best_fit ~rank:Fit.By_load st ~items:(ids st.n_items));
          (fun st ->
            Fit.best_fit ~rank:Fit.By_remaining st ~items:(ids st.n_items));
          (fun st -> pack st);
          (fun st -> pack ~flavour:Permutation_pack.Choose ~window:1 st);
        ])

let prop_success_means_all_placed =
  QCheck2.Test.make ~name:"success <=> every item assigned" ~count:300
    random_packing_gen (fun spec ->
      let st = build_packing spec in
      let ok = Fit.first_fit st ~bins:(ids st.n_bins) ~items:(ids st.n_items) in
      ok = Array.for_all (fun b -> b >= 0) (State.assignment st))

let prop_fast_pp_equals_naive =
  (* Differential oracle: the key-based implementation must be
     observationally identical to the literal D!-list scan — same
     success/failure, same final assignment, and the same placement
     *sequence* (equal placement orders mean the two implementations
     selected items in the same order, not merely reached the same end
     state). *)
  QCheck2.Test.make
    ~name:"fast key-based PP selects exactly like the D!-list version"
    ~count:200 random_packing_gen (fun spec ->
      let st_a = build_packing spec and st_b = build_packing spec in
      let ok_a = pack st_a in
      let ok_b =
        Naive_permutation_pack.pack st_b ~bins:(ids st_b.n_bins)
          ~items:(ids st_b.n_items) ()
      in
      ok_a = ok_b
      && State.assignment st_a = State.assignment st_b
      && State.placement_order st_a = State.placement_order st_b)

(* Demands in tenths, zeros included, so equal components — key ties
   between items and ties inside the dimension sorts — are common; the
   elementary components are drawn apart from the aggregate ones, so the
   elementary half of the fits test binds too. Each case packs one to
   three demand sets (probes) of the same items, in one shuffled item
   order and one shuffled bin order. *)
let quantized_packing_gen =
  QCheck2.Gen.(
    let tenths lo hi = map (fun k -> float_of_int k /. 10.) (int_range lo hi) in
    let* dims = int_range 1 5 in
    let* n_bins = int_range 1 5 in
    let* n_items = int_range 1 16 in
    let comps lo hi = list_size (pure dims) (tenths lo hi) in
    let* bins = list_size (pure n_bins) (pair (comps 2 10) (comps 3 10)) in
    let* probes =
      list_size (int_range 1 3)
        (list_size (pure n_items) (pair (comps 0 3) (comps 0 4)))
    in
    let* order = shuffle_l (List.init n_items Fun.id) in
    let* bin_order = shuffle_l (List.init n_bins Fun.id) in
    pure (bins, probes, order, bin_order))

(* One quantized case as a flat state, with bins and items in id order,
   and its demand sets. *)
let quantized_state (bins, _, order, _) =
  State.create
    ~dims:(List.length (fst (List.hd bins)))
    ~capacities:(Array.of_list (List.map (fun (e, a) -> epair e a) bins))
    ~n_items:(List.length order)

let set_demands st demands =
  List.iteri (fun j (e, a) -> State.set_item st j (epair e a)) demands

(* The same bins and items as records of [Oracles]: the bins in
   [bin_order], the items in the case's item order. *)
let quantized_records (bins, _, order, _) ~bin_order demands =
  let capacities = Array.of_list (List.map (fun (e, a) -> epair e a) bins) in
  let demands = Array.of_list (List.map (fun (e, a) -> epair e a) demands) in
  ( Array.map (fun id -> Oracles.Bin.v ~id ~capacity:capacities.(id)) bin_order,
    Array.of_list
      (List.map (fun id -> Oracles.Item.v ~id ~demand:demands.(id)) order) )

(* The state's placements in one bin, most recent first: a record bin's
   [contents]. *)
let contents (st : State.t) b =
  Array.fold_left
    (fun acc j -> if st.assign.(j) = b then j :: acc else acc)
    [] (State.placement_order st)

(* Same success, same assignment, the same item sequence in every bin and
   bit-identical loads, whether the pack succeeded or failed. *)
let same_packing ok (st : State.t) ok_ref (bins : Oracles.Bin.t array) =
  ok = ok_ref
  && State.assignment st
     = Oracles.Record_fit.assignment ~bins ~n_items:st.n_items
  && Array.for_all
       (fun (bin : Oracles.Bin.t) ->
         contents st bin.id = bin.contents && load st bin.id = bin.load)
       bins

let prop_cursor_pp_equals_scan =
  (* The library selects through per-class cursors; the reference scans
     every item at every select pass. One scratch serves every pack of a
     case, as a probe kernel's does, and one state, whose demands each
     probe rewrites. *)
  QCheck2.Test.make
    ~name:"PP with scratch selects exactly like the full scan" ~count:300
    quantized_packing_gen (fun ((bins, probes, order, bin_order) as case) ->
      let dims = List.length (fst (List.hd bins)) in
      let configs =
        List.concat_map
          (fun flavour ->
            List.concat_map
              (fun ranking ->
                List.init dims (fun w -> (flavour, ranking, w + 1)))
              Permutation_pack.[ By_load; By_remaining_capacity ])
          Permutation_pack.[ Permutation; Choose ]
      in
      let st = quantized_state case and bin_order = Array.of_list bin_order in
      let scratch = Permutation_pack.scratch () in
      List.for_all
        (fun demands ->
          set_demands st demands;
          List.for_all
            (fun (flavour, ranking, window) ->
              State.reset st;
              let ok =
                Permutation_pack.pack ~flavour ~window ~ranking ~scratch st
                  ~bins:bin_order ~items:(Array.of_list order) ()
              in
              let ref_bins, ref_items =
                quantized_records case ~bin_order demands
              in
              let ok_ref =
                Oracles.Pp_scan.pack ~flavour ~window ~ranking ~bins:ref_bins
                  ~items:ref_items ()
              in
              same_packing ok st ok_ref ref_bins)
            configs)
        probes)

let prop_fit_equals_records =
  (* First-Fit in the case's bin order, and Best-Fit under both rankings
     (which scans the bins in id order), on the flat state against the
     record references; every pack of a case reuses one state. *)
  QCheck2.Test.make ~name:"flat FF and BF place exactly like the records"
    ~count:300 quantized_packing_gen
    (fun ((bins, probes, order, bin_order) as case) ->
      let st = quantized_state case and items = Array.of_list order in
      let in_order = Array.of_list bin_order
      and by_id = Array.init (List.length bins) Fun.id in
      let best_fit rank =
        ( by_id,
          (fun () -> Fit.best_fit ~rank st ~items),
          fun ~bins ~items -> Oracles.Record_fit.best_fit ~rank ~bins ~items )
      in
      List.for_all
        (fun demands ->
          set_demands st demands;
          List.for_all
            (fun (bin_order, flat, record) ->
              State.reset st;
              let ok = flat () in
              let ref_bins, ref_items =
                quantized_records case ~bin_order demands
              in
              same_packing ok st (record ~bins:ref_bins ~items:ref_items)
                ref_bins)
            [
              ( in_order,
                (fun () -> Fit.first_fit st ~bins:in_order ~items),
                Oracles.Record_fit.first_fit );
              best_fit Fit.By_load;
              best_fit Fit.By_remaining;
            ])
        probes)

let prop_pp_cp_coincide_at_window_1 =
  QCheck2.Test.make ~name:"PP = CP at window 1 (paper §3.5.2)" ~count:200
    random_packing_gen (fun spec ->
      let st_a = build_packing spec and st_b = build_packing spec in
      let ok_a = pack ~flavour:Permutation_pack.Permutation ~window:1 st_a in
      let ok_b = pack ~flavour:Permutation_pack.Choose ~window:1 st_b in
      ok_a = ok_b && State.assignment st_a = State.assignment st_b)

let prop_strategies_agree_on_feasibility_direction =
  (* Any strategy that succeeds produces a complete, valid assignment. *)
  QCheck2.Test.make ~name:"strategy runs produce valid assignments"
    ~count:100 random_packing_gen (fun spec ->
      List.for_all
        (fun strategy ->
          let st = build_packing spec in
          match run strategy st with
          | None -> true
          | Some assign ->
              Array.for_all (fun b -> b >= 0 && b < st.n_bins) assign
              && no_overflow st)
        (Strategy.vp_all @ Strategy.hvp_light))

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("bin fits/place/load", test_bin_fits_and_place);
      ("bin running sums", test_bin_running_sums);
      ("bin elementary filter", test_bin_elementary_filter);
      ("first fit order", test_first_fit_order);
      ("first fit failure", test_first_fit_failure_is_reported);
      ("best fit by load", test_best_fit_by_load);
      ("best fit by remaining (HVP)", test_best_fit_by_remaining_prefers_smaller_bin);
      ("permutation key (paper example)", test_permutation_key_paper_example);
      ("compare keys / window", test_compare_keys_window);
      ("PP balances dimensions", test_permutation_pack_balances);
      ("PP failure", test_permutation_pack_failure);
      ("strategy counts 33/253/60", test_strategy_counts);
      ("strategy names unique", test_strategy_names_unique);
      ("light subset of METAHVP", test_light_subset_of_full);
      ("HVP FF uses sorted bins", test_hvp_first_fit_sorted_bins);
    ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_packing_never_overflows;
        prop_success_means_all_placed;
        prop_fast_pp_equals_naive;
        prop_pp_cp_coincide_at_window_1;
        prop_cursor_pp_equals_scan;
        prop_fit_equals_records;
        prop_strategies_agree_on_feasibility_direction;
      ]
  @ List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
      [
        ("certificate: exact fill", test_certificate_exact_fill);
        ("certificate: half a tolerance over",
         test_certificate_half_tolerance);
        ("certificate: oversized item", test_certificate_oversized_item);
        ("certificate: usable bins", test_certificate_usable_bins);
      ]
