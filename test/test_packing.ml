(* Tests for the vector-packing engine: bins, First/Best-Fit,
   Permutation-Pack (the cursor path against the full scan of
   [Oracles.Pp_scan] and the D!-list version), and the strategy
   enumerations. *)

open Packing

let v = Vec.Vector.of_list
let epair e a = Vec.Epair.v ~elementary:(v e) ~aggregate:(v a)

let item id e a = Item.v ~id ~demand:(epair e a)
let bin id e a = Bin.v ~id ~capacity:(epair e a)

(* A simple uniform item: elementary = aggregate (poolable view). *)
let uitem id comps = item id comps comps
let ubin id comps = bin id comps comps

let check_float = Alcotest.(check (float 1e-9))

(* Permutation-Pack on a fresh scratch; [run] runs a strategy on a fresh
   cache. *)
let pack ?flavour ?window ?ranking ~bins ~items () =
  Permutation_pack.pack ?flavour ?window ?ranking
    ~scratch:(Permutation_pack.scratch ()) ~bins ~items ()

let run strategy ~bins ~items =
  Strategy.run ~cache:(Strategy.cache ()) strategy ~bins ~items

let test_bin_fits_and_place () =
  let b = ubin 0 [ 1.0; 1.0 ] in
  let i1 = uitem 0 [ 0.6; 0.2 ] in
  let i2 = uitem 1 [ 0.6; 0.2 ] in
  Alcotest.(check bool) "fits empty" true (Bin.fits b i1);
  Bin.place b i1;
  Alcotest.(check bool) "second overflows dim 0" false (Bin.fits b i2);
  check_float "load" 0.6 (Vec.Vector.get (Bin.load_vector b) 0);
  check_float "remaining" 0.4 (Vec.Vector.get (Bin.remaining b) 0);
  check_float "load sum" 0.8 (Bin.load_sum b);
  check_float "remaining sum" 1.2 (Bin.remaining_sum b)

(* The running sum_load / sum_remaining fields must always equal the
   folds over load and capacity they replace, through arbitrary
   place/reset sequences, and reset bins must behave like fresh ones. *)
let test_bin_running_sums () =
  let fold_load b =
    Array.fold_left ( +. ) 0. (Vec.Vector.to_array (Bin.load_vector b))
  in
  let fold_remaining (b : Bin.t) =
    let cap = b.Bin.capacity.Vec.Epair.aggregate in
    let load = Bin.load_vector b in
    let acc = ref 0. in
    for i = 0 to Bin.dim b - 1 do
      acc :=
        !acc
        +. Float.max 0. (Vec.Vector.get cap i -. Vec.Vector.get load i)
    done;
    !acc
  in
  let check_sums msg b =
    check_float (msg ^ ": load_sum") (fold_load b) (Bin.load_sum b);
    check_float (msg ^ ": remaining_sum") (fold_remaining b)
      (Bin.remaining_sum b)
  in
  let b = ubin 0 [ 1.0; 2.0; 0.5 ] in
  check_sums "fresh" b;
  Bin.place b (uitem 0 [ 0.3; 0.1; 0.2 ]);
  check_sums "after one place" b;
  (* Overfill a dimension: remaining clamps at 0 in that dimension. *)
  Bin.place b (uitem 1 [ 0.9; 0.2; 0.1 ]);
  check_sums "after overfilling dim 0" b;
  Bin.reset b;
  check_sums "after reset" b;
  let fresh = ubin 0 [ 1.0; 2.0; 0.5 ] in
  check_float "reset load_sum = fresh" (Bin.load_sum fresh) (Bin.load_sum b);
  check_float "reset remaining_sum = fresh" (Bin.remaining_sum fresh)
    (Bin.remaining_sum b);
  Alcotest.(check (list int)) "reset clears contents" [] b.Bin.contents;
  Bin.place b (uitem 2 [ 0.4; 0.4; 0.4 ]);
  check_sums "place after reset" b

let test_bin_elementary_filter () =
  (* Elementary demand exceeds elementary capacity: never fits, regardless
     of aggregate headroom. *)
  let b = bin 0 [ 0.25; 1.0 ] [ 1.0; 1.0 ] in
  let i = item 0 [ 0.3; 0.1 ] [ 0.3; 0.1 ] in
  Alcotest.(check bool) "elementary filter" false (Bin.fits b i)

let test_first_fit_order () =
  let bins = [| ubin 0 [ 0.5; 0.5 ]; ubin 1 [ 1.0; 1.0 ] |] in
  let items = [| uitem 0 [ 0.4; 0.4 ]; uitem 1 [ 0.4; 0.4 ] |] in
  Alcotest.(check bool) "packs" true (Fit.first_fit ~bins ~items);
  let assign = Strategy.assignment ~bins ~n_items:2 in
  (* First item goes to bin 0 (first that fits), second no longer fits
     there. *)
  Alcotest.(check (array int)) "assignment" [| 0; 1 |] assign

let test_first_fit_failure_is_reported () =
  let bins = [| ubin 0 [ 0.5; 0.5 ] |] in
  let items = [| uitem 0 [ 0.6; 0.1 ] |] in
  Alcotest.(check bool) "cannot pack" false (Fit.first_fit ~bins ~items)

let test_best_fit_by_load () =
  (* Identical bins; after the first item, BF prefers the fuller bin. *)
  let bins = [| ubin 0 [ 1.0; 1.0 ]; ubin 1 [ 1.0; 1.0 ] |] in
  let items =
    [| uitem 0 [ 0.3; 0.3 ]; uitem 1 [ 0.3; 0.3 ]; uitem 2 [ 0.3; 0.3 ] |]
  in
  Alcotest.(check bool) "packs" true
    (Fit.best_fit ~rank:Fit.By_load ~bins ~items);
  let assign = Strategy.assignment ~bins ~n_items:3 in
  Alcotest.(check (array int)) "all on one bin" [| 0; 0; 0 |] assign

let test_best_fit_by_remaining_prefers_smaller_bin () =
  (* Heterogeneous: HVP Best-Fit targets the bin with least remaining
     capacity. *)
  let bins = [| ubin 0 [ 1.0; 1.0 ]; ubin 1 [ 0.5; 0.5 ] |] in
  let items = [| uitem 0 [ 0.3; 0.3 ] |] in
  Alcotest.(check bool) "packs" true
    (Fit.best_fit ~rank:Fit.By_remaining ~bins ~items);
  Alcotest.(check (array int)) "smaller bin wins" [| 1 |]
    (Strategy.assignment ~bins ~n_items:1)

let test_permutation_key_paper_example () =
  (* Paper §3.5.2's 4-D example: bin ordering (4,2,3,1), item ordering
     (3,1,4,2) -> key (3,4,1,2). 0-indexed: bin perm (3,1,2,0), item perm
     (2,0,3,1), key (2,3,0,1). *)
  let bin_perm = [| 3; 1; 2; 0 |] in
  let pos = Array.make 4 0 in
  Array.iteri (fun rank d -> pos.(d) <- rank) bin_perm;
  (* item with demands ranked: largest in dim 2, then 0, then 3, then 1 *)
  let it = uitem 0 [ 0.6; 0.1; 0.9; 0.3 ] in
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
  (* One bin, two dims. Load starts skewed by a seed item; PP must pick the
     item that fights the imbalance. *)
  let b = ubin 0 [ 1.0; 1.0 ] in
  Bin.place b (uitem 99 [ 0.4; 0.1 ]);
  (* dim 0 is loaded *)
  let items = [| uitem 0 [ 0.3; 0.1 ]; uitem 1 [ 0.1; 0.3 ] |] in
  Alcotest.(check bool) "packs" true
    (pack ~bins:[| b |] ~items ());
  (* Item 1 (big in dim 1, the less-loaded dimension) must be placed
     first. *)
  Alcotest.(check (list int)) "selection order (most recent first)" [ 0; 1; 99 ]
    b.Bin.contents

let test_permutation_pack_failure () =
  let bins = [| ubin 0 [ 0.5; 0.5 ] |] in
  let items = [| uitem 0 [ 0.4; 0.4 ]; uitem 1 [ 0.4; 0.4 ] |] in
  Alcotest.(check bool) "second item does not fit" false
    (pack ~bins ~items ())

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
  let bins = [| ubin 0 [ 1.0; 1.0 ]; ubin 1 [ 0.5; 0.5 ] |] in
  let items = [| uitem 0 [ 0.3; 0.3 ] |] in
  match run strategy ~bins ~items with
  | Some assign -> Alcotest.(check (array int)) "small bin first" [| 1 |] assign
  | None -> Alcotest.fail "should pack"

(* The infeasibility certificate at its boundaries. [packable] runs every
   METAHVP strategy on fresh bins. *)
let certifies bins items =
  Strategy.infeasible (Strategy.cache ()) ~bins:(bins ()) ~items

let packable bins items =
  List.exists
    (fun s -> run s ~bins:(bins ()) ~items <> None)
    Strategy.hvp_all

(* Every item is its bin's [Bin.fits] threshold, [c +. 1e-9 *. max 1 c].
   Summed in item order the demands round one ulp above the thresholds
   summed in bin order, so only the margin keeps this packing
   uncertified. *)
let test_certificate_exact_fill () =
  let caps = [ 0.1; 0.1; 2.0 ] in
  let thr c = c +. (1e-9 *. Float.max 1. c) in
  let bins () = Array.of_list (List.mapi (fun id c -> ubin id [ c ]) caps) in
  let items =
    Array.of_list (List.mapi (fun id c -> uitem id [ thr c ]) (List.rev caps))
  in
  let sum = List.fold_left ( +. ) 0. in
  Alcotest.(check bool) "demands round above the thresholds" true
    (sum (List.rev_map thr caps) > sum (List.map thr caps));
  Alcotest.(check bool) "packable" true (packable bins items);
  Alcotest.(check bool) "not certified" false (certifies bins items)

(* Bins under 1 have the absolute tolerance 1e-9; four items each half of
   it over their bin put the total 2e-9 over capacity, beyond the margin
   but within the summed tolerances. *)
let test_certificate_half_tolerance () =
  let bins () = Array.init 4 (fun id -> ubin id [ 0.25 ]) in
  let items = Array.init 4 (fun id -> uitem id [ 0.25 +. 0.5e-9 ]) in
  Alcotest.(check bool) "packable" true (packable bins items);
  Alcotest.(check bool) "not certified" false (certifies bins items)

(* The second item fits neither bin, though the volumes alone would
   pass. *)
let test_certificate_oversized_item () =
  let bins () = [| ubin 0 [ 0.5; 1. ]; ubin 1 [ 1.; 0.5 ] |] in
  let items = [| uitem 0 [ 0.1; 0.1 ]; uitem 1 [ 0.75; 0.75 ] |] in
  Alcotest.(check bool) "certified" true (certifies bins items)

(* Each item fits bin 0 empty, but only bin 0 takes demand in dimension 0:
   the zero-demand item fitting bin 1 does not make it usable there. *)
let test_certificate_usable_bins () =
  let bins () = [| ubin 0 [ 1.; 1. ]; ubin 1 [ 0.5; 1. ] |] in
  let items =
    [| uitem 0 [ 0.6; 0. ]; uitem 1 [ 0.6; 0. ]; uitem 2 [ 0.; 0.1 ] |]
  in
  Alcotest.(check bool) "not packable" false (packable bins items);
  Alcotest.(check bool) "certified" true (certifies bins items)

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

let build_packing (bin_comps, item_comps) =
  let bins =
    Array.of_list (List.mapi (fun id comps -> ubin id comps) bin_comps)
  in
  let items =
    Array.of_list (List.mapi (fun id comps -> uitem id comps) item_comps)
  in
  (bins, items)

let no_overflow bins =
  Array.for_all
    (fun (b : Bin.t) ->
      Vec.Vector.fits (Bin.load_vector b) b.Bin.capacity.Vec.Epair.aggregate)
    bins

let prop_packing_never_overflows =
  QCheck2.Test.make ~name:"no algorithm ever overflows a bin" ~count:300
    random_packing_gen (fun spec ->
      List.for_all
        (fun run ->
          let bins, items = build_packing spec in
          ignore (run ~bins ~items);
          no_overflow bins)
        [
          (fun ~bins ~items -> Fit.first_fit ~bins ~items);
          (fun ~bins ~items -> Fit.best_fit ~rank:Fit.By_load ~bins ~items);
          (fun ~bins ~items ->
            Fit.best_fit ~rank:Fit.By_remaining ~bins ~items);
          (fun ~bins ~items -> pack ~bins ~items ());
          (fun ~bins ~items ->
            pack ~flavour:Permutation_pack.Choose ~window:1 ~bins ~items ());
        ])

let prop_success_means_all_placed =
  QCheck2.Test.make ~name:"success <=> every item assigned" ~count:300
    random_packing_gen (fun spec ->
      let bins, items = build_packing spec in
      let ok = Fit.first_fit ~bins ~items in
      let assign = Strategy.assignment ~bins ~n_items:(Array.length items) in
      let all_assigned = Array.for_all (fun b -> b >= 0) assign in
      ok = all_assigned)

let prop_fast_pp_equals_naive =
  (* Differential oracle: the key-based implementation must be
     observationally identical to the literal D!-list scan — same
     success/failure, same final assignment, and the same placement
     *sequence* into every bin ([Bin.contents] is most-recent-first, so
     equal lists mean the two implementations selected items in the same
     order, not merely reached the same end state). *)
  QCheck2.Test.make
    ~name:"fast key-based PP selects exactly like the D!-list version"
    ~count:200 random_packing_gen (fun spec ->
      let bins_a, items_a = build_packing spec in
      let bins_b, items_b = build_packing spec in
      let ok_a = pack ~bins:bins_a ~items:items_a () in
      let ok_b =
        Naive_permutation_pack.pack ~bins:bins_b ~items:items_b ()
      in
      ok_a = ok_b
      && Strategy.assignment ~bins:bins_a ~n_items:(Array.length items_a)
         = Strategy.assignment ~bins:bins_b ~n_items:(Array.length items_b)
      && Array.for_all2
           (fun (a : Bin.t) (b : Bin.t) -> a.Bin.contents = b.Bin.contents)
           bins_a bins_b)

(* Demands in tenths, zeros included, so equal components — key ties
   between items and ties inside the dimension sorts — are common. Each
   case packs one to three demand sets (probes) of the same items, in one
   shuffled item order. *)
let quantized_packing_gen =
  QCheck2.Gen.(
    let tenths lo hi = map (fun k -> float_of_int k /. 10.) (int_range lo hi) in
    let* dims = int_range 1 5 in
    let* n_bins = int_range 1 5 in
    let* n_items = int_range 1 16 in
    let* bin_comps =
      list_size (pure n_bins) (list_size (pure dims) (tenths 3 10))
    in
    let* probes =
      list_size (int_range 1 3)
        (list_size (pure n_items) (list_size (pure dims) (tenths 0 4)))
    in
    let* order = shuffle_l (List.init n_items Fun.id) in
    pure (bin_comps, probes, order))

let prop_cursor_pp_equals_scan =
  (* The library selects through per-class cursors; the reference scans
     every item at every select pass. One scratch serves every pack of a
     case, as a probe kernel's does, and is invalidated when the demands
     change. *)
  QCheck2.Test.make
    ~name:"PP with scratch selects exactly like the full scan" ~count:300
    quantized_packing_gen (fun (bin_comps, probes, order) ->
      let dims = List.length (List.hd bin_comps) in
      let bins () =
        Array.of_list (List.mapi (fun id comps -> ubin id comps) bin_comps)
      in
      let configs =
        List.concat_map
          (fun flavour ->
            List.concat_map
              (fun ranking ->
                List.init dims (fun w -> (flavour, ranking, w + 1)))
              Permutation_pack.[ By_load; By_remaining_capacity ])
          Permutation_pack.[ Permutation; Choose ]
      in
      let scratch = Permutation_pack.scratch () in
      List.for_all
        (fun item_comps ->
          Permutation_pack.scratch_new_probe scratch;
          let comps = Array.of_list item_comps in
          let items () =
            Array.of_list (List.map (fun id -> uitem id comps.(id)) order)
          in
          List.for_all
            (fun (flavour, ranking, window) ->
              let bins_a = bins () and bins_b = bins () in
              let ok_a =
                Permutation_pack.pack ~flavour ~window ~ranking ~scratch
                  ~bins:bins_a ~items:(items ()) ()
              in
              let ok_b =
                Oracles.Pp_scan.pack ~flavour ~window ~ranking ~bins:bins_b
                  ~items:(items ()) ()
              in
              ok_a = ok_b
              && Array.for_all2
                   (fun (a : Bin.t) (b : Bin.t) ->
                     a.Bin.contents = b.Bin.contents)
                   bins_a bins_b)
            configs)
        probes)

let prop_pp_cp_coincide_at_window_1 =
  QCheck2.Test.make ~name:"PP = CP at window 1 (paper §3.5.2)" ~count:200
    random_packing_gen (fun spec ->
      let bins_a, items_a = build_packing spec in
      let bins_b, items_b = build_packing spec in
      let ok_a =
        pack ~flavour:Permutation_pack.Permutation ~window:1 ~bins:bins_a
          ~items:items_a ()
      in
      let ok_b =
        pack ~flavour:Permutation_pack.Choose ~window:1 ~bins:bins_b
          ~items:items_b ()
      in
      ok_a = ok_b
      && Strategy.assignment ~bins:bins_a ~n_items:(Array.length items_a)
         = Strategy.assignment ~bins:bins_b ~n_items:(Array.length items_b))

let prop_strategies_agree_on_feasibility_direction =
  (* Any strategy that succeeds produces a complete, valid assignment. *)
  QCheck2.Test.make ~name:"strategy runs produce valid assignments"
    ~count:100 random_packing_gen (fun spec ->
      List.for_all
        (fun strategy ->
          let bins, items = build_packing spec in
          match run strategy ~bins ~items with
          | None -> true
          | Some assign ->
              Array.for_all
                (fun b -> b >= 0 && b < Array.length bins)
                assign
              && no_overflow bins)
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
