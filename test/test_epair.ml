(* Tests for Vec.Epair (elementary/aggregate pairs) and Vec.Metric. *)

open Vec

let check_float = Alcotest.(check (float 1e-12))

let pair e a = Epair.of_arrays (Array.of_list e) (Array.of_list a)

let test_dim_mismatch () =
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Epair.v: dimension mismatch") (fun () ->
      ignore
        (Epair.v
           ~elementary:(Vector.of_list [ 1. ])
           ~aggregate:(Vector.of_list [ 1.; 2. ])))

let test_uniform () =
  let p = Epair.uniform (Vector.of_list [ 0.5; 0.25 ]) in
  check_float "elem = agg" (Vector.get p.Epair.elementary 1)
    (Vector.get p.Epair.aggregate 1)

let test_at_yield () =
  let requirement = pair [ 0.5; 0.5 ] [ 1.0; 0.5 ] in
  let need = pair [ 0.5; 0. ] [ 1.0; 0. ] in
  let d = Epair.at_yield ~requirement ~need 0.6 in
  check_float "elementary cpu" 0.8 (Vector.get d.Epair.elementary 0);
  check_float "aggregate cpu" 1.6 (Vector.get d.Epair.aggregate 0);
  check_float "memory unchanged" 0.5 (Vector.get d.Epair.aggregate 1)

let test_add_scale () =
  let a = pair [ 1.; 2. ] [ 2.; 4. ] in
  let b = Epair.scale 0.5 a in
  check_float "scaled elem" 0.5 (Vector.get b.Epair.elementary 0);
  let c = Epair.add a b in
  check_float "sum agg" 6. (Vector.get c.Epair.aggregate 1)

(* Metric tests. *)

let test_metric_values () =
  let x = Vector.of_list [ 0.2; 0.8 ] in
  check_float "MAX" 0.8 (Metric.value Metric.Max x);
  check_float "SUM" 1.0 (Metric.value Metric.Sum x);
  check_float "MAXRATIO" 4. (Metric.value Metric.Max_ratio x);
  check_float "MAXDIFFERENCE" 0.6 (Metric.value Metric.Max_difference x)

let test_metric_order_count () =
  Alcotest.(check int) "11 item orders" 11 (List.length Metric.all_orders)

let test_metric_sort () =
  let items = [| [ 0.9; 0.1 ]; [ 0.2; 0.2 ]; [ 0.5; 0.5 ] |] in
  let items = Array.map Vector.of_list items in
  let by_sum_desc =
    Metric.sort (Metric.Desc (Metric.Scalar Metric.Sum)) Fun.id items
  in
  check_float "largest sum first" 1.0 (Vector.sum by_sum_desc.(0));
  check_float "smallest sum last" 0.4 (Vector.sum by_sum_desc.(2));
  let unsorted = Metric.sort Metric.Unsorted Fun.id items in
  Alcotest.(check bool) "unsorted keeps order" true
    (Vector.equal unsorted.(0) items.(0))

let test_metric_sort_stable () =
  (* Equal keys keep natural order. *)
  let items = [| (0, [ 0.5; 0.5 ]); (1, [ 0.5; 0.5 ]); (2, [ 0.9; 0.1 ]) |] in
  let items = Array.map (fun (i, l) -> (i, Vector.of_list l)) items in
  let sorted = Metric.sort (Metric.Asc (Metric.Scalar Metric.Sum)) snd items in
  Alcotest.(check (list int)) "stable" [ 0; 1; 2 ]
    (Array.to_list (Array.map fst sorted))

(* The flat form the packing state sorts by: on rows in tenths, zeros
   included (ties, and MAXRATIO's infinity), every order gives the ids in
   the order [Metric.sort] gives the vectors. *)
let prop_sort_rows_equals_sort =
  QCheck2.Test.make ~name:"sort_rows orders ids as sort orders vectors"
    ~count:200
    QCheck2.Gen.(
      let* dims = int_range 1 4 in
      let* rows =
        list_size (int_range 0 12)
          (list_size (pure dims)
             (map (fun k -> float_of_int k /. 10.) (int_range 0 5)))
      in
      pure (dims, rows))
    (fun (dims, rows) ->
      let vectors = Array.of_list (List.map Vector.of_list rows) in
      let flat = Array.concat (List.map Array.of_list rows) in
      List.for_all
        (fun order ->
          Metric.sort_rows order ~dims flat
          = Array.map fst
              (Metric.sort order snd (Array.mapi (fun i v -> (i, v)) vectors)))
        Metric.all_orders)

let test_metric_names () =
  Alcotest.(check string) "DMAX" "DMAX"
    (Metric.order_to_string (Metric.Desc (Metric.Scalar Metric.Max)));
  Alcotest.(check string) "ALEX" "ALEX"
    (Metric.order_to_string (Metric.Asc Metric.Lex));
  Alcotest.(check string) "NONE" "NONE" (Metric.order_to_string Metric.Unsorted)

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("dimension mismatch", test_dim_mismatch);
      ("uniform", test_uniform);
      ("at_yield (Fig. 1 numbers)", test_at_yield);
      ("add / scale", test_add_scale);
      ("metric values", test_metric_values);
      ("metric names", test_metric_names);
      ("11 metric orders", test_metric_order_count);
      ("metric sort", test_metric_sort);
      ("metric sort stability", test_metric_sort_stable);
    ]
  @ [ QCheck_alcotest.to_alcotest prop_sort_rows_equals_sort ]
