(* Unit and property tests for Vec.Vector. *)

open Vec

let check_float = Alcotest.(check (float 1e-12))

let v = Vector.of_list

let test_make_and_get () =
  let x = Vector.make 3 1.5 in
  Alcotest.(check int) "dim" 3 (Vector.dim x);
  check_float "component" 1.5 (Vector.get x 1)

let test_make_invalid () =
  Alcotest.check_raises "zero dim" (Invalid_argument
    "Vector.make: dimension must be positive") (fun () ->
      ignore (Vector.make 0 1.))

let test_of_list_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Vector.of_array: empty")
    (fun () -> ignore (Vector.of_list []))

let test_arithmetic () =
  let a = v [ 1.; 2.; 3. ] and b = v [ 0.5; 0.5; 0.5 ] in
  check_float "add" 2.5 (Vector.get (Vector.add a b) 1);
  check_float "sub" 2.5 (Vector.get (Vector.sub a b) 2);
  check_float "scale" 6. (Vector.get (Vector.scale 2. a) 2);
  check_float "axpy" 1.5 (Vector.get (Vector.axpy 0.5 a b) 1)

let test_dimension_mismatch () =
  let a = v [ 1.; 2. ] and b = v [ 1. ] in
  Alcotest.check_raises "add" (Invalid_argument
    "Vector.map2: dimension mismatch") (fun () -> ignore (Vector.add a b))

let test_metrics () =
  let x = v [ 0.2; 0.8; 0.4 ] in
  check_float "sum" 1.4 (Vector.sum x);
  check_float "max" 0.8 (Vector.max_component x);
  check_float "min" 0.2 (Vector.min_component x);
  check_float "maxratio" 4. (Vector.max_ratio x);
  check_float "maxdiff" 0.6 (Vector.max_difference x)

let test_max_ratio_degenerate () =
  check_float "all zero" 1. (Vector.max_ratio (v [ 0.; 0. ]));
  Alcotest.(check bool) "zero min"
    true
    (Float.is_integer (Vector.max_ratio (v [ 1.; 0. ]))
     = Float.is_integer infinity
     && Vector.max_ratio (v [ 1.; 0. ]) = infinity)

let test_lex () =
  Alcotest.(check bool) "lt" true
    (Vector.compare_lex (v [ 1.; 9. ]) (v [ 2.; 0. ]) < 0);
  Alcotest.(check bool) "eq" true
    (Vector.compare_lex (v [ 1.; 2. ]) (v [ 1.; 2. ]) = 0);
  Alcotest.(check bool) "second dim" true
    (Vector.compare_lex (v [ 1.; 3. ]) (v [ 1.; 2. ]) > 0)

let test_fits () =
  Alcotest.(check bool) "fits" true
    (Oracles.Yield_ref.fits (v [ 0.5; 0.5 ]) (v [ 0.5; 1. ]));
  Alcotest.(check bool) "tolerance" true
    (Oracles.Yield_ref.fits (v [ 0.5 +. 1e-12 ]) (v [ 0.5 ]));
  Alcotest.(check bool) "does not fit" false
    (Oracles.Yield_ref.fits (v [ 0.6 ]) (v [ 0.5 ]))

let test_dominant_dimension () =
  Alcotest.(check int) "dominant" 1
    (Vector.dominant_dimension (v [ 0.1; 0.9; 0.3 ]));
  Alcotest.(check int) "tie to low index" 0
    (Vector.dominant_dimension (v [ 0.5; 0.5 ]))

let test_permutations () =
  let x = v [ 0.3; 0.9; 0.1 ] in
  Alcotest.(check (array int)) "desc" [| 1; 0; 2 |] (Vector.permutation_desc x);
  Alcotest.(check (array int)) "asc" [| 2; 0; 1 |] (Vector.permutation_asc x);
  (* Ties keep natural order (stable). *)
  let t = v [ 0.5; 0.5; 0.1 ] in
  Alcotest.(check (array int)) "stable desc" [| 0; 1; 2 |]
    (Vector.permutation_desc t)

let test_dot_is_zero () =
  check_float "dot" 1.1 (Vector.dot (v [ 1.; 2. ]) (v [ 0.3; 0.4 ]));
  Alcotest.(check bool) "is_zero" true (Vector.is_zero (v [ 0.; 0. ]));
  Alcotest.(check bool) "not zero" false (Vector.is_zero (v [ 0.; 1e-30 ]))

(* Property tests. *)

let vec_gen =
  QCheck2.Gen.(
    let* d = int_range 1 6 in
    let* comps = list_size (pure d) (float_bound_inclusive 10.) in
    pure (Vector.of_list comps))

(* Same-dimension pair, so properties never discard samples. *)
let vec_pair_gen =
  QCheck2.Gen.(
    let* d = int_range 1 6 in
    let* a = list_size (pure d) (float_bound_inclusive 10.) in
    let* b = list_size (pure d) (float_bound_inclusive 10.) in
    pure (Vector.of_list a, Vector.of_list b))

let prop_add_commutative =
  QCheck2.Test.make ~name:"add commutative" ~count:300 vec_pair_gen
    (fun (a, b) -> Vector.equal (Vector.add a b) (Vector.add b a))

let prop_axpy_matches_add_scale =
  QCheck2.Test.make ~name:"axpy = scale + add" ~count:300
    QCheck2.Gen.(pair (float_bound_inclusive 2.) vec_pair_gen)
    (fun (s, (x, y)) ->
      Vector.equal ~eps:1e-9 (Vector.axpy s x y)
        (Vector.add (Vector.scale s x) y))

let prop_max_ge_min =
  QCheck2.Test.make ~name:"max >= min component" ~count:300 vec_gen (fun x ->
      Vector.max_component x >= Vector.min_component x)

let prop_sum_bounds =
  QCheck2.Test.make ~name:"max <= sum <= d * max (non-negative)" ~count:300
    vec_gen (fun x ->
      let d = float_of_int (Vector.dim x) in
      let mx = Vector.max_component x and s = Vector.sum x in
      mx <= s +. 1e-9 && s <= (d *. mx) +. 1e-9)

let prop_permutation_desc_sorted =
  QCheck2.Test.make ~name:"permutation_desc yields descending components"
    ~count:300 vec_gen (fun x ->
      let p = Vector.permutation_desc x in
      let ok = ref true in
      for i = 0 to Array.length p - 2 do
        if Vector.get x p.(i) < Vector.get x p.(i + 1) then ok := false
      done;
      !ok)

let prop_fits_monotone =
  QCheck2.Test.make ~name:"fits is monotone in capacity" ~count:300
    QCheck2.Gen.(pair vec_gen (float_bound_inclusive 5.))
    (fun (x, extra) ->
      let bigger = Vector.map (fun c -> c +. extra) x in
      Oracles.Yield_ref.fits x bigger)

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("make/get", test_make_and_get);
      ("make invalid", test_make_invalid);
      ("of_list empty", test_of_list_empty);
      ("arithmetic", test_arithmetic);
      ("dimension mismatch", test_dimension_mismatch);
      ("scalar metrics", test_metrics);
      ("max_ratio degenerate", test_max_ratio_degenerate);
      ("lexicographic", test_lex);
      ("fits", test_fits);
      ("dominant dimension", test_dominant_dimension);
      ("permutations", test_permutations);
      ("dot / is_zero", test_dot_is_zero);
    ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_add_commutative;
        prop_axpy_matches_add_scale;
        prop_max_ge_min;
        prop_sum_bounds;
        prop_permutation_desc_sorted;
        prop_fits_monotone;
      ]
