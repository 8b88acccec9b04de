type scalar = Max | Sum | Max_ratio | Max_difference

type order = Unsorted | Asc of key | Desc of key
and key = Scalar of scalar | Lex

let value s v =
  match s with
  | Max -> Vector.max_component v
  | Sum -> Vector.sum v
  | Max_ratio -> Vector.max_ratio v
  | Max_difference -> Vector.max_difference v

let compare_key key a b =
  match key with
  | Scalar s -> Float.compare (value s a) (value s b)
  | Lex -> Vector.compare_lex a b

let sort order proj items =
  let items = Array.copy items in
  (match order with
  | Unsorted -> ()
  | Asc key ->
      Array.stable_sort (fun x y -> compare_key key (proj x) (proj y)) items
  | Desc key ->
      Array.stable_sort (fun x y -> compare_key key (proj y) (proj x)) items);
  items

(* The same stable sort as [sort], with each scalar key computed once per
   row instead of once per comparison: [value] is a pure function of the
   row, so every comparison, and hence the order, is [sort]'s. *)
let sort_rows order ~dims rows =
  if dims <= 0 then invalid_arg "Metric.sort_rows: dims must be positive";
  let n = Array.length rows / dims in
  let ids = Array.init n Fun.id in
  (match order with
  | Unsorted -> ()
  | Asc key | Desc key ->
      let views =
        Array.init n (fun i ->
            Vector.init dims (fun d -> rows.((i * dims) + d)))
      in
      let cmp =
        match key with
        | Scalar s ->
            let keys = Array.map (value s) views in
            fun a b -> Float.compare keys.(a) keys.(b)
        | Lex -> fun a b -> Vector.compare_lex views.(a) views.(b)
      in
      Array.stable_sort
        (match order with Desc _ -> fun a b -> cmp b a | _ -> cmp)
        ids);
  ids

let all_keys =
  [ Scalar Max; Scalar Sum; Scalar Max_ratio; Scalar Max_difference; Lex ]

let all_orders =
  Unsorted
  :: List.concat_map (fun k -> [ Asc k; Desc k ]) all_keys

let scalar_to_string = function
  | Max -> "MAX"
  | Sum -> "SUM"
  | Max_ratio -> "MAXRATIO"
  | Max_difference -> "MAXDIFFERENCE"

let key_to_string = function
  | Scalar s -> scalar_to_string s
  | Lex -> "LEX"

let order_to_string = function
  | Unsorted -> "NONE"
  | Asc k -> "A" ^ key_to_string k
  | Desc k -> "D" ^ key_to_string k
