type t = float array

let eps = 1e-9

let dim v = Array.length v

let get v d = v.(d)

let make d x =
  if d <= 0 then invalid_arg "Vector.make: dimension must be positive";
  Array.make d x

let zero d = make d 0.

let of_array a =
  if Array.length a = 0 then invalid_arg "Vector.of_array: empty";
  Array.copy a

let of_list l = of_array (Array.of_list l)

let to_array v = Array.copy v

let to_list v = Array.to_list v

let init d f =
  if d <= 0 then invalid_arg "Vector.init: dimension must be positive";
  Array.init d f

let map f v = Array.map f v

let map2 f a b =
  if Array.length a <> Array.length b then
    invalid_arg "Vector.map2: dimension mismatch";
  Array.init (Array.length a) (fun i -> f a.(i) b.(i))

let add a b = map2 ( +. ) a b

let sub a b = map2 ( -. ) a b

let scale s v = Array.map (fun x -> s *. x) v

let axpy a x y =
  if Array.length x <> Array.length y then
    invalid_arg "Vector.axpy: dimension mismatch";
  Array.init (Array.length x) (fun i -> (a *. x.(i)) +. y.(i))

let sum v = Array.fold_left ( +. ) 0. v

let max_component v = Array.fold_left max neg_infinity v

let min_component v = Array.fold_left min infinity v

let max_ratio v =
  let mx = max_component v and mn = min_component v in
  if mx = 0. && mn = 0. then 1.
  else if mn = 0. then infinity
  else mx /. mn

let max_difference v = max_component v -. min_component v

let compare_lex a b =
  if Array.length a <> Array.length b then
    invalid_arg "Vector.compare_lex: dimension mismatch";
  let rec loop i =
    if i >= Array.length a then 0
    else
      let c = Float.compare a.(i) b.(i) in
      if c <> 0 then c else loop (i + 1)
  in
  loop 0

let equal ?(eps = eps) a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= eps) a b

let dominant_dimension v =
  let best = ref 0 in
  for i = 1 to Array.length v - 1 do
    if v.(i) > v.(!best) then best := i
  done;
  !best

(* Stable sort of dimension indices; stability gives the tie-break toward
   lower indices that Permutation-Pack's key construction relies on. *)
let sorted_dims cmp v =
  let idx = Array.init (Array.length v) Fun.id in
  let a = Array.map (fun i -> (i, v.(i))) idx in
  Array.stable_sort (fun (_, x) (_, y) -> cmp x y) a;
  Array.map fst a

let permutation_desc v = sorted_dims (fun x y -> Float.compare y x) v

let permutation_asc v = sorted_dims Float.compare v

let dot a b =
  if Array.length a <> Array.length b then
    invalid_arg "Vector.dot: dimension mismatch";
  let acc = ref 0. in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

let is_zero v = Array.for_all (fun x -> x = 0.) v

let pp ppf v =
  Format.fprintf ppf "[";
  Array.iteri
    (fun i x ->
      if i > 0 then Format.fprintf ppf "; ";
      Format.fprintf ppf "%g" x)
    v;
  Format.fprintf ppf "]"

let to_string v = Format.asprintf "%a" pp v
