type t = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
}

let mean xs =
  if Array.length xs = 0 then invalid_arg "Summary.mean: empty";
  Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let stddev xs =
  let m = mean xs in
  let var =
    Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs
    /. float_of_int (Array.length xs)
  in
  sqrt var

let coefficient_of_variation xs =
  let m = mean xs in
  if m = 0. then 0. else stddev xs /. m

let of_array xs =
  if Array.length xs = 0 then invalid_arg "Summary.of_array: empty";
  {
    count = Array.length xs;
    mean = mean xs;
    stddev = stddev xs;
    min = Array.fold_left Float.min infinity xs;
    max = Array.fold_left Float.max neg_infinity xs;
  }

let of_list l = of_array (Array.of_list l)

let percentile xs p =
  if Array.length xs = 0 then invalid_arg "Summary.percentile: empty";
  if p < 0. || p > 100. then invalid_arg "Summary.percentile: p out of range";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    ((1. -. frac) *. sorted.(lo)) +. (frac *. sorted.(hi))
  end

let median xs = percentile xs 50.
