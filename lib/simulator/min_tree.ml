(* Leaf h lives at [size + h] of [tree]; node i holds the Float.min of
   nodes 2i and 2i + 1. Padding leaves (h >= n) and failed leaves hold
   1., which leaves every minimum at most 1 unchanged. *)
type t = {
  n : int;
  size : int;
  tree : float array;
  failed : bool array;
  mutable n_failed : int;
}

let create n =
  if n < 1 then invalid_arg "Min_tree.create: no leaves";
  let size = ref 1 in
  while !size < n do
    size := 2 * !size
  done;
  {
    n;
    size = !size;
    tree = Array.make (2 * !size) 1.;
    failed = Array.make n false;
    n_failed = 0;
  }

let store t h v =
  let failed = Option.is_none v in
  if failed <> t.failed.(h) then begin
    t.failed.(h) <- failed;
    t.n_failed <- (t.n_failed + if failed then 1 else -1)
  end;
  t.tree.(t.size + h) <- Option.value v ~default:1.

let pull t i = t.tree.(i) <- Float.min t.tree.(2 * i) t.tree.((2 * i) + 1)

let set t h v =
  store t h v;
  let i = ref ((t.size + h) / 2) in
  while !i >= 1 do
    pull t !i;
    i := !i / 2
  done

let set_all t f =
  for h = 0 to t.n - 1 do
    store t h (f h)
  done;
  for i = t.size - 1 downto 1 do
    pull t i
  done

let min t = if t.n_failed > 0 then 0. else Float.min 1. t.tree.(1)
