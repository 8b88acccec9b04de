type rows = {
  dims : int;
  req_elem : float array;
  req_agg : float array;
  need_elem : float array;
  need_agg : float array;
}

let instance_rows (i : Instance.t) =
  {
    dims = i.dims;
    req_elem = i.req_elem;
    req_agg = i.req_agg;
    need_elem = i.need_elem;
    need_agg = i.need_agg;
  }

let tol = Vec.Vector.eps

(* The library's fits test: tolerance eps * max 1 |c|. *)
let fits x c = x <= c +. (tol *. Float.max 1. (Float.abs c))

(* Summed aggregate requirement of the slice in dimension [i], in slice
   order from 0. *)
let requirement_sum rows ~ids ~off ~len i =
  let d = rows.dims in
  let s = ref 0. in
  for k = off to off + len - 1 do
    s := !s +. rows.req_agg.((ids.(k) * d) + i)
  done;
  !s

let elementary_caps (node : Node.t) rows =
  let ce = (node.capacity.Vec.Epair.elementary :> float array) in
  if Array.length ce <> rows.dims then invalid_arg "Yield: dimension mismatch";
  ce

let aggregate_caps (node : Node.t) =
  (node.capacity.Vec.Epair.aggregate :> float array)

(* The kernel's loops keep their floats in local refs, which the native
   compiler holds unboxed: a recursive helper or a float-returning call
   would allocate a box per service and dimension. *)

let requirements_fit node rows ~ids ~off ~len =
  let ce = elementary_caps node rows and ca = aggregate_caps node in
  let d = rows.dims in
  let ok = ref true and k = ref off in
  while !ok && !k < off + len do
    let base = ids.(!k) * d in
    for i = 0 to d - 1 do
      if not (fits rows.req_elem.(base + i) ce.(i)) then ok := false
    done;
    incr k
  done;
  let i = ref 0 in
  while !ok && !i < d do
    if not (fits (requirement_sum rows ~ids ~off ~len !i) ca.(!i)) then
      ok := false;
    incr i
  done;
  !ok

(* bounds.(k) <- the highest yield the elementary capacities allow
   service ids.(k), for k in the slice; [false] when some elementary
   requirement exceeds an element by more than eps * max 1 c (without
   the absolute value [fits] takes). *)
let elementary_bounds ce rows ~ids ~off ~len ~bounds =
  let d = rows.dims in
  let ok = ref true and k = ref off in
  while !ok && !k < off + len do
    let base = ids.(!k) * d in
    let bound = ref 1. and i = ref 0 in
    while !ok && !i < d do
      let cap = ce.(!i)
      and req = rows.req_elem.(base + !i)
      and need = rows.need_elem.(base + !i) in
      if req > cap +. (tol *. Float.max 1. cap) then ok := false
      else if need > 0. then
        bound := Float.min !bound (Float.max 0. ((cap -. req) /. need));
      incr i
    done;
    bounds.(!k) <- !bound;
    incr k
  done;
  !ok

(* order.(off ..) <- the positions off .. off + len - 1 sorted by bound,
   stably, so equal bounds keep slice order: the unique stable result,
   the one [List.sort] gives. An insertion sort: allocation-free, and
   faster than [Array.stable_sort] up to about 100 distinct bounds,
   though O(len²) at worst. The benchmark's workloads put at most 131
   services on a node, and 16 or fewer in over 97% of evaluations
   (EXPERIMENTS.md "Online hosting"). *)
let sort_by_bound ~bounds ~order ~off ~len =
  for k = off to off + len - 1 do
    let b = bounds.(k) in
    let i = ref (k - 1) in
    while !i >= off && Float.compare bounds.(order.(!i)) b > 0 do
      order.(!i + 1) <- order.(!i);
      decr i
    done;
    order.(!i + 1) <- k
  done

(* Exact breakpoint sweep for aggregate dimension [i]: the largest L in
   [0, 1] with  sum_j (r_j + min(L, b_j) * n_j) <= c,  where b_j is the
   service's elementary bound. The demand is piecewise linear and
   nondecreasing in L, so we walk the services with n_j > 0 in bound
   order, spending slack at the current slope until it runs out or every
   service saturates. *)
let level_for_dimension rows ~ids ~off ~len ~bounds ~order ~capacity i =
  let d = rows.dims and na = rows.need_agg in
  let slack = ref (capacity -. requirement_sum rows ~ids ~off ~len i) in
  if !slack < 0. then 0.
  else begin
    let slope = ref 0. in
    for k = off to off + len - 1 do
      let n = na.((ids.(order.(k)) * d) + i) in
      if n > 0. then slope := !slope +. n
    done;
    let l = ref 0. and level = ref 1. and swept = ref false in
    let k = ref off in
    while (not !swept) && !k < off + len do
      let p = order.(!k) in
      let n = na.((ids.(p) * d) + i) in
      if n > 0. then
        if !slope <= 1e-15 then
          (* Numerically exhausted slope: no further demand growth, and
             every later service saturates too. *)
          swept := true
        else begin
          let cap = bounds.(p) in
          let reach = !l +. (!slack /. !slope) in
          if reach <= cap then begin
            level := Float.min 1. reach;
            swept := true
          end
          else begin
            slack := !slack -. (!slope *. (cap -. !l));
            slope := !slope -. n;
            l := cap
          end
        end;
      incr k
    done;
    Float.max 0. (Float.min 1. !level)
  end

let fill node rows ~ids ~off ~len ~bounds ~order =
  if len = 0 then 1.
  else if
    not
      (requirements_fit node rows ~ids ~off ~len
      && elementary_bounds (elementary_caps node rows) rows ~ids ~off ~len
           ~bounds)
  then -1.
  else begin
    sort_by_bound ~bounds ~order ~off ~len;
    let ca = aggregate_caps node in
    let level = ref 1. in
    for i = 0 to rows.dims - 1 do
      let l =
        level_for_dimension rows ~ids ~off ~len ~bounds ~order
          ~capacity:ca.(i) i
      in
      if l < !level then level := l
    done;
    !level
  end

let max_min node rows ~ids ~off ~len ~bounds ~order =
  let level = fill node rows ~ids ~off ~len ~bounds ~order in
  if level < 0. then level
  else begin
    let m = ref 1. in
    for k = off to off + len - 1 do
      if bounds.(k) < !m then m := bounds.(k)
    done;
    Float.min !m level
  end

let max_min_yield node services =
  let services = Array.of_list services in
  let len = Array.length services in
  let dims = Node.dim node in
  if Array.exists (fun s -> Service.dim s <> dims) services then
    invalid_arg "Yield.max_min_yield: dimension mismatch";
  let flat proj =
    let a = Array.make (len * dims) 0. in
    Array.iteri
      (fun j s ->
        Array.blit (proj s : Vec.Vector.t :> float array) 0 a (j * dims) dims)
      services;
    a
  in
  let rows =
    {
      dims;
      req_elem = flat (fun (s : Service.t) -> s.requirement.Vec.Epair.elementary);
      req_agg = flat (fun (s : Service.t) -> s.requirement.Vec.Epair.aggregate);
      need_elem = flat (fun (s : Service.t) -> s.need.Vec.Epair.elementary);
      need_agg = flat (fun (s : Service.t) -> s.need.Vec.Epair.aggregate);
    }
  in
  let y =
    max_min node rows ~ids:(Array.init len Fun.id) ~off:0 ~len
      ~bounds:(Array.make len 0.) ~order:(Array.make len 0)
  in
  if y < 0. then None else Some y
