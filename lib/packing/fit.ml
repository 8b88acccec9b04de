type bin_rank = By_load | By_remaining

(* Packing-engine work counters: one placement attempt per item processed,
   one bin examined per fits test (first-fit stops at the first success,
   best-fit always scans every bin). Each run counts locally and adds its
   totals once. *)
let c_attempts = Obs.Metrics.counter "packing.placement_attempts"
let c_bins = Obs.Metrics.counter "packing.bins_examined"
let c_placed = Obs.Metrics.counter "packing.placements"

let count ~attempts ~bins ~placed =
  Obs.Metrics.add c_attempts attempts;
  Obs.Metrics.add c_bins bins;
  Obs.Metrics.add c_placed placed

(* Two comparisons per dimension against the state's stored thresholds.
   The scans below call this within the module: dune's default profile
   builds the library -opaque, so a call into another module is a real
   call. *)
let fits (t : State.t) b j =
  let d = t.dims in
  let ob = b * d and oj = j * d in
  let i = ref 0 in
  while
    !i < d
    && t.elem.(oj + !i) <= t.elem_lim.(ob + !i)
    && t.load.(ob + !i) +. t.agg.(oj + !i) <= t.agg_lim.(ob + !i)
  do
    incr i
  done;
  !i = d

(* Items must be processed strictly in order (the sort is the heuristic):
   plain loops, no closures, so a run allocates nothing. *)
let first_fit t ~bins ~items =
  let n_bins = Array.length bins in
  let k = ref 0 and examined = ref 0 and ok = ref true in
  while !ok && !k < Array.length items do
    let j = items.(!k) in
    let s = ref 0 in
    while !s < n_bins && not (fits t bins.(!s) j) do
      incr s
    done;
    if !s < n_bins then begin
      examined := !examined + !s + 1;
      State.place t bins.(!s) j;
      incr k
    end
    else begin
      examined := !examined + n_bins;
      ok := false
    end
  done;
  count ~attempts:(if !ok then !k else !k + 1) ~bins:!examined ~placed:!k;
  !ok

let best_fit ~rank (t : State.t) ~items =
  let n_bins = t.n_bins in
  let k = ref 0 and ok = ref true in
  while !ok && !k < Array.length items do
    let j = items.(!k) in
    let best = ref (-1) and best_score = ref infinity in
    for b = 0 to n_bins - 1 do
      if fits t b j then begin
        (* Smaller score = more preferred bin. *)
        let s =
          match rank with
          | By_load -> -.t.load_sum.(b)
          | By_remaining -> t.remaining_sum.(b)
        in
        if s < !best_score then begin
          best := b;
          best_score := s
        end
      end
    done;
    if !best >= 0 then begin
      State.place t !best j;
      incr k
    end
    else ok := false
  done;
  let attempts = if !ok then !k else !k + 1 in
  count ~attempts ~bins:(attempts * n_bins) ~placed:!k;
  !ok
