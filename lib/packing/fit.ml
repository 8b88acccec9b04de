type bin_rank = By_load | By_remaining

(* Packing-engine work counters: one placement attempt per item processed,
   one bin examined per fits test (first-fit stops at the first success,
   best-fit always scans every bin). *)
let c_attempts = Obs.Metrics.counter "packing.placement_attempts"
let c_bins = Obs.Metrics.counter "packing.bins_examined"
let c_placed = Obs.Metrics.counter "packing.placements"

(* Items must be processed strictly in order (the sort is the heuristic), so
   both algorithms use an explicit indexed loop rather than iterators whose
   traversal order is unspecified. The per-item bin scans are a top-level
   function and a [for] loop, not local closures, so processing an item
   allocates nothing beyond what [Bin.place] does. *)

let rec first_fit_scan bins item b =
  let n_bins = Array.length bins in
  if b >= n_bins then begin
    Obs.Metrics.add c_bins n_bins;
    false
  end
  else if Bin.fits bins.(b) item then begin
    Obs.Metrics.add c_bins (b + 1);
    Obs.Metrics.incr c_placed;
    Bin.place bins.(b) item;
    true
  end
  else first_fit_scan bins item (b + 1)

let first_fit ~bins ~items =
  let rec place_from j =
    if j >= Array.length items then true
    else begin
      Obs.Metrics.incr c_attempts;
      first_fit_scan bins items.(j) 0 && place_from (j + 1)
    end
  in
  place_from 0

let best_fit ~rank ~bins ~items =
  let rec place_from j =
    if j >= Array.length items then true
    else begin
      Obs.Metrics.incr c_attempts;
      Obs.Metrics.add c_bins (Array.length bins);
      let item = items.(j) in
      let best = ref (-1) and best_score = ref infinity in
      for b = 0 to Array.length bins - 1 do
        let bin = bins.(b) in
        if Bin.fits bin item then begin
          (* Smaller score = more preferred bin. *)
          let s =
            match rank with
            | By_load -> -.Bin.load_sum bin
            | By_remaining -> Bin.remaining_sum bin
          in
          if s < !best_score then begin
            best := b;
            best_score := s
          end
        end
      done;
      if !best >= 0 then begin
        Obs.Metrics.incr c_placed;
        Bin.place bins.(!best) item;
        place_from (j + 1)
      end
      else false
    end
  in
  place_from 0
