type t = {
  quantile : float;
  window : int;
  min_threshold : float;
  max_threshold : float;
  samples : float array;  (* ring buffer of absolute errors *)
  mutable count : int;    (* total observations ever *)
  mutable current : float;
}

(* NaN fails every comparison, so each setting is checked for
   finiteness on its own before any range test. *)
let finite fn name x =
  if not (Float.is_finite x) then
    invalid_arg (Printf.sprintf "Adaptive_threshold.%s: non-finite %s" fn name)

let create ?(initial = 0.) ?(quantile = 90.) ?(window = 256)
    ?(min_threshold = 0.) ?(max_threshold = 0.5) () =
  finite "create" "quantile" quantile;
  finite "create" "initial" initial;
  finite "create" "min_threshold" min_threshold;
  finite "create" "max_threshold" max_threshold;
  if quantile < 0. || quantile > 100. then
    invalid_arg "Adaptive_threshold.create: quantile out of [0, 100]";
  if window <= 0 then
    invalid_arg "Adaptive_threshold.create: window must be positive";
  if max_threshold < min_threshold then
    invalid_arg "Adaptive_threshold.create: empty clamp range";
  {
    quantile;
    window;
    min_threshold;
    max_threshold;
    samples = Array.make window 0.;
    count = 0;
    current = Float.max min_threshold (Float.min max_threshold initial);
  }

let fresh t = { t with samples = Array.make t.window 0.; count = 0 }

let threshold t = t.current

let observations t = min t.count t.window

let recompute t =
  let n = observations t in
  if n > 0 then begin
    let xs = Array.sub t.samples 0 n in
    Array.sort Float.compare xs;
    (* Linear-interpolated quantile, as in Stats.Summary.percentile (not
       used directly to keep the sharing library free of the stats
       dependency). *)
    let value =
      if n = 1 then xs.(0)
      else begin
        let rank = t.quantile /. 100. *. float_of_int (n - 1) in
        let lo = int_of_float (Float.floor rank) in
        let hi = min (lo + 1) (n - 1) in
        let frac = rank -. float_of_int lo in
        ((1. -. frac) *. xs.(lo)) +. (frac *. xs.(hi))
      end
    in
    t.current <-
      Float.max t.min_threshold (Float.min t.max_threshold value)
  end

let observe t ~estimated ~actual =
  if Array.length estimated <> Array.length actual then
    invalid_arg "Adaptive_threshold.observe: length mismatch";
  Array.iter (finite "observe" "estimated") estimated;
  Array.iter (finite "observe" "actual") actual;
  Array.iteri
    (fun j e ->
      let gap = Float.abs (e -. actual.(j)) in
      t.samples.(t.count mod t.window) <- gap;
      t.count <- t.count + 1)
    estimated;
  recompute t
