(* Deterministic fixed-interval time series. The container is dumb on
   purpose: producers (the simulator) decide what to sample and when; this
   module only guarantees that two timelines built from bitwise-equal
   samples serialize to byte-identical JSONL / Prometheus text. Every float
   is printed with one fixed format, so byte-identity of the output reduces
   to bitwise identity of the recorded values. *)

type t = {
  interval : float;
  cols : string array;
  mutable rows_rev : (float * float array) list;
  mutable n_rows : int;
}

let create ~interval ~cols =
  if interval <= 0. then invalid_arg "Timeline.create: interval";
  if Array.length cols = 0 then invalid_arg "Timeline.create: no columns";
  { interval; cols = Array.copy cols; rows_rev = []; n_rows = 0 }

let interval t = t.interval
let cols t = Array.copy t.cols
let length t = t.n_rows

let append t ~time values =
  if Array.length values <> Array.length t.cols then
    invalid_arg "Timeline.append: row width mismatch";
  t.rows_rev <- (time, Array.copy values) :: t.rows_rev;
  t.n_rows <- t.n_rows + 1

let rows t = List.rev t.rows_rev

(* One fixed float format everywhere. %.12g round-trips every value the
   gauges produce (small integers, rates, yields in [0,1]) and never
   prints platform-dependent digits for bitwise-equal inputs. *)
let fmt_float v = Printf.sprintf "%.12g" v

(* JSON has no token for NaN or the infinities — "%.12g nan" would produce
   a document every strict parser rejects. Non-finite samples (a gauge
   that divides by an empty interval, say) serialize as [null]; Obs.Json
   reads that back as [Null], whose [to_num] is [None]. The Prometheus
   text format has its own NaN/Inf spelling, so [to_prom] keeps the raw
   value. *)
let json_float v = if Float.is_finite v then fmt_float v else "null"

let to_jsonl t =
  let buf = Buffer.create 4096 in
  (* Self-describing header line, then one object per sample. *)
  Buffer.add_string buf
    (Printf.sprintf
       "{\"timeline\": {\"interval\": %s, \"samples\": %d, \"cols\": [%s]}}\n"
       (json_float t.interval) t.n_rows
       (String.concat ", "
          (Array.to_list
             (Array.map
                (fun c -> Printf.sprintf "\"%s\"" (Json.escape c))
                t.cols))));
  List.iter
    (fun (time, values) ->
      Buffer.add_string buf (Printf.sprintf "{\"t\": %s" (json_float time));
      Array.iteri
        (fun i v ->
          Buffer.add_string buf
            (Printf.sprintf ", \"%s\": %s" (Json.escape t.cols.(i))
               (json_float v)))
        values;
      Buffer.add_string buf "}\n")
    (rows t);
  Buffer.contents buf

(* Prometheus text exposition: one gauge family per column, one line per
   sample with the virtual time as the (millisecond) timestamp. Names are
   sanitized to the Prometheus charset and prefixed. *)
let prom_name col =
  let buf = Buffer.create (String.length col + 8) in
  Buffer.add_string buf "vmalloc_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char buf c
      | _ -> Buffer.add_char buf '_')
    col;
  Buffer.contents buf

let to_prom t =
  let buf = Buffer.create 4096 in
  let all = rows t in
  Array.iteri
    (fun i col ->
      let name = prom_name col in
      Buffer.add_string buf
        (Printf.sprintf "# HELP %s vmalloc sim-clock gauge %s\n" name
           (Json.escape col));
      Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n" name);
      List.iter
        (fun (time, values) ->
          Buffer.add_string buf
            (Printf.sprintf "%s %s %.0f\n" name (fmt_float values.(i))
               (time *. 1000.)))
        all)
    t.cols;
  Buffer.contents buf

let equal a b =
  a.interval = b.interval && a.cols = b.cols && rows a = rows b
