type event = {
  name : string;
  ph : char; (* 'X' complete, 'i' instant *)
  ts : float; (* microseconds *)
  dur : float; (* microseconds; complete events only *)
  tid : int;
  args : (string * string) list;
}

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let start () = Atomic.set enabled_flag true
let stop () = Atomic.set enabled_flag false

let buf_mutex = Mutex.create ()
let events : event list ref = ref []

let reset () =
  Mutex.lock buf_mutex;
  events := [];
  Mutex.unlock buf_mutex

let record ev =
  Mutex.lock buf_mutex;
  events := ev :: !events;
  Mutex.unlock buf_mutex

let now_us () = Unix.gettimeofday () *. 1e6
let tid () = (Domain.self () :> int)

let span ?(args = []) name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let t0 = now_us () in
    Fun.protect
      ~finally:(fun () ->
        record
          { name; ph = 'X'; ts = t0; dur = now_us () -. t0; tid = tid (); args })
      f
  end

let instant ?(args = []) name =
  if Atomic.get enabled_flag then
    record { name; ph = 'i'; ts = now_us (); dur = 0.; tid = tid (); args }

let event_count () =
  Mutex.lock buf_mutex;
  let n = List.length !events in
  Mutex.unlock buf_mutex;
  n

(* Timestamps come from a monotonic clock and durations from subtraction,
   but a corrupted or hand-built event must not poison the whole trace
   file: JSON has no NaN/Inf token, so non-finite values emit [null]. *)
let json_us v = if Float.is_finite v then Printf.sprintf "%.3f" v else "null"

let event_to_json ev =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"name\": \"%s\", \"cat\": \"vmalloc\", \"ph\": \"%c\", \"ts\": \
        %s, "
       (Json.escape ev.name) ev.ph (json_us ev.ts));
  if ev.ph = 'X' then
    Buffer.add_string buf (Printf.sprintf "\"dur\": %s, " (json_us ev.dur));
  if ev.ph = 'i' then Buffer.add_string buf "\"s\": \"t\", ";
  Buffer.add_string buf
    (Printf.sprintf "\"pid\": 0, \"tid\": %d, \"args\": {" ev.tid);
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf
        (Printf.sprintf "\"%s\": \"%s\"" (Json.escape k) (Json.escape v)))
    ev.args;
  Buffer.add_string buf "}}";
  Buffer.contents buf

let to_json () =
  Mutex.lock buf_mutex;
  let evs = List.rev !events in
  Mutex.unlock buf_mutex;
  let evs = List.stable_sort (fun a b -> Float.compare a.ts b.ts) evs in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\": [\n";
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf "  ";
      Buffer.add_string buf (event_to_json ev))
    evs;
  Buffer.add_string buf "\n], \"displayTimeUnit\": \"ms\"}\n";
  Buffer.contents buf

let write path =
  let oc = open_out path in
  output_string oc (to_json ());
  close_out oc

(* ---- Span-tree folding ---------------------------------------------- *)

type agg = { label : string; calls : int; total_us : float; self_us : float }
type weight = Self_us | Calls

(* Rebuild the span forest from the flat buffer. Spans nest by interval
   containment within a tid: sorting by (tid, ts asc, dur desc, seq desc)
   puts every ancestor before its descendants — a parent starts no later
   and ends no earlier than its children, and at bitwise-identical
   intervals the parent holds the higher record sequence, because spans
   are recorded on exit (children before parents). A stack sweep that
   pops every span ending at or before the current start then recovers
   each span's ancestor path exactly. Returns
   [(seq, parent_seq, path_root_first, event)] per span; [parent_seq] is
   [-1] at a root. *)
let span_forest () =
  Mutex.lock buf_mutex;
  let evs = !events in
  Mutex.unlock buf_mutex;
  (* The buffer is most-recent-first: arr.(i) has record seq [n - 1 - i]. *)
  let arr = Array.of_list evs in
  let n = Array.length arr in
  let spans = ref [] in
  Array.iteri
    (fun i ev -> if ev.ph = 'X' then spans := (n - 1 - i, ev) :: !spans)
    arr;
  let sorted =
    List.sort
      (fun (sa, (a : event)) (sb, (b : event)) ->
        match compare a.tid b.tid with
        | 0 -> (
            match Float.compare a.ts b.ts with
            | 0 -> (
                match Float.compare b.dur a.dur with
                | 0 -> compare sb sa
                | c -> c)
            | c -> c)
        | c -> c)
      !spans
  in
  let out = ref [] in
  let stack = ref [] in
  let cur_tid = ref min_int in
  let ends (e : event) = e.ts +. e.dur in
  List.iter
    (fun (seq, ev) ->
      if ev.tid <> !cur_tid then begin
        cur_tid := ev.tid;
        stack := []
      end;
      let rec pop () =
        match !stack with
        | (_, top) :: rest when ends top <= ev.ts ->
            stack := rest;
            pop ()
        | _ -> ()
      in
      pop ();
      let parent = match !stack with [] -> -1 | (pseq, _) :: _ -> pseq in
      let path =
        List.rev_map (fun (_, (e : event)) -> e.name) !stack @ [ ev.name ]
      in
      out := (seq, parent, path, ev) :: !out;
      stack := (seq, ev) :: !stack)
    sorted;
  List.rev !out

(* Self time of a span instance: its duration minus its direct children's
   durations, clamped at zero (clock granularity can make children appear
   to cover slightly more than the parent). *)
let self_of forest =
  let child = Hashtbl.create 64 in
  List.iter
    (fun (_, parent, _, (ev : event)) ->
      if parent >= 0 then
        Hashtbl.replace child parent
          (Option.value ~default:0. (Hashtbl.find_opt child parent) +. ev.dur))
    forest;
  fun seq (ev : event) ->
    Float.max 0.
      (ev.dur -. Option.value ~default:0. (Hashtbl.find_opt child seq))

let aggregate () =
  let forest = span_forest () in
  let self = self_of forest in
  let by_label = Hashtbl.create 16 in
  List.iter
    (fun (seq, _, _, (ev : event)) ->
      let calls, total, selfs =
        Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt by_label ev.name)
      in
      Hashtbl.replace by_label ev.name
        (calls + 1, total +. ev.dur, selfs +. self seq ev))
    forest;
  Hashtbl.fold
    (fun label (calls, total_us, self_us) acc ->
      { label; calls; total_us; self_us } :: acc)
    by_label []
  |> List.sort (fun a b -> compare a.label b.label)

(* Frame names in folded output must not contain the separators the
   format reserves. *)
let folded_frame name =
  String.map
    (fun c -> match c with ';' | ' ' | '\n' -> '_' | _ -> c)
    name

let to_folded ?(weight = Self_us) () =
  let forest = span_forest () in
  let self = self_of forest in
  let acc = Hashtbl.create 64 in
  List.iter
    (fun (seq, _, path, (ev : event)) ->
      let key = String.concat ";" (List.map folded_frame path) in
      let w =
        match weight with Calls -> 1. | Self_us -> self seq ev
      in
      Hashtbl.replace acc key
        (Option.value ~default:0. (Hashtbl.find_opt acc key) +. w))
    forest;
  let lines = Hashtbl.fold (fun k v l -> (k, v) :: l) acc [] in
  let lines = List.sort (fun (a, _) (b, _) -> compare a b) lines in
  let buf = Buffer.create 1024 in
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%s %.0f\n" k v))
    lines;
  Buffer.contents buf

let write_folded ?weight path =
  let oc = open_out path in
  output_string oc (to_folded ?weight ());
  close_out oc
