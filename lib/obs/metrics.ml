(* The registry maps metric names to dense ids once, at handle-creation
   time; sinks are then plain int arrays indexed by id, so the enabled-path
   cost of an increment is one atomic load, one bounds check, and one array
   write — and the disabled path is the atomic load and branch alone. *)

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* --- registry ------------------------------------------------------- *)

type counter = int
type histogram = int

let reg_mutex = Mutex.create ()
let counter_names : string array ref = ref [||]
let counter_ids : (string, int) Hashtbl.t = Hashtbl.create 64
let hist_names : string array ref = ref [||]
let hist_ids : (string, int) Hashtbl.t = Hashtbl.create 16

let register names ids name =
  Mutex.lock reg_mutex;
  let id =
    match Hashtbl.find_opt ids name with
    | Some id -> id
    | None ->
        let id = Array.length !names in
        names := Array.append !names [| name |];
        Hashtbl.add ids name id;
        id
  in
  Mutex.unlock reg_mutex;
  id

let counter name = register counter_names counter_ids name
let histogram name = register hist_names hist_ids name

(* --- sinks ---------------------------------------------------------- *)

let n_buckets = 64

type hist_data = { buckets : int array; mutable count : int; mutable sum : int }

type sink = {
  mutable counts : int array;
  mutable hists : hist_data option array;
}

let empty_sink () = { counts = [||]; hists = [||] }

let grow a len =
  let b = Array.make len 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let hist_slot s h =
  if Array.length s.hists <= h then begin
    let b = Array.make (h + 4) None in
    Array.blit s.hists 0 b 0 (Array.length s.hists);
    s.hists <- b
  end;
  match s.hists.(h) with
  | Some d -> d
  | None ->
      let d = { buckets = Array.make n_buckets 0; count = 0; sum = 0 } in
      s.hists.(h) <- Some d;
      d

let merge_into ~dst ~src =
  Array.iteri
    (fun id n ->
      if n <> 0 then begin
        if Array.length dst.counts <= id then dst.counts <- grow dst.counts (id + 8);
        dst.counts.(id) <- dst.counts.(id) + n
      end)
    src.counts;
  Array.iteri
    (fun id d ->
      match d with
      | None -> ()
      | Some d when d.count = 0 -> ()
      | Some d ->
          let t = hist_slot dst id in
          Array.iteri (fun b n -> t.buckets.(b) <- t.buckets.(b) + n) d.buckets;
          t.count <- t.count + d.count;
          t.sum <- t.sum + d.sum)
    src.hists

(* Each domain records into its own sink, registered in [live] on the
   domain's first increment so that [snapshot] and [reset] reach it. When
   the domain exits, its sink is added into [retired] and dropped from
   [live] in one critical section, so a snapshot counts it exactly once
   and the registry holds one sink per live domain plus [retired]. Every
   merge is an integer sum, so neither the registration order nor which
   domain counted what can show in a snapshot. *)
let sinks_mutex = Mutex.create ()
let live : sink list ref = ref []
let retired = empty_sink ()

let retire s =
  Mutex.lock sinks_mutex;
  merge_into ~dst:retired ~src:s;
  live := List.filter (fun l -> l != s) !live;
  Mutex.unlock sinks_mutex

let sink_key =
  Domain.DLS.new_key (fun () ->
      let s = empty_sink () in
      Mutex.lock sinks_mutex;
      live := s :: !live;
      Mutex.unlock sinks_mutex;
      Domain.at_exit (fun () -> retire s);
      s)

let current () = Domain.DLS.get sink_key

let add c n =
  if Atomic.get enabled_flag then begin
    let s = current () in
    if Array.length s.counts <= c then s.counts <- grow s.counts (c + 8);
    s.counts.(c) <- s.counts.(c) + n
  end

let incr c = add c 1

let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and x = ref v in
    while !x > 0 do
      Stdlib.incr b;
      x := !x lsr 1
    done;
    min !b (n_buckets - 1)
  end

let observe h v =
  if Atomic.get enabled_flag then begin
    let d = hist_slot (current ()) h in
    let b = bucket_of v in
    d.buckets.(b) <- d.buckets.(b) + 1;
    d.count <- d.count + 1;
    d.sum <- d.sum + v
  end

(* --- snapshots ------------------------------------------------------ *)

module Snapshot = struct
  type hist_view = { h_count : int; h_sum : int; h_buckets : (int * int) list }
  (* buckets as (index, nonzero count) *)

  type t = {
    s_counters : (string * int) list; (* sorted by name, nonzero only *)
    s_hists : (string * hist_view) list; (* sorted by name, nonempty only *)
  }

  let counters t = t.s_counters

  let counter_value t name =
    match List.assoc_opt name t.s_counters with Some v -> v | None -> 0

  (* Bucket i > 0 covers values [2^(i-1), 2^i - 1]; bucket 0 covers <= 0. *)
  let bucket_label i =
    if i = 0 then "0"
    else
      let lo = 1 lsl (i - 1) and hi = (1 lsl i) - 1 in
      if lo = hi then string_of_int lo else Printf.sprintf "%d-%d" lo hi

  let render t =
    let buf = Buffer.create 1024 in
    List.iter
      (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "%s %d\n" name v))
      t.s_counters;
    List.iter
      (fun (name, h) ->
        Buffer.add_string buf
          (Printf.sprintf "%s count=%d sum=%d [%s]\n" name h.h_count h.h_sum
             (String.concat " "
                (List.map
                   (fun (i, n) -> Printf.sprintf "%s:%d" (bucket_label i) n)
                   h.h_buckets))))
      t.s_hists;
    Buffer.contents buf

  let to_json t =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\"counters\": {";
    List.iteri
      (fun i (name, v) ->
        if i > 0 then Buffer.add_string buf ", ";
        Buffer.add_string buf (Printf.sprintf "\"%s\": %d" (Json.escape name) v))
      t.s_counters;
    Buffer.add_string buf "}, \"histograms\": {";
    List.iteri
      (fun i (name, h) ->
        if i > 0 then Buffer.add_string buf ", ";
        Buffer.add_string buf
          (Printf.sprintf "\"%s\": {\"count\": %d, \"sum\": %d, \"buckets\": {"
             (Json.escape name) h.h_count h.h_sum);
        List.iteri
          (fun j (b, n) ->
            if j > 0 then Buffer.add_string buf ", ";
            Buffer.add_string buf
              (Printf.sprintf "\"%s\": %d" (bucket_label b) n))
          h.h_buckets;
        Buffer.add_string buf "}}")
      t.s_hists;
    Buffer.add_string buf "}}";
    Buffer.contents buf

  let equal a b = a = b
end

let snapshot () =
  let merged = empty_sink () in
  Mutex.lock sinks_mutex;
  List.iter (fun src -> merge_into ~dst:merged ~src) (retired :: !live);
  Mutex.unlock sinks_mutex;
  Mutex.lock reg_mutex;
  let c_names = Array.copy !counter_names in
  let h_names = Array.copy !hist_names in
  Mutex.unlock reg_mutex;
  let counters = ref [] in
  Array.iteri
    (fun id v -> if v <> 0 && id < Array.length c_names then
        counters := (c_names.(id), v) :: !counters)
    merged.counts;
  let hists = ref [] in
  Array.iteri
    (fun id d ->
      match d with
      | Some d when d.count > 0 && id < Array.length h_names ->
          let buckets = ref [] in
          for b = n_buckets - 1 downto 0 do
            if d.buckets.(b) <> 0 then buckets := (b, d.buckets.(b)) :: !buckets
          done;
          hists :=
            ( h_names.(id),
              {
                Snapshot.h_count = d.count;
                h_sum = d.sum;
                h_buckets = !buckets;
              } )
            :: !hists
      | _ -> ())
    merged.hists;
  let by_name (a, _) (b, _) = String.compare a b in
  {
    Snapshot.s_counters = List.sort by_name !counters;
    s_hists = List.sort by_name !hists;
  }

let reset () =
  Mutex.lock sinks_mutex;
  List.iter
    (fun s ->
      Array.fill s.counts 0 (Array.length s.counts) 0;
      Array.fill s.hists 0 (Array.length s.hists) None)
    (retired :: !live);
  Mutex.unlock sinks_mutex
