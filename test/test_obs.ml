(* lib/obs lock-down: the disabled path records nothing, enabled counters
   and histograms total correctly, snapshots summed over the per-domain
   sinks are byte-identical at any domain count (including a real Table 1
   sweep) and keep the counts of exited workers exactly once, the span
   tracer round-trips through its Chrome JSON export, and Obs.Json reads
   any text without raising and reads a snapshot back to its counter
   values. *)

(* Every test toggles the global flag, so save/restore it — the rest of
   the suite must keep running under whatever VMALLOC_OBS selected. *)
let with_enabled v f =
  let prev = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled v;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled prev) f

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_disabled_noop () =
  with_enabled false @@ fun () ->
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter "test.obs.disabled" in
  let h = Obs.Metrics.histogram "test.obs.disabled_hist" in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 41;
  Obs.Metrics.observe h 7;
  let snap = Obs.Metrics.snapshot () in
  Alcotest.(check int) "counter stayed zero" 0
    (Obs.Metrics.Snapshot.counter_value snap "test.obs.disabled");
  Alcotest.(check bool) "histogram stayed empty" false
    (contains (Obs.Metrics.Snapshot.render snap) "test.obs.disabled_hist")

let test_counters_and_histograms () =
  with_enabled true @@ fun () ->
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter "test.obs.counter" in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 41;
  let h = Obs.Metrics.histogram "test.obs.hist" in
  List.iter (Obs.Metrics.observe h) [ 0; 1; 2; 3; 900 ];
  let snap = Obs.Metrics.snapshot () in
  Alcotest.(check int) "counter total" 42
    (Obs.Metrics.Snapshot.counter_value snap "test.obs.counter");
  let rendered = Obs.Metrics.Snapshot.render snap in
  (* 0 -> bucket "0"; 1 -> "1"; 2,3 -> "2-3"; 900 -> "512-1023". *)
  Alcotest.(check bool) "histogram line" true
    (contains rendered "test.obs.hist count=5 sum=906 [0:1 1:1 2-3:2 512-1023:1]");
  let json = Obs.Metrics.Snapshot.to_json snap in
  Alcotest.(check bool) "counter in JSON" true
    (contains json "\"test.obs.counter\": 42");
  Alcotest.(check bool) "histogram in JSON" true
    (contains json "\"test.obs.hist\": {\"count\": 5, \"sum\": 906");
  Obs.Metrics.reset ();
  let snap' = Obs.Metrics.snapshot () in
  Alcotest.(check int) "reset zeroes the counter" 0
    (Obs.Metrics.Snapshot.counter_value snap' "test.obs.counter");
  Alcotest.(check bool) "reset empties the histogram" false
    (contains (Obs.Metrics.Snapshot.render snap') "test.obs.hist")

(* Each task counts into the sink of the domain that runs it, and a
   snapshot sums every domain's sink; sums cannot depend on which domain
   counted what, so the snapshot is byte-identical whatever the pool size. *)
let test_pool_merge_domain_invariant () =
  with_enabled true @@ fun () ->
  let c = Obs.Metrics.counter "test.obs.pool" in
  let h = Obs.Metrics.histogram "test.obs.pool_hist" in
  let work i =
    Obs.Metrics.add c (i + 1);
    Obs.Metrics.observe h i;
    i
  in
  let run domains =
    Obs.Metrics.reset ();
    Par.Pool.with_pool ~domains (fun pool ->
        ignore (Par.Pool.map pool (Array.init 20 Fun.id) work));
    let snap = Obs.Metrics.snapshot () in
    ( Obs.Metrics.Snapshot.render snap,
      Obs.Metrics.Snapshot.counter_value snap "test.obs.pool" )
  in
  let r1, total1 = run 1 in
  let r2, total2 = run 2 in
  let r4, total4 = run 4 in
  (* 1 + 2 + ... + 20 *)
  Alcotest.(check int) "total at 1 domain" 210 total1;
  Alcotest.(check int) "total at 2 domains" 210 total2;
  Alcotest.(check int) "total at 4 domains" 210 total4;
  Alcotest.(check string) "render: 1 vs 2 domains" r1 r2;
  Alcotest.(check string) "render: 1 vs 4 domains" r1 r4

(* The acceptance criterion end-to-end: a (tiny) Table 1 sweep with metrics
   on produces byte-identical merged counter snapshots at VMALLOC_DOMAINS
   1, 2, and 4. Every instrumented layer fires here — binary search,
   vp_solver, packing, greedy, the trial counter. *)
let test_table1_snapshot_domain_invariant () =
  with_enabled true @@ fun () ->
  let scale =
    {
      Experiments.Scale.small with
      table1_hosts = 4;
      table1_services = [ 6 ];
      table1_covs = [ 0.5 ];
      table1_slacks = [ 0.4 ];
      table1_reps = 2;
    }
  in
  let run domains =
    Obs.Metrics.reset ();
    (if domains = 1 then ignore (Experiments.Table1.run scale)
     else
       Par.Pool.with_pool ~domains (fun pool ->
           ignore (Experiments.Table1.run ~pool scale)));
    let snap = Obs.Metrics.snapshot () in
    ( Obs.Metrics.Snapshot.render snap,
      Obs.Metrics.Snapshot.counter_value snap "experiments.table1.trials" )
  in
  let r1, trials1 = run 1 in
  let r2, trials2 = run 2 in
  let r4, trials4 = run 4 in
  (* 2 instances x 5 major algorithms. *)
  Alcotest.(check int) "trials counted (1 domain)" 10 trials1;
  Alcotest.(check int) "trials counted (2 domains)" 10 trials2;
  Alcotest.(check int) "trials counted (4 domains)" 10 trials4;
  Alcotest.(check bool) "solver layers fired" true
    (contains r1 "binary_search.rounds" && contains r1 "packing.placements"
    && contains r1 "greedy.candidate_evals");
  Alcotest.(check string) "snapshot: 1 vs 2 domains" r1 r2;
  Alcotest.(check string) "snapshot: 1 vs 4 domains" r1 r4

let test_trace_spans () =
  Obs.Trace.stop ();
  Obs.Trace.reset ();
  (* Disabled: span runs the thunk, records nothing. *)
  Alcotest.(check int) "disabled span passes through" 7
    (Obs.Trace.span "dark" (fun () -> 7));
  Alcotest.(check int) "nothing captured while disabled" 0
    (Obs.Trace.event_count ());
  Obs.Trace.start ();
  Fun.protect ~finally:(fun () ->
      Obs.Trace.stop ();
      Obs.Trace.reset ())
  @@ fun () ->
  let v =
    Obs.Trace.span "outer" ~args:[ ("k", "v") ] (fun () ->
        Obs.Trace.instant "mark";
        Obs.Trace.span "inner" (fun () -> 42))
  in
  Alcotest.(check int) "span returns its thunk's value" 42 v;
  (* Spans record on exceptions too. *)
  (try Obs.Trace.span "boom" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check int) "outer + instant + inner + boom" 4
    (Obs.Trace.event_count ());
  let json = Obs.Trace.to_json () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "JSON has %s" needle) true
        (contains json needle))
    [
      "\"traceEvents\"";
      "\"displayTimeUnit\": \"ms\"";
      "\"name\": \"outer\"";
      "\"ph\": \"X\"";
      "\"ph\": \"i\"";
      "\"k\": \"v\"";
    ]

(* Busy-wait until the µs wall clock ticks, so every span that wraps it
   has a strictly positive duration — what the interval-nesting fold
   relies on to separate parents from the children recorded at (almost)
   the same instant. *)
let spin () =
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () <= t0 do () done

let with_trace f =
  Obs.Trace.stop ();
  Obs.Trace.reset ();
  Obs.Trace.start ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.stop ();
      Obs.Trace.reset ())
    f

let find_agg label aggs =
  match
    List.find_opt (fun (a : Obs.Trace.agg) -> a.label = label) aggs
  with
  | Some a -> a
  | None -> Alcotest.failf "no aggregate for span %S" label

(* Self time is the span's duration minus its direct children's: with one
   parent over two leaf children the arithmetic is exact, and leaves keep
   self = total. *)
let test_trace_self_time () =
  with_trace @@ fun () ->
  Obs.Trace.span "outer" (fun () ->
      Obs.Trace.span "a" spin;
      Obs.Trace.span "b" spin;
      spin ());
  let aggs = Obs.Trace.aggregate () in
  let outer = find_agg "outer" aggs in
  let a = find_agg "a" aggs in
  let b = find_agg "b" aggs in
  Alcotest.(check int) "one outer call" 1 outer.calls;
  Alcotest.(check bool) "all durations positive" true
    (outer.total_us > 0. && a.total_us > 0. && b.total_us > 0.);
  Alcotest.(check bool) "children fit inside the parent" true
    (outer.total_us >= a.total_us +. b.total_us);
  Alcotest.(check (float 1e-6)) "outer self = total - children"
    (outer.total_us -. a.total_us -. b.total_us)
    outer.self_us;
  Alcotest.(check (float 1e-9)) "leaf self = leaf total" a.total_us a.self_us;
  Alcotest.(check string) "folded call stacks"
    "outer 1\nouter;a 1\nouter;b 1\n"
    (Obs.Trace.to_folded ~weight:Obs.Trace.Calls ())

let test_trace_nesting () =
  with_trace @@ fun () ->
  Obs.Trace.span "l1" (fun () ->
      Obs.Trace.span "l2" (fun () -> Obs.Trace.span "l3" spin);
      Obs.Trace.span "l2" (fun () -> Obs.Trace.span "l3" spin));
  Alcotest.(check string) "three-level folded stacks"
    "l1 1\nl1;l2 2\nl1;l2;l3 2\n"
    (Obs.Trace.to_folded ~weight:Obs.Trace.Calls ());
  let aggs = Obs.Trace.aggregate () in
  Alcotest.(check int) "l2 called twice" 2 (find_agg "l2" aggs).calls;
  Alcotest.(check int) "l3 called twice" 2 (find_agg "l3" aggs).calls;
  (* The Self_us folding covers the same stacks with timing weights. *)
  let timed = Obs.Trace.to_folded () in
  List.iter
    (fun prefix ->
      Alcotest.(check bool) (prefix ^ " present") true
        (contains timed prefix))
    [ "l1 "; "l1;l2 "; "l1;l2;l3 " ]

(* Call-weighted folded stacks are a pure function of the span-nesting
   structure, so a fan-out whose per-task span tree is fixed produces
   byte-identical output at any pool size — the tids differ, the folded
   stacks don't. *)
let test_trace_folded_pool_invariant () =
  let run domains =
    with_trace @@ fun () ->
    Par.Pool.with_pool ~domains (fun pool ->
        ignore
          (Par.Pool.map pool (Array.init 8 Fun.id) (fun i ->
               Obs.Trace.span "task" (fun () ->
                   Obs.Trace.span "sub" spin;
                   i))));
    Obs.Trace.to_folded ~weight:Obs.Trace.Calls ()
  in
  let f1 = run 1 in
  let f2 = run 2 in
  let f4 = run 4 in
  Alcotest.(check string) "expected stacks" "task 8\ntask;sub 8\n" f1;
  Alcotest.(check string) "folded: 1 vs 2 domains" f1 f2;
  Alcotest.(check string) "folded: 1 vs 4 domains" f1 f4

(* A worker domain counts into its own sink, which its exit folds into
   the retired total. Twenty pools' worth of counts must survive their
   workers exactly once, and [reset] must zero the retired total too. The
   task that holds index 0 waits until a task has run on another domain,
   so every cycle's worker counts something. *)
let test_worker_sinks_survive_shutdown () =
  with_enabled true @@ fun () ->
  let c = Obs.Metrics.counter "test.obs.retired" in
  let h = Obs.Metrics.histogram "test.obs.retired_hist" in
  let cycle () =
    let caller = Domain.self () in
    let off_caller = Atomic.make 0 in
    Par.Pool.with_pool ~domains:2 (fun pool ->
        ignore
          (Par.Pool.map pool (Array.init 20 Fun.id) (fun i ->
               if Domain.self () <> caller then Atomic.incr off_caller;
               let t0 = Unix.gettimeofday () in
               while
                 i = 0
                 && Atomic.get off_caller = 0
                 && Unix.gettimeofday () -. t0 < 5.
               do
                 Domain.cpu_relax ()
               done;
               Obs.Metrics.add c (i + 1);
               Obs.Metrics.observe h i)));
    Alcotest.(check bool) "the worker ran a task" true
      (Atomic.get off_caller > 0)
  in
  let read () =
    let snap = Obs.Metrics.snapshot () in
    ( Obs.Metrics.Snapshot.counter_value snap "test.obs.retired",
      List.find_opt
        (fun l -> contains l "test.obs.retired_hist")
        (String.split_on_char '\n' (Obs.Metrics.Snapshot.render snap)) )
  in
  Obs.Metrics.reset ();
  for _ = 1 to 20 do
    cycle ()
  done;
  (* Per cycle: 1 + 2 + ... + 20 = 210, and 0 + 1 + ... + 19 = 190. *)
  Alcotest.(check (pair int (option string))) "20 pools"
    ( 20 * 210,
      Some
        "test.obs.retired_hist count=400 sum=3800 [0:20 1:20 2-3:40 4-7:80 \
         8-15:160 16-31:80]" )
    (read ());
  Obs.Metrics.reset ();
  Alcotest.(check (pair int (option string))) "reset" (0, None) (read ());
  cycle ();
  Alcotest.(check (pair int (option string))) "one more pool"
    ( 210,
      Some
        "test.obs.retired_hist count=20 sum=190 [0:1 1:1 2-3:2 4-7:4 8-15:8 \
         16-31:4]" )
    (read ())

(* ---- Obs.Json totality and snapshot round-trip ------------------------ *)

(* Fixed test counters (the registry is global and never shrinks), two of
   them with names that need JSON escapes. *)
let json_counters =
  Array.map Obs.Metrics.counter
    [| "test.json.a"; "test.json.b"; "test.json \"quoted\"";
       "test.json back\\slash"; "test.json.e" |]

let json_hist = Obs.Metrics.histogram "test.json.hist"

(* A snapshot holding exactly the given counter increments plus a few
   histogram observations. *)
let snapshot_of adds =
  with_enabled true @@ fun () ->
  Obs.Metrics.reset ();
  List.iteri
    (fun i n ->
      Obs.Metrics.add json_counters.(i mod Array.length json_counters) n;
      Obs.Metrics.observe json_hist n)
    adds;
  let snap = Obs.Metrics.snapshot () in
  Obs.Metrics.reset ();
  snap

let gen_adds = QCheck2.Gen.(list_size (int_range 0 8) (int_range 0 1_000_000))

let parses_or_errors text =
  match Obs.Json.parse text with Ok _ | Error _ -> true

(* Random text made of JSON's own tokens and fragments reaches the
   parser's inner states (strings, escapes, numbers, literals, nesting,
   each cut short); arbitrary bytes cover the rest. *)
let gen_json_soup =
  QCheck2.Gen.(
    map (String.concat "")
      (list_size (int_range 0 30)
         (oneof
            [
              oneofl
                [ "{"; "}"; "["; "]"; ","; ":"; " "; "\""; "\\"; "\\u";
                  "\\u00"; "\\n"; "true"; "fals"; "null"; "-"; "0"; "1.5";
                  "e+"; "E" ];
              map (String.make 1) char;
            ])))

let prop_json_total =
  QCheck2.Test.make ~name:"json parser is total on arbitrary text" ~count:1000
    gen_json_soup parses_or_errors

(* Every prefix and every one-byte mutation of a real snapshot export. *)
let prop_json_total_on_damaged_snapshots =
  QCheck2.Test.make ~name:"json parser is total on damaged snapshots"
    ~count:300
    QCheck2.Gen.(triple gen_adds (int_range 0 10_000) char)
    (fun (adds, cut, c) ->
      let full = Obs.Metrics.Snapshot.to_json (snapshot_of adds) in
      let n = String.length full in
      let mutated = Bytes.of_string full in
      Bytes.set mutated (cut mod n) c;
      parses_or_errors (String.sub full 0 (cut mod (n + 1)))
      && parses_or_errors (Bytes.to_string mutated))

let prop_snapshot_json_roundtrip =
  QCheck2.Test.make ~name:"snapshot JSON parses back to its counters"
    ~count:200 gen_adds (fun adds ->
      let snap = snapshot_of adds in
      match Obs.Json.parse (Obs.Metrics.Snapshot.to_json snap) with
      | Error e -> QCheck2.Test.fail_reportf "export does not parse: %s" e
      | Ok doc ->
          let parsed =
            match Obs.Json.member "counters" doc with
            | Some (Obs.Json.Obj items) ->
                List.map (fun (k, v) -> (k, Obs.Json.to_num v)) items
            | _ -> []
          in
          parsed
          = List.map
              (fun (k, v) -> (k, Some (Float.of_int v)))
              (Obs.Metrics.Snapshot.counters snap))

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("disabled sinks record nothing", test_disabled_noop);
      ("counters, histograms, reset", test_counters_and_histograms);
      ("Pool.map merge is domain-count invariant",
       test_pool_merge_domain_invariant);
      ("Table 1 sweep snapshot identical at 1/2/4 domains",
       test_table1_snapshot_domain_invariant);
      ("trace spans and Chrome JSON export", test_trace_spans);
      ("trace self-time arithmetic", test_trace_self_time);
      ("trace span nesting and folded stacks", test_trace_nesting);
      ("folded stacks identical at 1/2/4 domains",
       test_trace_folded_pool_invariant);
      ("worker sinks survive pool shutdown exactly once",
       test_worker_sinks_survive_shutdown);
    ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_json_total; prop_json_total_on_damaged_snapshots;
        prop_snapshot_json_roundtrip ]
