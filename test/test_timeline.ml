(* Timeline lock-down: the Obs.Timeline container's golden
   serializations, the sharded simulator's fixed-grid telemetry being
   byte-identical at VMALLOC_DOMAINS 1/2/4 for shard counts 1/2/4, and the
   always-on Lp.Pivot_clock. *)

(* ---- Obs.Timeline container ----------------------------------------- *)

let test_container () =
  Alcotest.check_raises "non-positive interval"
    (Invalid_argument "Timeline.create: interval") (fun () ->
      ignore (Obs.Timeline.create ~interval:0. ~cols:[| "x" |]));
  Alcotest.check_raises "empty columns"
    (Invalid_argument "Timeline.create: no columns") (fun () ->
      ignore (Obs.Timeline.create ~interval:1. ~cols:[||]));
  let t = Obs.Timeline.create ~interval:2.5 ~cols:[| "yield"; "n" |] in
  Alcotest.check_raises "row width mismatch"
    (Invalid_argument "Timeline.append: row width mismatch") (fun () ->
      Obs.Timeline.append t ~time:0. [| 1. |]);
  Obs.Timeline.append t ~time:0. [| 1.; 0. |];
  Obs.Timeline.append t ~time:2.5 [| 0.75; 3. |];
  Alcotest.(check int) "two rows" 2 (Obs.Timeline.length t);
  Alcotest.(check string) "JSONL golden"
    "{\"timeline\": {\"interval\": 2.5, \"samples\": 2, \"cols\": \
     [\"yield\", \"n\"]}}\n\
     {\"t\": 0, \"yield\": 1, \"n\": 0}\n\
     {\"t\": 2.5, \"yield\": 0.75, \"n\": 3}\n"
    (Obs.Timeline.to_jsonl t);
  Alcotest.(check string) "Prometheus golden"
    "# HELP vmalloc_yield vmalloc sim-clock gauge yield\n\
     # TYPE vmalloc_yield gauge\n\
     vmalloc_yield 1 0\n\
     vmalloc_yield 0.75 2500\n\
     # HELP vmalloc_n vmalloc sim-clock gauge n\n\
     # TYPE vmalloc_n gauge\n\
     vmalloc_n 0 0\n\
     vmalloc_n 3 2500\n"
    (Obs.Timeline.to_prom t);
  let t' = Obs.Timeline.create ~interval:2.5 ~cols:[| "yield"; "n" |] in
  Obs.Timeline.append t' ~time:0. [| 1.; 0. |];
  Alcotest.(check bool) "equal is structural" false (Obs.Timeline.equal t t');
  Obs.Timeline.append t' ~time:2.5 [| 0.75; 3. |];
  Alcotest.(check bool) "equal after same rows" true (Obs.Timeline.equal t t')

(* Non-finite samples: JSON has no NaN/Inf token, so the JSONL emitter
   must print null — and Obs.Json must read the line back, with the poisoned
   cells parsing as Null (to_num None) and finite neighbours intact. *)
let test_container_non_finite () =
  let t = Obs.Timeline.create ~interval:1. ~cols:[| "good"; "bad" |] in
  Obs.Timeline.append t ~time:0. [| 0.5; Float.nan |];
  Obs.Timeline.append t ~time:1. [| 0.25; Float.infinity |];
  Obs.Timeline.append t ~time:2. [| 0.125; Float.neg_infinity |];
  let jsonl = Obs.Timeline.to_jsonl t in
  let lines =
    String.split_on_char '\n' jsonl |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "header + three samples" 4 (List.length lines);
  List.iteri
    (fun i line ->
      match Obs.Json.parse line with
      | Error e -> Alcotest.failf "line %d must stay parseable: %s" i e
      | Ok doc ->
          if i > 0 then begin
            let num key =
              Option.bind (Obs.Json.member key doc) Obs.Json.to_num
            in
            Alcotest.(check (option (float 1e-12)))
              (Printf.sprintf "line %d: finite gauge round-trips" i)
              (Some (0.5 /. Float.of_int (1 lsl (i - 1))))
              (num "good");
            Alcotest.(check bool)
              (Printf.sprintf "line %d: non-finite gauge is Null" i)
              true
              (Obs.Json.member "bad" doc = Some Obs.Json.Null);
            Alcotest.(check (option (float 1e-12)))
              (Printf.sprintf "line %d: to_num Null is None" i)
              None (num "bad")
          end)
    lines;
  (* Chrome-trace events get the same guard on ts/dur. *)
  Obs.Trace.start ();
  Fun.protect ~finally:(fun () ->
      Obs.Trace.stop ();
      Obs.Trace.reset ())
  @@ fun () ->
  Obs.Trace.instant "probe";
  match Obs.Json.parse (Obs.Trace.to_json ()) with
  | Error e -> Alcotest.failf "trace JSON must parse: %s" e
  | Ok _ -> ()

(* ---- Sharded telemetry determinism ---------------------------------- *)

let platform hosts =
  Array.init hosts (fun id ->
      if id < hosts / 2 then
        Model.Node.make_cores ~id ~cores:4 ~cpu:0.4 ~mem:0.4
      else Model.Node.make_cores ~id ~cores:4 ~cpu:0.8 ~mem:0.8)

let probe_config () =
  let placement =
    match Simulator.Policy.of_string "greedy-random" with
    | Some p -> p
    | None -> Alcotest.fail "greedy-random policy missing"
  in
  {
    Simulator.Engine.default_config with
    horizon = 40.;
    memory_scale = 0.5;
    placement;
  }

let run_timeline ~domains ~shards =
  let config = probe_config () in
  let platform = platform 8 in
  let result =
    if domains > 1 && shards > 1 then
      Par.Pool.with_pool ~domains (fun pool ->
          Simulator.Sharded.run ~pool ~shards ~timeline_interval:5. config
            ~platform)
    else
      Simulator.Sharded.run ~shards ~timeline_interval:5. config ~platform
  in
  match result.Simulator.Sharded.timeline with
  | Some tl -> tl
  | None -> Alcotest.fail "timeline requested but absent"

(* Seed-0 simulate: the serialized timeline is byte-identical at 1/2/4
   domains for each shard count — the gauges are sampled on the sim
   clock and merged in shard order, never read from scheduler-dependent
   state. *)
let test_sharded_domain_invariant () =
  List.iter
    (fun shards ->
      let t1 = run_timeline ~domains:1 ~shards in
      let t2 = run_timeline ~domains:2 ~shards in
      let t4 = run_timeline ~domains:4 ~shards in
      let name fmt = Printf.sprintf fmt shards in
      Alcotest.(check int)
        (name "shards=%d: horizon/interval + 1 samples")
        9
        (Obs.Timeline.length t1);
      Alcotest.(check string)
        (name "shards=%d: JSONL 1 vs 2 domains")
        (Obs.Timeline.to_jsonl t1) (Obs.Timeline.to_jsonl t2);
      Alcotest.(check string)
        (name "shards=%d: JSONL 1 vs 4 domains")
        (Obs.Timeline.to_jsonl t1) (Obs.Timeline.to_jsonl t4);
      Alcotest.(check string)
        (name "shards=%d: Prometheus 1 vs 4 domains")
        (Obs.Timeline.to_prom t1) (Obs.Timeline.to_prom t4);
      (* The run does real work: some bins-touched rate is nonzero, and
         the grid carries live services. *)
      let rows = Obs.Timeline.rows t1 in
      let some_activity =
        List.exists (fun (_, v) -> v.(4) > 0. || v.(1) > 0.) rows
      in
      Alcotest.(check bool) (name "shards=%d: nonzero activity") true
        some_activity)
    [ 1; 2; 4 ]

(* ---- Lp.Pivot_clock -------------------------------------------------- *)

let test_pivot_clock () =
  let inst =
    Workload.Generator.generate
      ~rng:(Prng.Rng.create ~seed:7)
      {
        Workload.Generator.hosts = 4;
        services = 10;
        cov = 0.5;
        slack = 0.5;
        cpu_homogeneous = false;
        mem_homogeneous = false;
      }
  in
  let before = Lp.Pivot_clock.total () in
  ignore (Heuristics.Milp.relaxed_bound inst);
  let after = Lp.Pivot_clock.total () in
  Alcotest.(check bool) "solving an LP ticks the clock" true (after > before);
  (* The clock is always on — no Obs.Metrics flag involved. *)
  Alcotest.(check bool) "monotone" true (Lp.Pivot_clock.total () >= after)

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("container create/append/serialize", test_container);
      ("non-finite gauges emit null and round-trip",
       test_container_non_finite);
      ("sharded timeline identical at 1/2/4 domains x 1/2/4 shards",
       test_sharded_domain_invariant);
      ("pivot clock ticks on LP solves", test_pivot_clock);
    ]
