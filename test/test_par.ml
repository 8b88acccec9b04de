(* Tests for the deterministic worker pool (lib/par): Pool.map must agree
   with Array.map at every pool size, preserve order, propagate exceptions,
   and leave experiment drivers bit-for-bit reproducible. *)

let with_pool = Par.Pool.with_pool

let test_create_clamps () =
  with_pool ~domains:0 (fun pool ->
      Alcotest.(check int) "domains clamped to 1" 1 (Par.Pool.size pool))

let check_map_matches ~domains n =
  with_pool ~domains (fun pool ->
      let input = Array.init n (fun i -> i) in
      let f i = (i * 7919) mod 1009 in
      Alcotest.(check (array int))
        (Printf.sprintf "map = Array.map (n=%d, domains=%d)" n domains)
        (Array.map f input)
        (Par.Pool.map pool input f))

let test_map_matches_sequential () =
  List.iter
    (fun domains ->
      List.iter (fun n -> check_map_matches ~domains n) [ 0; 1; 2; 17; 1000 ])
    [ 1; 2; 4 ]

let test_map_preserves_order_under_skew () =
  (* Uneven task costs: early indices are slow, late ones instant. Results
     must still land at their input positions. *)
  with_pool ~domains:4 (fun pool ->
      let n = 64 in
      let input = Array.init n (fun i -> i) in
      let f i =
        if i < 4 then (
          let acc = ref 0 in
          for k = 0 to 200_000 do
            acc := (!acc + (k * i)) mod 65_537
          done;
          ignore !acc);
        i * 2
      in
      Alcotest.(check (array int)) "order preserved"
        (Array.map f input)
        (Par.Pool.map pool input f))

exception Boom of int

(* With two failing tasks the lowest index's exception wins, as in
   [Array.map], even when the higher index raises first: index 1 raises at
   once, index 0 waits for it (at most 50 ms) and only then raises. *)
let test_map_propagates_exception () =
  with_pool ~domains:2 (fun pool ->
      let input = Array.init 32 (fun i -> i) in
      Alcotest.check_raises "first failure re-raised" (Boom 5) (fun () ->
          ignore
            (Par.Pool.map pool input (fun i ->
                 if i = 5 then raise (Boom 5) else i))));
  List.iter
    (fun domains ->
      with_pool ~domains (fun pool ->
          let raised = Atomic.make false in
          let task i =
            if i = 1 then begin
              Atomic.set raised true;
              raise (Boom 1)
            end
            else begin
              let deadline = Unix.gettimeofday () +. 0.05 in
              while
                (not (Atomic.get raised)) && Unix.gettimeofday () < deadline
              do
                Domain.cpu_relax ()
              done;
              raise (Boom 0)
            end
          in
          Alcotest.check_raises
            (Printf.sprintf "lowest failing index re-raised (domains=%d)"
               domains)
            (Boom 0)
            (fun () -> ignore (Par.Pool.map pool [| 0; 1 |] task))))
    [ 1; 2; 4 ]

(* A task that maps on its own pool again would deadlock or starve (one
   job queue, and the task occupies the claim loop), so the re-entry must
   be rejected loudly — at every pool size, including the sequential
   short-circuit — and leave the pool usable. *)
let test_nested_map_same_pool_rejected () =
  List.iter
    (fun domains ->
      with_pool ~domains (fun pool ->
          let input = Array.init 8 (fun i -> i) in
          let rejected =
            try
              ignore
                (Par.Pool.map pool input (fun i ->
                     ignore (Par.Pool.map pool [| i; i + 1 |] succ);
                     i));
              false
            with Invalid_argument msg ->
              if not (String.starts_with ~prefix:"Par.Pool.map: nested" msg)
              then Alcotest.failf "unexpected message: %s" msg;
              true
          in
          Alcotest.(check bool)
            (Printf.sprintf "nested map rejected (domains=%d)" domains)
            true rejected;
          Alcotest.(check (array int)) "pool usable after rejection"
            (Array.map succ input)
            (Par.Pool.map pool input succ)))
    [ 1; 2; 4 ]

(* Maps on a *different* pool from inside a task are documented as fine:
   that pool's workers are separate domains, so the detection must key on
   pool identity, not a bare in-a-task flag. *)
let test_nested_map_different_pool_allowed () =
  with_pool ~domains:2 (fun outer ->
      with_pool ~domains:2 (fun inner ->
          let input = Array.init 8 (fun i -> i) in
          let f i =
            Array.fold_left ( + ) 0
              (Par.Pool.map inner [| i; 10 * i |] (fun x -> x * 3))
          in
          Alcotest.(check (array int)) "inner-pool map from a task"
            (Array.map (fun i -> 33 * i) input)
            (Par.Pool.map outer input f)))

let test_pool_reusable_after_error () =
  with_pool ~domains:2 (fun pool ->
      let input = Array.init 16 (fun i -> i) in
      (try ignore (Par.Pool.map pool input (fun _ -> failwith "boom"))
       with Failure _ -> ());
      Alcotest.(check (array int)) "pool still works"
        (Array.map succ input)
        (Par.Pool.map pool input succ))

(* The determinism contract end-to-end: a Table 1 mini-sweep must produce
   the exact same report — yields, not timings — at any pool size, because
   every trial's RNG stream is derived from its spec before dispatch. *)

let mini_scale =
  {
    Experiments.Scale.small with
    label = "mini";
    table1_hosts = 4;
    table1_services = [ 6 ];
    table1_covs = [ 0.5 ];
    table1_slacks = [ 0.5 ];
    table1_reps = 2;
  }

let test_table1_parallel_identical () =
  let report pool =
    Experiments.Table1.report_table1 (Experiments.Table1.run ?pool mini_scale)
  in
  let sequential = report None in
  List.iter
    (fun domains ->
      with_pool ~domains (fun pool ->
          Alcotest.(check string)
            (Printf.sprintf "table1 report identical at %d domains" domains)
            sequential
            (report (Some pool))))
    [ 2; 4 ]

let test_domains_from_env_default_positive () =
  (* Whatever the machine, the resolved default must be a usable size. *)
  Alcotest.(check bool) "positive" true (Par.Pool.domains_from_env () >= 1)

let test_domains_from_env_parsing () =
  (* Unix.putenv cannot truly unset, so "unset" is approximated by the
     empty string — int_of_string_opt rejects it exactly like a missing
     variable's branch resolves, to the recommended count. *)
  let saved = Sys.getenv_opt "VMALLOC_DOMAINS" in
  let restore () =
    Unix.putenv "VMALLOC_DOMAINS" (Option.value saved ~default:"")
  in
  Fun.protect ~finally:restore (fun () ->
      let default = Domain.recommended_domain_count () in
      List.iter
        (fun (v, expect, label) ->
          Unix.putenv "VMALLOC_DOMAINS" v;
          Alcotest.(check int) label expect (Par.Pool.domains_from_env ()))
        [
          ("3", 3, "valid positive parses");
          (" 7 ", 7, "surrounding whitespace trimmed");
          ("1", 1, "1 selects the legacy sequential path");
          ("", default, "empty falls back to the recommended count");
          ("soup", default, "garbage falls back to the recommended count");
          ("0", default, "zero is rejected (pools need >= 1 member)");
          ("-4", default, "negative is rejected");
        ])

let test_with_pool_shutdown_on_exception () =
  (* If with_pool leaked its worker domains when the body raises, this
     loop would pile up live domains and trip the runtime's Max_domains
     limit (128 by default) long before finishing; joining them in the
     cleanup keeps the count flat. *)
  for i = 1 to 200 do
    try with_pool ~domains:2 (fun _ -> raise (Boom i))
    with Boom j ->
      if i <> j then Alcotest.failf "exception mangled: Boom %d -> Boom %d" i j
  done

(* Past the runtime's domain cap (128 on OCaml 5.1) [create] must raise
   Invalid_argument and join the workers it did spawn: leaked, they would
   hold domain slots and make the next pool in the process fail too. *)
let test_create_past_domain_cap () =
  (match Par.Pool.create ~domains:1000 with
  | pool ->
      Par.Pool.shutdown pool;
      Alcotest.fail "1000 domains should exceed the runtime's cap"
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (Printf.sprintf "message names the count: %S" msg)
        true
        (String.starts_with
           ~prefix:"Par.Pool.create: cannot run 1000 domains" msg));
  check_map_matches ~domains:2 17

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("create clamps to >= 1 domain", test_create_clamps);
      ("map = Array.map at 1/2/4 domains", test_map_matches_sequential);
      ("map preserves order under skew", test_map_preserves_order_under_skew);
      ("map propagates exceptions", test_map_propagates_exception);
      ("nested map on the same pool rejected", test_nested_map_same_pool_rejected);
      ("nested map on a different pool allowed",
       test_nested_map_different_pool_allowed);
      ("pool reusable after an error", test_pool_reusable_after_error);
      ("Table 1 mini-sweep identical in parallel", test_table1_parallel_identical);
      ("domains_from_env is positive", test_domains_from_env_default_positive);
      ("domains_from_env parsing sweep", test_domains_from_env_parsing);
      ("with_pool joins workers on exception",
       test_with_pool_shutdown_on_exception);
      ("create past the domain cap cleans up", test_create_past_domain_cap);
    ]
