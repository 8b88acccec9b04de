(* Benchmark entry point:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   generates the workload's inputs from the seed, sets up (parse, pools,
   one warm-up op) several times, runs the workload's closed loop for
   about S seconds, checks every answer, and prints a readable report
   followed by one JSON result line. With --trace 0 the result holds the
   end-to-end metrics; with --trace 1 each op runs untraced and then with
   Obs.Metrics and Obs.Trace on, and the result holds the per-layer
   metrics; the trace is written under perfbench/out. *)

open Perfbench
module W = Workloads

let setup_reps = 5

let failed_outcome e =
  {
    W.trials = 0;
    successes = 0;
    yields = [];
    work = 0;
    answer = "exception";
    error = Some (Printexc.to_string e);
  }

(* One timed op: only the library call is inside the timed window and the
   op span; the answer check runs after. An exception is a failed op. *)
let run_op (op : W.op) =
  let t0 = Harness.now () in
  let check =
    try Ok (Obs.Trace.span ("op:" ^ op.kind) op.exec) with e -> Error e
  in
  let dt = Harness.now () -. t0 in
  let outcome =
    match check with
    | Ok check -> ( try check () with e -> failed_outcome e)
    | Error e -> failed_outcome e
  in
  (dt, outcome)

let parse text =
  Obs.Trace.span "parse" @@ fun () ->
  match Model.Codec.of_string text with
  | Ok inst -> inst
  | Error e -> failwith ("generated input does not parse: " ^ e)

(* Set up [setup_reps] times (parse every input, build pools and ops, one
   warm-up op), keeping the last state; returns the per-repetition times,
   raw and calibrated, and any warm-up failure. *)
let set_up (g : W.generated) =
  let times = Array.make setup_reps 0. in
  let calibrated = Array.make setup_reps 0. in
  let errors = ref [] in
  let state = ref None in
  for r = 0 to setup_reps - 1 do
    Option.iter (fun (s : W.state) -> s.close ()) !state;
    (* Free the previous repetition's inputs first, so the peak resident
       memory is that of one set-up, not of however many the collector
       had not yet reclaimed. *)
    state := None;
    Gc.full_major ();
    let before = Harness.kernel_s () in
    let t0 = Harness.now () in
    let s = g.build (Array.of_list (List.map parse g.texts)) in
    let _, warm = run_op s.ops.(0) in
    times.(r) <- Harness.now () -. t0;
    calibrated.(r) <-
      Harness.calibrated times.(r) ~kernel:((before +. Harness.kernel_s ()) /. 2.);
    Option.iter (fun e -> errors := ("warm-up: " ^ e) :: !errors) warm.error;
    state := Some s
  done;
  (Option.get !state, times, calibrated, List.rev !errors)

(* [dt] is the op's wall time, [cdt] the same calibrated
   ({!Harness.calibrated}). *)
type sample = { index : int; op : W.op; dt : float; cdt : float; out : W.outcome }

let timed index op =
  let dt, out = run_op op in
  { index; op; dt; cdt = dt; out }

(* Whole passes only, as many as fit in [seconds] at the workload's
   nominal pass time times [cost]: every run of a given length times the
   same ops the same number of times, whatever the speed of the machine or
   of the library, so the op mix and the tail's percentile never shift. *)
let passes (w : W.t) ~seconds ~cost =
  max 1 (Float.to_int (Float.round (seconds /. (cost *. w.pass_s))))

(* Apply [run] to the ops, [passes] times over; each result comes with
   the calibration kernel's time just before and just after it. *)
let loop (state : W.state) ~passes run =
  let results = ref [] in
  let before = ref (Harness.kernel_s ()) in
  for _ = 1 to passes do
    Array.iteri
      (fun index op ->
        let result = run index op in
        let after = Harness.kernel_s () in
        results := (result, !before, after) :: !results;
        before := after)
      state.ops
  done;
  List.rev !results

(* Each op is calibrated by the median of the kernel times taken within
   [calibration_window] ops of it: slow drifts in the machine's speed are
   followed, the kernel's own noise from one measurement to the next is
   not. *)
let calibration_window = 5

let calibrated_samples results =
  let results = Array.of_list results in
  let n = Array.length results in
  (* kernel.(i) was taken right before op i, kernel.(n) after the last. *)
  let kernel =
    Array.init (n + 1) (fun i ->
        if i < n then (fun (_, before, _) -> before) results.(i)
        else (fun (_, _, after) -> after) results.(n - 1))
  in
  Array.to_list
    (Array.mapi
       (fun i (s, _, _) ->
         let lo = max 0 (i - calibration_window) in
         let hi = min n (i + 1 + calibration_window) in
         let kernel = Harness.median (Array.sub kernel lo (hi - lo + 1)) in
         { s with cdt = Harness.calibrated s.dt ~kernel })
       results)

(* A traced op right after an untraced twin of it: their ratio is the
   telemetry cost, free of warm-up and of drift in the machine's speed. *)
let twin_and_traced index op =
  let twin = timed index op in
  Obs.Metrics.set_enabled true;
  Obs.Trace.start ();
  let traced = timed index op in
  Obs.Trace.stop ();
  Obs.Metrics.set_enabled false;
  (twin, traced)

(* Failures among [samples]: failed checks, and answers that differ from
   the reference answer of the same op. *)
let failures samples ~reference =
  List.filter_map
    (fun s ->
      match s.out.error with
      | Some e -> Some (Printf.sprintf "op %d (%s): %s" s.index s.op.kind e)
      | None ->
          if s.out.answer <> reference.(s.index) then
            Some (Printf.sprintf "op %d (%s): answer differs from its first answer"
                    s.index s.op.kind)
          else None)
    samples

let write_trace ~name ~seed =
  let out = Filename.concat "perfbench" "out" in
  (try Sys.mkdir out 0o755 with Sys_error _ -> ());
  let base = Filename.concat out (Printf.sprintf "%s-seed%d" name seed) in
  Obs.Trace.write (base ^ ".trace.json");
  Obs.Trace.write_folded (base ^ ".folded");
  Printf.printf "trace %s.trace.json\n" base

let main ~(w : W.t) ~seed ~seconds ~trace =
  let g = w.generate ~seed in
  Printf.printf "workload %s seed %d seconds %g trace %d\n" w.name seed seconds
    (if trace then 1 else 0);
  Printf.printf "input_digest %s\n" (W.digest g);
  if trace then Obs.Trace.start ();
  let state, setup_times, setup_calibrated, setup_errors = set_up g in
  Obs.Trace.stop ();
  let parse_s =
    match
      List.find_opt (fun (a : Obs.Trace.agg) -> a.label = "parse") (Obs.Trace.aggregate ())
    with
    | Some a -> a.total_us /. 1e6 /. float_of_int setup_reps
    | None -> 0.
  in
  Obs.Trace.reset ();
  (* Collect the garbage the earlier set-ups left, outside any timing. *)
  Gc.full_major ();
  let n = Array.length state.ops in
  let samples, pairs =
    if not trace then
      (calibrated_samples (loop state ~passes:(passes w ~seconds ~cost:1.) timed), [])
    else begin
      Obs.Metrics.reset ();
      let pairs = loop state ~passes:(passes w ~seconds ~cost:2.) twin_and_traced in
      ([], List.map (fun (pair, _, _) -> pair) pairs)
    end
  in
  let twins = List.map fst pairs and traced = List.map snd pairs in
  (* The reference answers: the untraced answers of the first pass. *)
  let firsts =
    Array.of_list (List.filteri (fun i _ -> i < n) (if trace then twins else samples))
  in
  let reference = Array.map (fun s -> s.out.answer) firsts in
  let failed_ops = failures (samples @ twins @ traced) ~reference in
  let after_errors =
    match state.after ~answers:reference with Ok () -> [] | Error e -> [ e ]
  in
  state.close ();
  Printf.printf "answer_digest %s\n" (Harness.digest (Array.to_list reference));
  List.iter
    (fun e -> Printf.printf "FAILED %s\n" e)
    (setup_errors @ failed_ops @ after_errors);
  let attempted = List.length samples + (2 * List.length pairs) in
  let failed = List.length failed_ops in
  let correct = setup_errors = [] && failed_ops = [] && after_errors = [] in
  let setup_s = Harness.median setup_calibrated in
  let metrics =
    if trace then begin
      let total l = List.fold_left (fun acc s -> acc +. s.dt) 0. l in
      let traced_over_untraced = Harness.ratio (total traced) (total twins) in
      let layers =
        Layers.metrics
          ~ops:(List.map (fun s -> (s.op, s.dt)) traced)
          ~domains:state.domains ~parse_s ~traced_over_untraced
      in
      write_trace ~name:w.name ~seed;
      layers
    end
    else begin
      (* Every timed op of every pass counts, calibrated. *)
      let times f = Array.of_list (List.map f samples) in
      let cdts = times (fun s -> s.cdt) in
      let tail = Harness.tail cdts in
      let first f = Array.fold_left (fun acc s -> acc + f s.out) 0 firsts in
      let yields =
        Array.of_list (List.concat_map (fun s -> s.out.yields) (Array.to_list firsts))
      in
      let p50 = Harness.median cdts in
      let work = List.fold_left (fun acc s -> acc + s.out.work) 0 samples in
      let throughput =
        Harness.ratio (float_of_int work) (Array.fold_left ( +. ) 0. cdts)
      in
      let success = Harness.ratio_i (first (fun o -> o.successes)) (first (fun o -> o.trials)) in
      let min_yield_mean =
        Harness.ratio (Array.fold_left ( +. ) 0. yields) (float_of_int (Array.length yields))
      in
      let kernel = Harness.median (Array.of_list (List.map (fun s -> s.dt /. s.cdt) samples)) in
      Printf.printf "calibration: kernel at %.2fx its nominal time; times below are calibrated, raw wall times in brackets\n"
        kernel;
      Printf.printf "setup_s %.6f [%.6f] (median of %d)\n" setup_s
        (Harness.median setup_times) setup_reps;
      Printf.printf "ops %d distinct, %d timed (%d passes, %.1f s)\n" n attempted
        (attempted / n)
        (Array.fold_left ( +. ) 0. (times (fun s -> s.dt)));
      Printf.printf "latency_p50_s %.6f [%.6f]\n" p50 (Harness.median (times (fun s -> s.dt)));
      Printf.printf "latency_tail_s %.6f at p%.1f of %d ops\n" tail.value tail.percentile
        tail.samples;
      Printf.printf "%s_per_s %.4f\n"
        (if w.work_unit = "events" then "sim_events" else "solves")
        throughput;
      Printf.printf "%s %.6f\n" w.success_name success;
      Printf.printf "min_yield_mean %.6f\n" min_yield_mean;
      Printf.printf "failed_frac %.6f (%d of %d)\n"
        (Harness.ratio_i failed attempted) failed attempted;
      [
        ("setup_s", "s", setup_s);
        ("latency_p50_s", "s", p50);
        ("latency_tail_s", "s", tail.value);
        ("throughput_per_s", "1/s", throughput);
        ("success_frac", "ratio", success);
        ("min_yield_mean", "ratio", min_yield_mean);
        ("peak_rss_mb", "MB", Harness.peak_rss_mb ());
      ]
    end
  in
  Harness.print_result ~correct ~attempted ~failed metrics

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let usage =
    Printf.sprintf "main.exe --workload {%s} --seed N --seconds S --trace 0|1"
      (String.concat "|" (List.map (fun (w : W.t) -> w.name) W.all))
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match W.find !workload with
  | Some w when (!trace = 0 || !trace = 1) && !seconds > 0. ->
      main ~w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
  | _ ->
      prerr_endline usage;
      exit 2
