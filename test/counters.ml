(* [with_snapshot f] runs [f] against freshly reset, enabled metric sinks
   and returns its result with the snapshot of what it recorded. The
   previous metric state is restored afterwards, so the rest of the suite
   keeps running under whatever VMALLOC_OBS selected. *)
let with_snapshot f =
  let was_enabled = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled false;
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ();
      Obs.Metrics.set_enabled was_enabled)
  @@ fun () ->
  let result = f () in
  Obs.Metrics.set_enabled false;
  (result, Obs.Metrics.snapshot ())

(* [with_metrics f] is [with_snapshot f] with a reader of the counters. *)
let with_metrics f =
  let result, snap = with_snapshot f in
  (result, fun name -> Obs.Metrics.Snapshot.counter_value snap name)
