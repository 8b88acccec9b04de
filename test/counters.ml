(* [with_metrics f] runs [f] against freshly reset, enabled metric sinks
   and returns its result with a reader of the counters it recorded. The
   previous metric state is restored afterwards, so the rest of the suite
   keeps running under whatever VMALLOC_OBS selected. *)
let with_metrics f =
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
  let snap = Obs.Metrics.snapshot () in
  (result, fun name -> Obs.Metrics.Snapshot.counter_value snap name)
