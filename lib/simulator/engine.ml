type threshold_mode =
  | Fixed of float
  | Adaptive of Sharing.Adaptive_threshold.t

type config = {
  horizon : float;
  arrival_rate : float;
  mean_lifetime : float;
  reallocation_period : float;
  max_error : float;
  threshold : threshold_mode;
  policy : Sharing.Policy.t;
  algorithm : Heuristics.Algorithms.t;
  per_core_need : float;
  memory_scale : float;
  placement : Policy.t;
  repair_budget : int;
  yield_gap : float;
}

let default_config =
  {
    horizon = 100.;
    arrival_rate = 1.;
    mean_lifetime = 20.;
    reallocation_period = 5.;
    max_error = 0.;
    threshold = Fixed 0.;
    policy = Sharing.Policy.Alloc_weights;
    algorithm = Heuristics.Algorithms.metahvplight;
    per_core_need = 0.1;
    memory_scale = 0.4;
    placement = Policy.Resolve;
    repair_budget = 8;
    yield_gap = 0.15;
  }

type stats = {
  arrivals : int;
  admitted : int;
  rejected : int;
  departures : int;
  reallocations : int;
  failed_reallocations : int;
  migrations : int;
  mean_min_yield : float;
  yield_samples : (float * float) list;
  final_threshold : float;
}

(* A live service: true and estimated CPU needs plus the rigid memory
   requirement; [node] is its current host. *)
type live = {
  uid : int;
  cores : int;
  true_cpu : float;  (* aggregate true need *)
  est_cpu : float;   (* aggregate estimated need (before thresholding) *)
  memory : float;
  mutable node : int;
}

type event = Arrival | Departure of int (* uid *) | Reallocate

type final_service = { f_uid : int; f_node : int; f_mem : float; f_cpu : float }

(* One timeline grid-point sample. Work counters are cumulative since run
   start and deliberately independent of the Obs.Metrics enabled flag:
   they are plain ints on the engine's own domain, so a sample is a pure
   function of the event history — the determinism the timeline tests
   lock across domain and shard counts (DESIGN.md §14). *)
type timeline_sample = {
  tl_time : float;
  tl_yield : float;
  tl_active : int;
  tl_repairs : int;
  tl_bins_touched : int;
  tl_pivots : int;
}

(* Deterministic operation counters (Obs.Metrics never records wall-clock
   time; reallocation latency in wall-clock terms lives in the "reallocate"
   trace spans instead, with the deterministic work-size proxy — services
   re-placed — in [h_realloc_services]). *)
let c_arrivals = Obs.Metrics.counter "simulator.arrivals"
let c_admitted = Obs.Metrics.counter "simulator.admitted"
let c_rejected = Obs.Metrics.counter "simulator.rejected"
let c_departures = Obs.Metrics.counter "simulator.departures"
let c_reallocations = Obs.Metrics.counter "simulator.reallocations"
let c_migrations = Obs.Metrics.counter "simulator.migrations"
let c_reeval_skips = Obs.Metrics.counter "simulator.reeval_skips"
let c_repairs = Obs.Metrics.counter "simulator.repairs"
let c_repair_fallbacks = Obs.Metrics.counter "simulator.repair_fallbacks"
let c_bins_touched = Obs.Metrics.counter "simulator.bins_touched"
let h_epoch_yield = Obs.Metrics.histogram "simulator.epoch_min_yield_permille"
let h_realloc_services = Obs.Metrics.histogram "simulator.reallocation_services"

(* Every float check is written so that NaN fails it, and infinities are
   rejected explicitly: a non-finite horizon or rate otherwise runs
   forever or returns a plausible-looking empty run. *)
let validate config ~platform =
  let check field ok = if not ok then invalid_arg ("Engine.run: " ^ field) in
  let positive field v = check field (Float.is_finite v && v > 0.) in
  positive "horizon" config.horizon;
  positive "arrival_rate" config.arrival_rate;
  positive "mean_lifetime" config.mean_lifetime;
  positive "reallocation_period" config.reallocation_period;
  check "max_error" (Float.is_finite config.max_error && config.max_error >= 0.);
  positive "per_core_need" config.per_core_need;
  positive "memory_scale" config.memory_scale;
  check "repair_budget" (config.repair_budget >= 0);
  check "yield_gap" (config.yield_gap >= 0. && config.yield_gap < 1.);
  (match config.threshold with
  | Fixed t -> check "threshold" (Float.is_finite t)
  | Adaptive _ -> ());
  (* The admission path and [service_of_live] assume the 2-D (CPU, memory)
     layout of [Model.Service.make_2d]; reject anything else up front
     rather than silently misreading a capacity component. *)
  if Array.length platform = 0 then invalid_arg "Engine.run: empty platform";
  Array.iter
    (fun n ->
      if Model.Node.dim n <> 2 then
        invalid_arg "Engine.run: platform must be 2-D (CPU, memory)")
    platform

(* Dense-id service arrays for the model layer, in [actives] order. The
   estimated variant applies the current minimum threshold. *)
let service_of_live ~estimated ~threshold id (l : live) =
  let cpu =
    if estimated then Float.max l.est_cpu threshold else l.true_cpu
  in
  Model.Service.make_2d ~id ~mem_req:l.memory
    ~cpu_need:(cpu /. float_of_int l.cores, cpu)
    ()

let build_instances ~platform ~threshold (actives : live array) =
  let true_services =
    Array.mapi (service_of_live ~estimated:false ~threshold:0.) actives
  in
  let est_services =
    Array.mapi (service_of_live ~estimated:true ~threshold) actives
  in
  let placement = Array.map (fun l -> l.node) actives in
  ( actives,
    Model.Instance.v ~nodes:platform ~services:true_services,
    Model.Instance.v ~nodes:platform ~services:est_services,
    placement )

let run ?rng ?(incremental = true) ?final ?timeline config ~platform =
  validate config ~platform;
  (match timeline with
  | Some (dt, _) when dt <= 0. ->
      invalid_arg "Engine.run: timeline interval must be positive"
  | _ -> ());
  let rng = match rng with Some r -> r | None -> Prng.Rng.create ~seed:0 in
  let n_nodes = Array.length platform in
  (* Deterministic work counters for the timeline gauges — always on (an
     int add), unlike their Obs.Metrics twins. *)
  let repairs_n = ref 0 in
  let bins_n = ref 0 in
  let pivot_base = Lp.Pivot_clock.total () in
  let touch_bins n =
    Obs.Metrics.add c_bins_touched n;
    bins_n := !bins_n + n
  in
  (* Incremental bin state, only for the probe-based placement policies.
     The resolve path never consults it, keeping that path byte-identical
     to the pre-policy engine (locked by the golden seed-0 tests). *)
  let rstate =
    match config.placement with
    | Policy.Resolve -> None
    | Policy.Greedy_random | Policy.Best_fit ->
        Some (Repair.create ~platform ~yield_gap:config.yield_gap)
  in
  let queue = Event_queue.create () in
  let actives : live Active_set.t = Active_set.create () in
  let next_uid = ref 0 in
  let arrivals = ref 0 and admitted = ref 0 and rejected = ref 0 in
  let departures = ref 0 in
  let reallocations = ref 0 and failed_reallocations = ref 0 in
  let migrations = ref 0 in
  let yield_samples = ref [] in
  let yield_integral = ref 0. in
  let last_time = ref 0. in
  let current_yield = ref 1. in
  (* Events that neither changed the active set nor the placement nor the
     threshold (i.e. rejected arrivals) cannot change the minimum yield, so
     [record] reuses the cached value instead of rebuilding both instances
     and re-running the scheduler evaluation. *)
  let state_dirty = ref true in
  let current_threshold () =
    match config.threshold with
    | Fixed t -> t
    | Adaptive c -> Sharing.Adaptive_threshold.threshold c
  in
  (* Piecewise-constant integration of the minimum yield. *)
  let advance_to time =
    yield_integral := !yield_integral +. (!current_yield *. (time -. !last_time));
    last_time := time
  in
  let record ?(epoch = false) time =
    let y =
      if not !state_dirty then begin
        Obs.Metrics.incr c_reeval_skips;
        !current_yield
      end
      else if Active_set.is_empty actives then 1.
      else begin
        let _, true_inst, est_inst, placement =
          build_instances ~platform ~threshold:(current_threshold ())
            (Active_set.to_array actives)
        in
        match
          Sharing.Runtime_eval.actual_min_yield config.policy
            ~true_instance:true_inst ~estimated:est_inst placement
        with
        | Some y -> y
        | None -> 0.
      end
    in
    state_dirty := false;
    if epoch then
      Obs.Metrics.observe h_epoch_yield (int_of_float (y *. 1000.));
    current_yield := y;
    yield_samples := (time, y) :: !yield_samples
  in
  (* Memory-requirement admission: the feasible node with the fewest
     services (the zero-knowledge spread — arrivals carry no trusted CPU
     estimate yet, only the rigid requirement matters for admission). *)
  let admit (l : live) =
    let h_count = Array.length platform in
    let mem_load = Array.make h_count 0. in
    let count = Array.make h_count 0 in
    Active_set.iter actives (fun (a : live) ->
        mem_load.(a.node) <- mem_load.(a.node) +. a.memory;
        count.(a.node) <- count.(a.node) + 1);
    let best = ref (-1) in
    for h = 0 to h_count - 1 do
      let cap =
        Vec.Vector.get platform.(h).Model.Node.capacity.Vec.Epair.aggregate
          Model.Service.mem_dim
      in
      if
        mem_load.(h) +. l.memory <= cap +. 1e-9
        && (!best < 0 || count.(h) < count.(!best))
      then best := h
    done;
    touch_bins h_count;
    if !best >= 0 then begin
      l.node <- !best;
      true
    end
    else false
  in
  let entry_of_live (l : live) =
    { Repair.uid = l.uid; mem = l.memory; cpu = l.est_cpu }
  in
  (* Resynchronize the incremental bin state from the live ground truth.
     Because [Repair] always sums residents in ascending-uid order, this
     produces bitwise the same loads the incremental updates maintained —
     the invariant the differential tests exercise via [incremental:false],
     which rebuilds before every decision. *)
  let sync_repair r =
    Repair.rebuild r
      (Array.map
         (fun (l : live) -> (l.node, entry_of_live l))
         (Active_set.to_array actives))
  in
  let reallocate () =
    incr reallocations;
    Obs.Metrics.incr c_reallocations;
    if not (Active_set.is_empty actives) then begin
      let n_live = Active_set.length actives in
      Obs.Metrics.observe h_realloc_services n_live;
      touch_bins n_nodes;
      Obs.Trace.span "reallocate"
        ~args:[ ("services", string_of_int n_live) ]
      @@ fun () ->
      let lives, true_inst, est_inst, old_placement =
        build_instances ~platform ~threshold:(current_threshold ())
          (Active_set.to_array actives)
      in
      match config.algorithm.solve est_inst with
      | None -> incr failed_reallocations
      | Some sol ->
          Array.iteri
            (fun i (l : live) ->
              if sol.placement.(i) <> old_placement.(i) then begin
                incr migrations;
                Obs.Metrics.incr c_migrations
              end;
              l.node <- sol.placement.(i))
            lives;
          (* Close the adaptive feedback loop with what the run-time
             scheduler actually hands out under the new placement. *)
          match config.threshold with
          | Fixed _ -> ()
          | Adaptive controller -> (
              match
                Sharing.Runtime_eval.consumptions config.policy
                  ~true_instance:true_inst ~estimated:est_inst sol.placement
              with
              | None -> ()
              | Some actual ->
                  let estimated =
                    Array.map (fun (l : live) -> l.est_cpu) lives
                  in
                  Sharing.Adaptive_threshold.observe controller ~estimated
                    ~actual)
    end
  in
  (* Fallback arming: a full re-solve fires at most once per unhealthy
     episode. When even the re-solve cannot restore health (the instance is
     genuinely overloaded), the trigger disarms until health is next
     observed, so a burst of events does not re-solve per event. *)
  let fallback_armed = ref true in
  let maybe_fallback r =
    if Repair.healthy r then fallback_armed := true
    else if !fallback_armed then begin
      Obs.Metrics.incr c_repair_fallbacks;
      reallocate ();
      sync_repair r;
      state_dirty := true;
      fallback_armed := Repair.healthy r
    end
  in
  (* Seed the event queue. *)
  let schedule_arrival time =
    let gap = Prng.Rng.exponential rng ~rate:config.arrival_rate in
    let t = time +. gap in
    if t <= config.horizon then Event_queue.add queue ~time:t Arrival
  in
  schedule_arrival 0.;
  let rec schedule_reallocations t =
    if t <= config.horizon then begin
      Event_queue.add queue ~time:t Reallocate;
      schedule_reallocations (t +. config.reallocation_period)
    end
  in
  schedule_reallocations config.reallocation_period;
  record 0.;
  (* Timeline grid: gauges are sampled at virtual times k * interval,
     k = 0, 1, ... <= horizon. A grid point is emitted once every event at
     or before it has been processed (events exactly on the grid land in
     the sample), using the piecewise-constant state between events — the
     same convention as the yield integral. *)
  let tl_next = ref 0 in
  let tl_emit_until limit =
    match timeline with
    | None -> ()
    | Some (dt, emit) ->
        let rec go () =
          let t = float_of_int !tl_next *. dt in
          if t < limit && t <= config.horizon +. 1e-9 then begin
            emit
              {
                tl_time = t;
                tl_yield = !current_yield;
                tl_active = Active_set.length actives;
                tl_repairs = !repairs_n;
                tl_bins_touched = !bins_n;
                tl_pivots = Lp.Pivot_clock.total () - pivot_base;
              };
            incr tl_next;
            go ()
          end
        in
        go ()
  in
  (* Main loop. *)
  let rec loop () =
    match Event_queue.pop_min queue with
    | None -> ()
    | Some (time, event) ->
        tl_emit_until time;
        advance_to time;
        let epoch =
          match event with
          | Arrival ->
              incr arrivals;
              Obs.Metrics.incr c_arrivals;
              schedule_arrival time;
              let task = Workload.Google_trace.sample rng in
              let true_cpu =
                config.per_core_need
                *. float_of_int task.Workload.Google_trace.cores
              in
              let est_cpu =
                if config.max_error = 0. then true_cpu
                else
                  Float.max 0.001
                    (true_cpu
                    +. Prng.Rng.uniform_range rng (-.config.max_error)
                         config.max_error)
              in
              let l =
                {
                  uid = !next_uid;
                  cores = task.cores;
                  true_cpu;
                  est_cpu;
                  memory = config.memory_scale *. task.memory_fraction;
                  node = -1;
                }
              in
              incr next_uid;
              let placed =
                match rstate with
                | None -> if admit l then Some l.node else None
                | Some r ->
                    if not incremental then sync_repair r;
                    let chosen, touched =
                      Repair.choose r config.placement ~rng ~mem:l.memory
                    in
                    touch_bins touched;
                    chosen
              in
              (match placed with
              | Some node ->
                  l.node <- node;
                  incr admitted;
                  Obs.Metrics.incr c_admitted;
                  Active_set.append actives ~uid:l.uid l;
                  (match rstate with
                  | None -> ()
                  | Some r -> Repair.add r ~node (entry_of_live l));
                  state_dirty := true;
                  let lifetime =
                    Prng.Rng.exponential rng
                      ~rate:(1. /. config.mean_lifetime)
                  in
                  if time +. lifetime <= config.horizon then
                    Event_queue.add queue ~time:(time +. lifetime)
                      (Departure l.uid)
                  (* Services outliving the horizon simply never depart. *)
              | None ->
                  incr rejected;
                  Obs.Metrics.incr c_rejected);
              false
          | Departure uid ->
              incr departures;
              Obs.Metrics.incr c_departures;
              (match rstate with
              | None -> ignore (Active_set.remove actives ~uid)
              | Some r -> (
                  match Active_set.take actives ~uid with
                  | None -> ()
                  | Some l ->
                      if not incremental then sync_repair r;
                      Repair.remove r ~node:l.node ~uid;
                      let moved, touched =
                        Repair.repair r ~target:l.node
                          ~budget:config.repair_budget
                          ~on_move:(fun ~uid ~node ->
                            (match Active_set.find actives ~uid with
                            | Some (m : live) -> m.node <- node
                            | None -> ());
                            incr migrations;
                            Obs.Metrics.incr c_migrations)
                      in
                      touch_bins touched;
                      if moved > 0 then begin
                        Obs.Metrics.incr c_repairs;
                        incr repairs_n
                      end;
                      maybe_fallback r));
              state_dirty := true;
              false
          | Reallocate ->
              (match rstate with
              | None ->
                  reallocate ();
                  state_dirty := true
              | Some r ->
                  if not incremental then sync_repair r;
                  maybe_fallback r);
              true
        in
        record ~epoch time;
        loop ()
  in
  loop ();
  tl_emit_until infinity;
  advance_to config.horizon;
  (match final with
  | None -> ()
  | Some f ->
      f
        (List.map
           (fun (l : live) ->
             {
               f_uid = l.uid;
               f_node = l.node;
               f_mem = l.memory;
               f_cpu = l.est_cpu;
             })
           (Active_set.to_list actives)));
  {
    arrivals = !arrivals;
    admitted = !admitted;
    rejected = !rejected;
    departures = !departures;
    reallocations = !reallocations;
    failed_reallocations = !failed_reallocations;
    migrations = !migrations;
    mean_min_yield = !yield_integral /. config.horizon;
    yield_samples = List.rev !yield_samples;
    final_threshold = current_threshold ();
  }
