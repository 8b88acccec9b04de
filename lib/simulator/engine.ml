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

type event = Arrival | Departure of Repair.resident | Reallocate

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
let c_node_evals = Obs.Metrics.counter "simulator.node_evals"
let c_repairs = Obs.Metrics.counter "simulator.repairs"
let c_repair_fallbacks = Obs.Metrics.counter "simulator.repair_fallbacks"
let c_bins_touched = Obs.Metrics.counter "simulator.bins_touched"
let h_epoch_yield = Obs.Metrics.histogram "simulator.epoch_min_yield_permille"
let h_realloc_services = Obs.Metrics.histogram "simulator.reallocation_services"

let max_error_limit = Float.max_float /. 2.

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
  check "max_error"
    (config.max_error >= 0. && config.max_error <= max_error_limit);
  positive "per_core_need" config.per_core_need;
  positive "memory_scale" config.memory_scale;
  (* An arrival's true CPU is [per_core_need] times at most
     [Google_trace.max_cores] cores, its estimate that plus an error of
     at most [max_error]: both must stay finite too. *)
  let max_cpu =
    config.per_core_need *. float_of_int Workload.Google_trace.max_cores
  in
  check "per_core_need" (Float.is_finite max_cpu);
  check "max_error" (Float.is_finite (max_cpu +. config.max_error));
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

(* A live service as the model layer sees it, under the given id, in the
   re-solve's instances. The estimated variant applies the current
   minimum threshold. *)
let service_of_live ~estimated ~threshold id (l : Repair.resident) =
  let cpu =
    if estimated then Float.max l.est_cpu threshold else l.true_cpu
  in
  Model.Service.make_2d ~id ~mem_req:l.memory
    ~cpu_need:(cpu /. float_of_int l.cores, cpu)
    ()

(* The live services as a model-layer instance, dense ids in [actives]
   order: their thresholded estimates, or with [~estimated:false] their
   true needs. *)
let live_instance ~platform ~estimated ~threshold actives =
  Model.Instance.v ~nodes:platform
    ~services:(Array.mapi (service_of_live ~estimated ~threshold) actives)

(* One node's residents as flat rows for [Model.Yield], refilled at each
   evaluation: slot k holds the k-th resident in ascending uid order, in
   [Model.Service.make_2d]'s layout. Requirement (0, memory), elementary
   and aggregate; need (cpu / cores, 0) elementary and (cpu, 0)
   aggregate, with cpu the true CPU in [true_rows] and the thresholded
   estimate in [est_rows]. The two share their requirement rows.

   Unlike [Model.Service.v], nothing here checks the values: they are
   finite and non-negative by construction, checked where they enter.
   Cores are 1 to [Google_trace.max_cores]; memory is [memory_scale]
   times a fraction in (0, 0.5]; true CPU is [per_core_need] times the
   cores; an estimate is the true CPU or at least 0.001, its error
   bounded by [max_error]; all of these finite by [validate]. A [Fixed]
   threshold is finite by [validate], an [Adaptive] one by
   [Sharing.Adaptive_threshold]'s own checks. *)
type node_rows = {
  true_rows : Model.Yield.rows;
  est_rows : Model.Yield.rows;
  slots : int array;  (** 0, 1, 2, ...: the id slice of [Model.Yield] *)
  bounds : float array;
  order : int array;
}

let node_rows n =
  let row () = Array.make (2 * n) 0. in
  let req_elem = row () and req_agg = row () in
  let rows () =
    { Model.Yield.dims = 2; req_elem; req_agg; need_elem = row ();
      need_agg = row () }
  in
  {
    true_rows = rows ();
    est_rows = rows ();
    slots = Array.init n Fun.id;
    bounds = Array.make n 0.;
    order = Array.make n 0;
  }

let write_need (r : Model.Yield.rows) k ~cores cpu =
  r.need_elem.((2 * k) + Model.Service.cpu_dim) <- cpu /. float_of_int cores;
  r.need_elem.((2 * k) + Model.Service.mem_dim) <- 0.;
  r.need_agg.((2 * k) + Model.Service.cpu_dim) <- cpu;
  r.need_agg.((2 * k) + Model.Service.mem_dim) <- 0.

let write_slot b k ~threshold (l : Repair.resident) =
  let req = b.true_rows in
  req.req_elem.((2 * k) + Model.Service.cpu_dim) <- 0.;
  req.req_elem.((2 * k) + Model.Service.mem_dim) <- l.memory;
  req.req_agg.((2 * k) + Model.Service.cpu_dim) <- 0.;
  req.req_agg.((2 * k) + Model.Service.mem_dim) <- l.memory;
  write_need b.true_rows k ~cores:l.cores l.true_cpu;
  write_need b.est_rows k ~cores:l.cores (Float.max l.est_cpu threshold)

let run ?rng ?(incremental = true) ?final ?timeline config ~platform =
  validate config ~platform;
  (match timeline with
  | Some (dt, _) when not (Float.is_finite dt && dt > 0.) ->
      invalid_arg "Engine.run: timeline interval must be finite and positive"
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
  (* [live] is the ground truth, keyed by uid; [store] holds the same
     services per node, derived from it. *)
  let live : (int, Repair.resident) Hashtbl.t = Hashtbl.create 64 in
  let store = Repair.create ~platform ~yield_gap:config.yield_gap in
  let queue = Event_queue.create () in
  let next_uid = ref 0 in
  let arrivals = ref 0 and admitted = ref 0 and rejected = ref 0 in
  let departures = ref 0 in
  let reallocations = ref 0 and failed_reallocations = ref 0 in
  let migrations = ref 0 in
  let yield_samples = ref [] in
  let yield_integral = ref 0. in
  let last_time = ref 0. in
  let current_yield = ref 1. in
  (* Per-node yield cache (DESIGN.md §13). [tree] holds each node's
     minimum actual yield when last evaluated, or a failure when its
     water-fill failed. An event marks the nodes whose residents it
     changed, a re-solve marks every node, and [record] re-evaluates only
     the marked ones. A node's value is a pure function of its residents
     in ascending-uid order and of the threshold, and the tree's minimum
     has the bits of a fold over every node (0 when some node's water-fill
     fails, as for the whole placement), so the cached minimum is bitwise
     the minimum a whole re-evaluation would give. *)
  let tree = Min_tree.create n_nodes in
  let dirty = Array.make n_nodes false in
  let dirty_nodes = ref [] in
  let all_dirty = ref true in
  let mark h =
    if not dirty.(h) then begin
      dirty.(h) <- true;
      dirty_nodes := h :: !dirty_nodes
    end
  in
  let mark_all () = all_dirty := true in
  (* The live services in ascending uid order, which is arrival order: the
     order the re-solve, [final] and the store's rebuild read them in. *)
  let by_uid () =
    let a = Array.of_seq (Hashtbl.to_seq_values live) in
    Array.sort (fun (x : Repair.resident) y -> Int.compare x.uid y.uid) a;
    a
  in
  let rebuild () = Repair.rebuild store (by_uid ()) in
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
  let buf = ref (node_rows 8) in
  let evaluate threshold h =
    Obs.Metrics.incr c_node_evals;
    let residents = Repair.residents store h in
    let len = List.length residents in
    if len > Array.length !buf.slots then buf := node_rows (2 * len);
    let b = !buf in
    List.iteri (fun k l -> write_slot b k ~threshold l) residents;
    Sharing.Runtime_eval.node_min_yield config.policy platform.(h)
      ~true_rows:b.true_rows ~estimated:b.est_rows ~ids:b.slots ~off:0 ~len
      ~bounds:b.bounds ~order:b.order
  in
  (* Events that changed no node's residents and no threshold (i.e.
     rejected arrivals, quiet epochs) cannot change the minimum yield, so
     [record] reuses the current value. *)
  let record ?(epoch = false) time =
    if not incremental then begin
      rebuild ();
      mark_all ()
    end;
    let y =
      if not (!all_dirty || !dirty_nodes <> []) then begin
        Obs.Metrics.incr c_reeval_skips;
        !current_yield
      end
      else begin
        let threshold = current_threshold () in
        if !all_dirty then Min_tree.set_all tree (evaluate threshold)
        else
          List.iter
            (fun h -> Min_tree.set tree h (evaluate threshold h))
            !dirty_nodes;
        List.iter (fun h -> dirty.(h) <- false) !dirty_nodes;
        dirty_nodes := [];
        all_dirty := false;
        Min_tree.min tree
      end
    in
    if epoch then
      Obs.Metrics.observe h_epoch_yield (int_of_float (y *. 1000.));
    current_yield := y;
    yield_samples := (time, y) :: !yield_samples
  in
  let reallocate () =
    incr reallocations;
    Obs.Metrics.incr c_reallocations;
    (* Even a re-solve that moves nothing marks every node, so
       [simulator.reeval_skips] keeps counting only rejected arrivals and
       quiet epochs of the probe policies. *)
    mark_all ();
    let n_live = Hashtbl.length live in
    if n_live > 0 then begin
      Obs.Metrics.observe h_realloc_services n_live;
      touch_bins n_nodes;
      Obs.Trace.span "reallocate"
        ~args:[ ("services", string_of_int n_live) ]
      @@ fun () ->
      let lives = by_uid () in
      let est_inst =
        live_instance ~platform ~estimated:true
          ~threshold:(current_threshold ()) lives
      in
      match config.algorithm.solve est_inst with
      | None -> incr failed_reallocations
      | Some sol ->
          Array.iteri
            (fun i (l : Repair.resident) ->
              if sol.placement.(i) <> l.node then begin
                incr migrations;
                Obs.Metrics.incr c_migrations
              end;
              l.node <- sol.placement.(i))
            lives;
          Repair.rebuild store lives;
          (* Close the adaptive feedback loop with what the run-time
             scheduler actually hands out under the new placement. *)
          match config.threshold with
          | Fixed _ -> ()
          | Adaptive controller -> (
              let true_instance =
                live_instance ~platform ~estimated:false ~threshold:0. lives
              in
              match
                Sharing.Runtime_eval.consumptions config.policy
                  ~true_instance ~estimated:est_inst sol.placement
              with
              | None -> ()
              | Some actual ->
                  let estimated =
                    Array.map (fun (l : Repair.resident) -> l.est_cpu) lives
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
  let maybe_fallback () =
    if Repair.healthy store then fallback_armed := true
    else if !fallback_armed then begin
      Obs.Metrics.incr c_repair_fallbacks;
      reallocate ();
      fallback_armed := Repair.healthy store
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
                tl_active = Hashtbl.length live;
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
                  Repair.uid = !next_uid;
                  cores = task.cores;
                  true_cpu;
                  est_cpu;
                  memory = config.memory_scale *. task.memory_fraction;
                  node = -1;
                }
              in
              incr next_uid;
              if not incremental then rebuild ();
              let placed, touched =
                Repair.choose store config.placement ~rng ~mem:l.memory
              in
              touch_bins touched;
              (match placed with
              | Some node ->
                  Hashtbl.replace live l.uid l;
                  Repair.add store ~node l;
                  mark node;
                  incr admitted;
                  Obs.Metrics.incr c_admitted;
                  let lifetime =
                    Prng.Rng.exponential rng
                      ~rate:(1. /. config.mean_lifetime)
                  in
                  if time +. lifetime <= config.horizon then
                    Event_queue.add queue ~time:(time +. lifetime)
                      (Departure l)
                  (* Services outliving the horizon simply never depart. *)
              | None ->
                  incr rejected;
                  Obs.Metrics.incr c_rejected);
              false
          | Departure l ->
              incr departures;
              Obs.Metrics.incr c_departures;
              Hashtbl.remove live l.uid;
              if incremental then Repair.remove store l else rebuild ();
              mark l.node;
              (match config.placement with
              | Policy.Resolve -> ()
              | Policy.Greedy_random | Policy.Best_fit ->
                  let moved, touched =
                    Repair.repair store ~target:l.node
                      ~budget:config.repair_budget
                      ~on_move:(fun from ->
                        mark from;
                        incr migrations;
                        Obs.Metrics.incr c_migrations)
                  in
                  touch_bins touched;
                  if moved > 0 then begin
                    Obs.Metrics.incr c_repairs;
                    incr repairs_n
                  end;
                  maybe_fallback ());
              false
          | Reallocate ->
              (match config.placement with
              | Policy.Resolve -> reallocate ()
              | Policy.Greedy_random | Policy.Best_fit ->
                  if not incremental then rebuild ();
                  maybe_fallback ());
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
           (fun (l : Repair.resident) ->
             {
               f_uid = l.uid;
               f_node = l.node;
               f_mem = l.memory;
               f_cpu = l.est_cpu;
             })
           (Array.to_list (by_uid ()))));
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
