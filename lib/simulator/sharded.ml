type partition_policy = Contiguous | Capacity_balanced

type result = {
  merged : Engine.stats;
  per_shard : Engine.stats array;
  finals : Engine.final_service list array;
  timeline : Obs.Timeline.t option;
}

let timeline_cols =
  [|
    "yield_min";
    "active_services";
    "shard_imbalance";
    "repairs_per_t";
    "bins_touched_per_t";
    "pivots_per_t";
  |]

(* Same recipe as Experiments.Corpus.seed_of_spec: a stable Hashtbl.hash of
   the identifying tuple, so every shard's stream exists before dispatch
   and adding shards never perturbs other shards' streams. A single shard
   keeps the engine's exact stream for drop-in compatibility. *)
let shard_seed ~seed ~shard ~shards = Hashtbl.hash (seed, shard, shards)

let shard_rng ~seed ~shard ~shards =
  if shards = 1 then Prng.Rng.create ~seed
  else Prng.Rng.create ~seed:(shard_seed ~seed ~shard ~shards)

(* Scalar size of a node for balancing: the sum of its aggregate capacity
   components. Any fixed positive weighting would do — the partition only
   has to be deterministic and roughly even. *)
let node_capacity (n : Model.Node.t) =
  let agg = n.Model.Node.capacity.Vec.Epair.aggregate in
  let s = ref 0. in
  for d = 0 to Model.Node.dim n - 1 do
    s := !s +. Vec.Vector.get agg d
  done;
  !s

(* Node ids must be dense per instance (Instance.v), so re-id within the
   shard; capacities are shared immutably. Members are kept in ascending
   platform order inside each shard, which makes the one-shard
   capacity-balanced partition byte-identical to the contiguous one. *)
let reid platform members =
  Array.mapi
    (fun i p -> Model.Node.v ~id:i ~capacity:platform.(p).Model.Node.capacity)
    members

let split ~policy ~shards platform =
  let h = Array.length platform in
  if shards < 1 then invalid_arg "Sharded.run: shards must be positive";
  if shards > h then invalid_arg "Sharded.run: more shards than nodes";
  match policy with
  | Contiguous ->
      Array.init shards (fun s ->
          let lo = s * h / shards and hi = (s + 1) * h / shards in
          reid platform (Array.init (hi - lo) (fun i -> lo + i)))
  | Capacity_balanced ->
      (* LPT greedy: nodes by descending capacity (ties by index: the sort
         is stable over index order), each to the currently least-loaded
         shard (ties by lowest shard index). Classic list-scheduling bound:
         max and min shard capacity differ by at most one node's
         capacity. *)
      let cap = Array.map node_capacity platform in
      let order = Array.init h (fun i -> i) in
      Array.stable_sort (fun a b -> Float.compare cap.(b) cap.(a)) order;
      let totals = Array.make shards 0. in
      let members = Array.make shards [] in
      Array.iter
        (fun i ->
          let best = ref 0 in
          for s = 1 to shards - 1 do
            if totals.(s) < totals.(!best) then best := s
          done;
          totals.(!best) <- totals.(!best) +. cap.(i);
          members.(!best) <- i :: members.(!best))
        order;
      Array.map
        (fun lst -> reid platform (Array.of_list (List.sort compare lst)))
        members

let partition ?(policy = Contiguous) ~shards platform =
  split ~policy ~shards platform

(* Each shard owns every piece of mutable state it touches: its RNG stream,
   its node sub-array (fresh ids), and — for the adaptive mode — a fresh
   controller cloned from the caller's configuration. *)
let shard_config config =
  match config.Engine.threshold with
  | Engine.Fixed _ -> config
  | Engine.Adaptive c ->
      {
        config with
        Engine.threshold =
          Engine.Adaptive (Sharing.Adaptive_threshold.fresh c);
      }

(* Deterministic k-way merge of the per-shard event logs by
   (time, shard_index): at equal times the lower shard index wins, so the
   merged log — and the piecewise-constant integral of the global minimum
   yield computed during the same walk — is a pure function of the
   per-shard stats, independent of how the shards were scheduled. The
   float arithmetic below replays Engine.run's [advance_to] accumulation
   term-for-term, so a single-shard merge is bit-identical to the engine's
   own integral. *)
let merge ~horizon (per_shard : Engine.stats array) =
  let k = Array.length per_shard in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 per_shard in
  let heads =
    Array.map (fun (s : Engine.stats) -> ref s.Engine.yield_samples) per_shard
  in
  (* Every engine run starts at yield 1 and samples at t = 0, so the
     initial [current] values are placeholders consumed immediately. *)
  let current = Array.make k 1. in
  let global_min () = Array.fold_left Float.min current.(0) current in
  let integral = ref 0. in
  let last_time = ref 0. in
  let samples = ref [] in
  let next_shard () =
    let best = ref (-1) and best_time = ref infinity in
    Array.iteri
      (fun i head ->
        match !head with
        | [] -> ()
        | (t, _) :: _ ->
            if t < !best_time then begin
              best := i;
              best_time := t
            end)
      heads;
    !best
  in
  let rec walk () =
    match next_shard () with
    | -1 -> ()
    | s ->
        let time, y =
          match !(heads.(s)) with
          | sample :: rest ->
              heads.(s) := rest;
              sample
          | [] -> assert false
        in
        integral := !integral +. (global_min () *. (time -. !last_time));
        last_time := time;
        current.(s) <- y;
        samples := (time, global_min ()) :: !samples;
        walk ()
  in
  walk ();
  integral := !integral +. (global_min () *. (horizon -. !last_time));
  {
    Engine.arrivals = sum (fun s -> s.Engine.arrivals);
    admitted = sum (fun s -> s.Engine.admitted);
    rejected = sum (fun s -> s.Engine.rejected);
    departures = sum (fun s -> s.Engine.departures);
    reallocations = sum (fun s -> s.Engine.reallocations);
    failed_reallocations = sum (fun s -> s.Engine.failed_reallocations);
    migrations = sum (fun s -> s.Engine.migrations);
    mean_min_yield = !integral /. horizon;
    yield_samples = List.rev !samples;
    final_threshold =
      Array.fold_left
        (fun acc (s : Engine.stats) -> Float.max acc s.Engine.final_threshold)
        per_shard.(0).Engine.final_threshold per_shard;
  }

(* Per-grid-index fold of the per-shard sample sequences. Every shard runs
   the same config (same horizon, same interval), so each produces exactly
   the same grid: row i of every shard is the sample at t = i * interval.
   Gauges are combined pointwise (min / sum / imbalance); the cumulative
   counters are summed and differenced against the previous grid point to
   give rates per virtual-time unit. All arithmetic is a pure fold over
   the per-shard samples in shard order, so the result is byte-stable at
   any pool size. *)
let merge_timeline ~interval (per_shard : Engine.timeline_sample array array)
    =
  let k = Array.length per_shard in
  let n = Array.length per_shard.(0) in
  Array.iter
    (fun (s : Engine.timeline_sample array) ->
      if Array.length s <> n then
        invalid_arg "Sharded.run: shards disagree on the timeline grid")
    per_shard;
  let tl = Obs.Timeline.create ~interval ~cols:timeline_cols in
  let prev = ref (0, 0, 0) in
  for i = 0 to n - 1 do
    let ym = ref infinity and active = ref 0 and active_max = ref 0 in
    let repairs = ref 0 and bins = ref 0 and pivots = ref 0 in
    for s = 0 to k - 1 do
      let x = per_shard.(s).(i) in
      ym := Float.min !ym x.Engine.tl_yield;
      active := !active + x.Engine.tl_active;
      if x.Engine.tl_active > !active_max then active_max := x.Engine.tl_active;
      repairs := !repairs + x.Engine.tl_repairs;
      bins := !bins + x.Engine.tl_bins_touched;
      pivots := !pivots + x.Engine.tl_pivots
    done;
    let mean = float_of_int !active /. float_of_int k in
    let imbalance =
      if !active = 0 then 0.
      else (float_of_int !active_max -. mean) /. mean
    in
    let pr, pb, pp = !prev in
    let rate cum last = float_of_int (cum - last) /. interval in
    Obs.Timeline.append tl
      ~time:per_shard.(0).(i).Engine.tl_time
      [|
        !ym;
        float_of_int !active;
        imbalance;
        rate !repairs pr;
        rate !bins pb;
        rate !pivots pp;
      |];
    prev := (!repairs, !bins, !pivots)
  done;
  tl

let run ?pool ?(seed = 0) ?(partition = Contiguous) ?(incremental = true)
    ?timeline_interval ~shards config ~platform =
  let parts = split ~policy:partition ~shards platform in
  let indices = Array.init shards (fun s -> s) in
  (* Every shard's stream is derived up front, in shard order, outside the
     pool tasks — stream identity is a pure function of (seed, shard,
     shards), so hoisting changes no stream, but it keeps RNG construction
     out of the per-shard event loop and off the worker domains. *)
  let rngs = Array.init shards (fun s -> shard_rng ~seed ~shard:s ~shards) in
  let run_one s =
    Obs.Trace.span "shard" ~args:[ ("shard", string_of_int s) ] @@ fun () ->
    let finals = ref [] in
    let samples = ref [] in
    let timeline =
      Option.map
        (fun dt ->
          (dt, fun x -> samples := (x : Engine.timeline_sample) :: !samples))
        timeline_interval
    in
    let stats =
      Engine.run ~rng:rngs.(s) ~incremental
        ~final:(fun fs -> finals := fs)
        ?timeline (shard_config config) ~platform:parts.(s)
    in
    (stats, !finals, Array.of_list (List.rev !samples))
  in
  let results =
    match pool with
    | Some pool when shards > 1 -> Par.Pool.map pool indices run_one
    | _ -> Array.map run_one indices
  in
  let per_shard = Array.map (fun (s, _, _) -> s) results in
  let finals = Array.map (fun (_, f, _) -> f) results in
  let timeline =
    Option.map
      (fun dt ->
        merge_timeline ~interval:dt
          (Array.map (fun (_, _, t) -> t) results))
      timeline_interval
  in
  {
    merged = merge ~horizon:config.Engine.horizon per_shard;
    per_shard;
    finals;
    timeline;
  }
