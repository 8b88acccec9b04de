type t = {
  size : int;
  mutable workers : unit Domain.t array;
  jobs : (unit -> unit) Queue.t;
  mutex : Mutex.t;
  nonempty : Condition.t;
  mutable closed : bool;
}

let worker_loop pool =
  let rec next () =
    Mutex.lock pool.mutex;
    let rec take () =
      match Queue.take_opt pool.jobs with
      | Some job -> Some job
      | None ->
          if pool.closed then None
          else begin
            Condition.wait pool.nonempty pool.mutex;
            take ()
          end
    in
    let job = take () in
    Mutex.unlock pool.mutex;
    match job with
    | None -> ()
    | Some job ->
        (* Jobs capture their own exceptions; this is only a backstop so a
           stray raise cannot kill the worker domain. *)
        (try job () with _ -> ());
        next ()
  in
  next ()

(* The pool whose [map] is currently executing a task on this domain, if
   any. A task that calls [map] on the same pool again would deadlock or
   starve (the inner map's helper jobs sit behind the outer map's in the
   one job queue, and the task itself occupies the claim loop), so the
   re-entry is detected here and raised as [Invalid_argument] instead of
   failing silently. Maps on a *different* pool from inside a task are
   fine — that pool's workers are separate domains — so the marker holds
   the pool's identity, not a bare flag. *)
let executing : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let check_not_nested pool =
  match Domain.DLS.get executing with
  | Some p when p == pool ->
      invalid_arg
        "Par.Pool.map: nested map on the same pool from inside a task \
         (documented as forbidden; use a second pool or restructure the \
         task)"
  | _ -> ()

let with_executing pool f =
  let saved = Domain.DLS.get executing in
  Domain.DLS.set executing (Some pool);
  Fun.protect ~finally:(fun () -> Domain.DLS.set executing saved) f

let shutdown pool =
  Mutex.lock pool.mutex;
  pool.closed <- true;
  Condition.broadcast pool.nonempty;
  Mutex.unlock pool.mutex;
  Array.iter Domain.join pool.workers;
  pool.workers <- [||]

(* The runtime caps the domains a process may run (128 on OCaml 5.1) and
   [Domain.spawn] fails past it. The workers spawned before the failure
   are joined here: left running, they would hold domain slots and make
   every later pool in the process fail too. *)
let create ~domains =
  let size = max 1 domains in
  let pool =
    {
      size;
      workers = [||];
      jobs = Queue.create ();
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      closed = false;
    }
  in
  let spawned = ref [] in
  (try
     for _ = 2 to size do
       spawned := Domain.spawn (fun () -> worker_loop pool) :: !spawned
     done
   with Failure msg ->
     let started = List.length !spawned in
     pool.workers <- Array.of_list !spawned;
     shutdown pool;
     invalid_arg
       (Printf.sprintf
          "Par.Pool.create: cannot run %d domains (%s after %d workers)"
          size msg started));
  pool.workers <- Array.of_list (List.rev !spawned);
  pool

let size pool = pool.size

let submit pool job =
  Mutex.lock pool.mutex;
  if not pool.closed then begin
    Queue.add job pool.jobs;
    Condition.signal pool.nonempty
  end;
  Mutex.unlock pool.mutex

let map pool arr f =
  check_not_nested pool;
  let n = Array.length arr in
  if pool.size = 1 || n <= 1 then with_executing pool (fun () -> Array.map f arr)
  else begin
    let results = Array.make n None in
    (* When metrics are live, each task runs against a fresh sink so that
       counts accumulated on worker domains can be folded back into the
       caller's sink in task-input order — the merged totals are then the
       sequential ones whatever the interleaving (the flag is sampled once
       so a mid-map toggle cannot half-wrap the round). *)
    let obs = Obs.Metrics.enabled () in
    let sinks = if obs then Array.make n None else [||] in
    let next = Atomic.make 0 in
    let completed = Atomic.make 0 in
    let errors = Array.make n None in
    let done_mutex = Mutex.create () in
    let done_cond = Condition.create () in
    (* Each participant claims indices from the shared counter until the
       array is exhausted; results and exceptions land at their input
       index, so neither the output nor the exception raised depends on
       the interleaving. Every index is processed even after a task
       raised — completion therefore always reaches [n], which keeps the
       wait below deadlock-free. *)
    let run_tasks () =
      with_executing pool @@ fun () ->
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          let task () =
            if obs then begin
              let s = Obs.Metrics.fresh_sink () in
              sinks.(i) <- Some s;
              Obs.Metrics.with_sink s (fun () -> f arr.(i))
            end
            else f arr.(i)
          in
          (match task () with
          | v -> results.(i) <- Some v
          | exception e -> errors.(i) <- Some e);
          let c = 1 + Atomic.fetch_and_add completed 1 in
          if c = n then begin
            Mutex.lock done_mutex;
            Condition.broadcast done_cond;
            Mutex.unlock done_mutex
          end;
          loop ()
        end
      in
      loop ()
    in
    let helpers = min (pool.size - 1) (n - 1) in
    for _ = 1 to helpers do
      submit pool run_tasks
    done;
    run_tasks ();
    (* The caller has run out of indices; wait for claims still in flight
       on the worker domains. Helper jobs that only get scheduled after
       this point find the counter exhausted and return immediately. *)
    Mutex.lock done_mutex;
    while Atomic.get completed < n do
      Condition.wait done_cond done_mutex
    done;
    Mutex.unlock done_mutex;
    (* The completion barrier above orders every task's sink, result and
       exception write before these reads; merging in input order makes
       the fold deterministic, and raising the lowest failing index is
       what the sequential [Array.map] would raise. *)
    if obs then
      Array.iter
        (function Some s -> Obs.Metrics.merge_into_current s | None -> ())
        sinks;
    Array.iter (function Some e -> raise e | None -> ()) errors;
    Array.map
      (function
        | Some v -> v
        | None -> assert false (* completed = n fills every slot *))
      results
  end

let with_pool ~domains f =
  let pool = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let domains_from_env () =
  match Sys.getenv_opt "VMALLOC_DOMAINS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some d when d >= 1 -> d
      | _ ->
          Printf.eprintf
            "warning: ignoring invalid VMALLOC_DOMAINS %S (want an int >= 1)\n%!"
            s;
          Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()
