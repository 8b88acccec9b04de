(* The benchmark's four workloads. Each is a closed loop with one client:
   an op list built from the seed is run op after op, the next op starting
   when the previous one returns. The library only ever sees the generated
   instances and platforms, parsed from their text form. *)

module A = Heuristics.Algorithms

type outcome = {
  trials : int;  (** solves, or simulated arrivals *)
  successes : int;  (** solves that returned a placement, or admissions *)
  yields : float list;
      (** min yield of each returned placement, or a simulation's
          time-averaged global minimum yield *)
  work : int;  (** throughput units: solves, or simulated events *)
  answer : string;  (** canonical answer text, equal iff answers are equal *)
  error : string option;  (** the first failed answer check *)
}

type op = {
  kind : string;  (** span label of the op *)
  exec : unit -> unit -> outcome;
      (** the timed library call; the closure it returns checks the answer
          outside the timed window *)
  searches : int;  (** yield-search solves in the op *)
  greedy : int;  (** METAGREEDY solves *)
  lp : int;  (** solves that go through the LP layer *)
  milp : int;  (** branch-and-bound solves *)
  batches : int;  (** scheduler batches *)
}

type state = {
  ops : op array;  (** one pass over the workload *)
  domains : int;  (** domains of the pool the ops run on *)
  after : answers:string array -> (unit, string) result;
      (** check run after the timed loop, given each op's first answer *)
  close : unit -> unit;
}

type generated = {
  texts : string list;  (** serialized instances, parsed during set-up *)
  params : string;  (** every other input the ops depend on *)
  build : Model.Instance.t array -> state;
}

type t = {
  name : string;
  work_unit : string;  (** what [work] counts *)
  success_name : string;  (** what [successes / trials] is called *)
  pass_s : float;
      (** wall time of one untraced pass over the ops on a 2-vCPU cloud
          guest; a run makes as many whole passes as fit in its seconds *)
  generate : seed:int -> generated;
}

let no_after ~answers:_ = Ok ()

(* Pool size of batch-tenants and online-sharded. On a 2-vCPU guest whose
   host takes a vCPU away for tens of seconds at a time, 2-domain runs
   measured 2-3x apart from one run to the next (steal near 50%); a
   1-domain run does not depend on getting both vCPUs. *)
let pool_domains = 1

(* Digest of everything the ops depend on: two runs that print the same
   digest used identical inputs, whatever commit they ran on. *)
let digest g = Harness.digest (g.params :: g.texts)

let instance ~seed ~hosts ~services ~cov ~slack =
  Workload.Generator.generate ~rng:(Prng.Rng.create ~seed)
    { Workload.Generator.default with hosts; services; cov; slack }

(* Per-workload input stream: the same seed gives every workload a
   different, reproducible stream. *)
let input_rng ~name ~seed = Prng.Rng.create ~seed:(Hashtbl.hash (name, seed))
let draw_seed rng = Prng.Rng.int rng 0x3FFFFFFF

(* The paper's axes: cov in 0.0..1.0 and slack in 0.1..0.9, step 0.1. *)
let draw_cov rng = float_of_int (Prng.Rng.int rng 11) /. 10.
let draw_slack rng = float_of_int (1 + Prng.Rng.int rng 9) /. 10.

(* [xs] reordered so that runs of similar ops are spread over the whole
   pass: position j takes element (j * k) mod n, with k the integer nearest
   n / golden ratio that is coprime to n. A slow spell of the machine then
   hits a few ops of every kind rather than every op of one kind. The
   first element stays first. *)
let spread xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let rec coprime k = if gcd n k = 1 then k else coprime (k + 1) in
  let k = coprime (max 1 (Float.to_int (Float.round (float_of_int n /. 1.618034)))) in
  List.init n (fun j -> a.(j * k mod n))

let solve_outcome inst sol =
  {
    trials = 1;
    successes = (if Option.is_some sol then 1 else 0);
    yields =
      (match sol with
      | Some (s : Heuristics.Vp_solver.solution) -> [ s.min_yield ]
      | None -> []);
    work = 1;
    answer = Harness.answer_text sol;
    error =
      (match sol with
      | None -> None
      | Some s -> Result.fold ~ok:(fun () -> None) ~error:Option.some
                    (Harness.check_solution inst s));
  }

let solve_op ?(searches = 0) ?(greedy = 0) ?(lp = 0) ?(milp = 0) kind
    (algo : A.t) inst =
  {
    kind;
    searches;
    greedy;
    lp;
    milp;
    batches = 0;
    exec =
      (fun () ->
        let sol = algo.solve inst in
        fun () -> solve_outcome inst sol);
  }

let sequential_state ops =
  { ops = Array.of_list ops; domains = 1; after = no_after; close = ignore }

(* offline-paper — Table 2 at the paper's scale: nearly all of its time is
   spent in packing probes, so it isolates lib/packing and lib/heuristics
   and is the no-change control for lib/par and lib/lp.

   Op: one sequential Algorithms.solve call with no pool (the CLI default
   --domains 1) on a 64-host instance with 100, 250 or 500 services, by
   METAGREEDY, METAVP or METAHVPLIGHT, or METAHVP at 100 services only.
   Every op has its own instance, drawn from the seed at a fixed (cov,
   slack) cell of the paper's axes, so each run has the same mix of op
   kinds. Fast "no placement" answers are part of the mix: at 100
   services slack 0.2 and 0.3 are always infeasible and slack 0.8 and
   0.9 always feasible, so the share of infeasible instances does not
   swing from seed to seed. One pass takes about 24 s, so a 24 s run
   times each op once. The counts per cell place the median op among the
   METAHVP solves proving infeasibility, and the tail op (the 11th
   slowest) among the 16 feasible METAHVP solves at 100 services and the
   3 METAHVPLIGHT solves at 250, under the two 500-service yield
   searches: both sit inside a group of similar ops, not on a gap between
   op kinds. *)
let offline_ops =
  spread
  @@
  let cells services cells algos =
    List.concat_map
      (fun (cov, slack) ->
        List.concat_map
          (fun (algo, reps) -> List.init reps (fun _ -> (services, cov, slack, algo)))
          algos)
      cells
  in
  let g = A.metagreedy and vp = A.metavp and hl = A.metahvplight and h = A.metahvp in
  cells 100 [ (0.5, 0.8); (0.9, 0.9) ] [ (g, 3); (vp, 3); (hl, 2); (h, 8) ]
  @ cells 100 [ (0.2, 0.3); (0.7, 0.2) ] [ (g, 4); (vp, 4); (hl, 4); (h, 8) ]
  @ cells 250 [ (0.1, 0.6) ] [ (g, 3); (vp, 3); (hl, 3) ]
  @ cells 500 [ (0.5, 0.5) ] [ (g, 6); (vp, 1); (hl, 1) ]

let offline_paper =
  {
    name = "offline-paper";
    work_unit = "solves";
    success_name = "solved_frac";
    pass_s = 24.;
    generate =
      (fun ~seed ->
        let rng = input_rng ~name:"offline-paper" ~seed in
        let texts =
          List.map
            (fun (services, cov, slack, _) ->
              Model.Codec.to_string
                (instance ~seed:(draw_seed rng) ~hosts:64 ~services ~cov ~slack))
            offline_ops
        in
        {
          texts;
          params =
            String.concat " "
              (List.map (fun (_, _, _, (a : A.t)) -> a.name) offline_ops);
          build =
            (fun insts ->
              sequential_state
                (List.mapi
                   (fun i (services, _, _, (algo : A.t)) ->
                     let greedy, searches =
                       match algo.kind with
                       | A.Direct -> (1, 0)
                       | A.Yield_search _ -> (0, 1)
                     in
                     solve_op ~greedy ~searches
                       (Printf.sprintf "%s/%d" algo.name services)
                       algo insts.(i))
                   offline_ops));
        });
  }

(* batch-tenants — `solve --batch` traffic, where lib/par does the most
   work: scheduler rounds, interleaving of the tenants' probes, and reuse
   of a finished tenant's packing scratch by later tenants of the same
   shape. Standalone solves in offline-paper never do any of this.

   Op: one Heuristics.Batch.solve_batch call with 16 tenants, run by one
   Par.Scheduler over a pool of [pool_domains]. Tenants have the Table-1
   shape, 10 hosts x 40 services, cov and slack drawn from the seed;
   every fourth is a METAGREEDY "direct" job, the rest METAHVPLIGHT. One
   pass over the 30 batches takes about 10 s, so a 24 s run times each
   batch twice. *)
let batch_count = 30
let tenants = 16
let batch_algo i = if i mod 4 = 3 then A.metagreedy else A.metahvplight

let batch_outcome jobs sols =
  let outs =
    Array.map2
      (fun (j : Heuristics.Batch.job) sol -> solve_outcome j.instance sol)
      jobs sols
  in
  let sum f = Array.fold_left (fun acc o -> acc + f o) 0 outs in
  {
    trials = sum (fun o -> o.trials);
    successes = sum (fun o -> o.successes);
    yields = List.concat_map (fun o -> o.yields) (Array.to_list outs);
    work = sum (fun o -> o.work);
    answer = String.concat ";" (Array.to_list (Array.map (fun o -> o.answer) outs));
    error = Array.fold_left (fun acc o -> if acc = None then o.error else acc) None outs;
  }

let batch_tenants =
  {
    name = "batch-tenants";
    work_unit = "solves";
    success_name = "solved_frac";
    pass_s = 10.;
    generate =
      (fun ~seed ->
        let rng = input_rng ~name:"batch-tenants" ~seed in
        let texts =
          List.init (batch_count * tenants) (fun _ ->
              let seed = draw_seed rng in
              let cov = draw_cov rng in
              let slack = draw_slack rng in
              Model.Codec.to_string
                (instance ~seed ~hosts:10 ~services:40 ~cov ~slack))
        in
        {
          texts;
          params =
            Printf.sprintf
              "16 tenants of 10x40; METAGREEDY every fourth, else \
               METAHVPLIGHT; %d domains"
              pool_domains;
          build =
            (fun insts ->
              let pool = Par.Pool.create ~domains:pool_domains in
              let sched = Par.Scheduler.create ~pool in
              let jobs b =
                Array.init tenants (fun i ->
                    { Heuristics.Batch.algo = batch_algo i;
                      instance = insts.((b * tenants) + i) })
              in
              let op b =
                let jobs = jobs b in
                let greedy = tenants / 4 in
                {
                  kind = "batch";
                  searches = tenants - greedy;
                  greedy;
                  lp = 0;
                  milp = 0;
                  batches = 1;
                  exec =
                    (fun () ->
                      let sols = Heuristics.Batch.solve_batch ~sched jobs in
                      fun () -> batch_outcome jobs sols);
                }
              in
              (* The first batch must equal its tenants solved one by one;
                 run after the timed loop, off the pool. *)
              let after ~answers =
                let jobs = jobs 0 in
                let sequential =
                  batch_outcome jobs
                    (Array.map
                       (fun (j : Heuristics.Batch.job) -> j.algo.solve j.instance)
                       jobs)
                in
                if sequential.answer = answers.(0) then Ok ()
                else Error "first batch differs from its tenants solved one by one"
              in
              {
                ops = Array.init batch_count op;
                domains = pool_domains;
                after;
                close = (fun () -> Par.Pool.shutdown pool);
              });
        });
  }

(* lp-rounding — the only callers of lib/lp, each op kind using it
   differently (a cold solve, warm re-solves, branch-and-bound children),
   so an LP change that helps one kind and hurts another shows.

   Op: one sequential solve of one of three kinds: RRNZ (one cold LP
   maximization, then rounding), RRNZ-PROBED (warm-started LP yield
   probes, then rounding) or the exact MILP (branch-and-bound). Every op
   has its own instance, drawn from the seed at each of 9 fixed (cov,
   slack) cells, five times per cell for each RRNZ kind (10 hosts x 40
   services) and eight times for the MILP (4 hosts x 6 services). One
   pass takes about 24 s, so a 24 s run times each op once. *)
let lp_ops =
  spread
  @@
  let rrnz = ("rrnz", A.rrnz ~seed:0) and probed = ("rrnz-probed", A.rrnz_probed ~seed:0) in
  let milp = ("milp", A.exact_milp ()) in
  List.concat_map
    (fun slack ->
      List.concat_map
        (fun cov ->
          List.map
            (fun kind -> (cov, slack, kind))
            (List.concat
               (List.init 5 (fun i ->
                    [ rrnz; probed ] @ if i < 4 then [ milp; milp ] else []))))
        [ 0.2; 0.5; 0.8 ])
    [ 0.5; 0.7; 0.9 ]

let lp_rounding =
  {
    name = "lp-rounding";
    work_unit = "solves";
    success_name = "solved_frac";
    pass_s = 24.;
    generate =
      (fun ~seed ->
        let rng = input_rng ~name:"lp-rounding" ~seed in
        let texts =
          List.map
            (fun (cov, slack, (kind, _)) ->
              let seed = draw_seed rng in
              let hosts, services = if kind = "milp" then (4, 6) else (10, 40) in
              Model.Codec.to_string (instance ~seed ~hosts ~services ~cov ~slack))
            lp_ops
        in
        {
          texts;
          params = "rounding seed 0; MILP default node limit";
          build =
            (fun insts ->
              sequential_state
                (List.mapi
                   (fun i (_, _, (kind, algo)) ->
                     let milp = if kind = "milp" then 1 else 0 in
                     solve_op ~lp:1 ~milp kind algo insts.(i))
                   lp_ops));
        });
  }

(* online-sharded — lib/simulator's per-event path, which no other
   workload reaches, with the pool running 4 coarse shard tasks instead of
   many small ones.

   Op: one Simulator.Sharded.run call. Platform: 1000 generated quad-core
   hosts, half with 0.4 CPU and memory and half with 0.8 (the platform of
   `vmalloc simulate`), split into 4 shards balanced by capacity and run
   on a pool of [pool_domains]. Traffic: Poisson arrivals of Google-trace services
   with +-0.08 error in their CPU estimates, a fresh arrival stream per op
   drawn from the seed. Placement: Stolyar's greedy-random incremental
   placement, with the single-pass greedy (S7/P4) as the epoch and
   fallback re-solver. One pass over the 70 simulations takes about 24 s,
   so a 24 s run times each once. *)
let sims = 70
let hosts = 1000
let shards = 4
let partition = Simulator.Sharded.Capacity_balanced

let sim_config =
  {
    Simulator.Engine.default_config with
    horizon = 8.;
    arrival_rate = 30.;
    mean_lifetime = 10.;
    reallocation_period = 5.;
    max_error = 0.08;
    memory_scale = 0.5;
    placement = Simulator.Policy.Greedy_random;
    algorithm = A.single_greedy Heuristics.Greedy.S7 Heuristics.Greedy.P4;
  }

(* Every service live at the horizon must fit its node's memory. *)
let check_memory parts (finals : Simulator.Engine.final_service list array) =
  let error = ref None in
  Array.iteri
    (fun s fs ->
      let nodes : Model.Node.t array = parts.(s) in
      let used = Array.make (Array.length nodes) 0. in
      List.iter
        (fun (f : Simulator.Engine.final_service) ->
          if f.f_node < 0 || f.f_node >= Array.length nodes then
            error := Some (Printf.sprintf "shard %d: service %d on no node" s f.f_uid)
          else used.(f.f_node) <- used.(f.f_node) +. f.f_mem)
        fs;
      Array.iteri
        (fun h u ->
          let cap =
            Vec.Vector.get nodes.(h).capacity.aggregate Model.Service.mem_dim
          in
          if u > cap *. (1. +. 1e-9) && !error = None then
            error :=
              Some (Printf.sprintf "shard %d node %d: memory %g over capacity %g" s h u cap))
        used)
    finals;
  !error

let sim_outcome parts (r : Simulator.Sharded.result) =
  let m = r.merged in
  let finals =
    Array.to_list
      (Array.map
         (fun fs ->
           String.concat ","
             (List.map
                (fun (f : Simulator.Engine.final_service) ->
                  Printf.sprintf "%d@%d" f.f_uid f.f_node)
                fs))
         r.finals)
  in
  {
    trials = m.arrivals;
    successes = m.admitted;
    yields = [ m.mean_min_yield ];
    work = m.arrivals + m.departures;
    answer =
      Printf.sprintf "%d %d %d %d %d %h|%s" m.arrivals m.admitted m.departures
        m.reallocations m.migrations m.mean_min_yield (String.concat "|" finals);
    error = check_memory parts r.finals;
  }

let online_sharded =
  {
    name = "online-sharded";
    work_unit = "events";
    success_name = "admitted_frac";
    pass_s = 24.;
    generate =
      (fun ~seed ->
        let rng = input_rng ~name:"online-sharded" ~seed in
        (* The platform travels in the instance format; its one
           placeholder service is not simulated. *)
        let platform =
          Model.Codec.to_string
            (Model.Instance.v
               ~nodes:
                 (Array.init hosts (fun id ->
                      let size = if id < hosts / 2 then 0.4 else 0.8 in
                      Model.Node.make_cores ~id ~cores:4 ~cpu:size ~mem:size))
               ~services:[| Model.Service.make_2d ~id:0 () |])
        in
        let sim_seeds = List.init sims (fun _ -> draw_seed rng) in
        {
          texts = [ platform ];
          params =
            Printf.sprintf
              "sim seeds %s; horizon 8, rate 30, lifetime 10, period 5, \
               error 0.08, greedy-random, GREEDY-S7/P4, 4 capacity-balanced \
               shards, %d domains"
              (String.concat " " (List.map string_of_int sim_seeds))
              pool_domains;
          build =
            (fun insts ->
              let platform = insts.(0).Model.Instance.nodes in
              let parts = Simulator.Sharded.partition ~policy:partition ~shards platform in
              let pool = Par.Pool.create ~domains:pool_domains in
              let op seed =
                {
                  kind = "sim";
                  searches = 0;
                  greedy = 0;
                  lp = 0;
                  milp = 0;
                  batches = 0;
                  exec =
                    (fun () ->
                      let r =
                        Simulator.Sharded.run ~pool ~seed ~partition ~shards
                          sim_config ~platform
                      in
                      fun () -> sim_outcome parts r);
                }
              in
              {
                ops = Array.of_list (List.map op sim_seeds);
                domains = pool_domains;
                after = no_after;
                close = (fun () -> Par.Pool.shutdown pool);
              });
        });
  }

let all = [ offline_paper; batch_tenants; lp_rounding; online_sharded ]
let find name = List.find_opt (fun w -> w.name = name) all
