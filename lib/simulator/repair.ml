type entry = { uid : int; mem : float; cpu : float }

type t = {
  mem_cap : float array;
  cpu_cap : float array;
  residents : (int, entry) Hashtbl.t array;
  mem_load : float array;
  cpu_load : float array;
  gap_factor : float;  (* 1 - yield_gap: bin h is unhealthy when
                          cpu_load(h) * gap_factor > cpu_cap(h) *)
  overloaded : (int, unit) Hashtbl.t;  (* bins with cpu_load > cpu_cap *)
  mutable unhealthy : int;
}

let eps = 1e-9

let probe_limit = 8

let create ~platform ~yield_gap =
  let n = Array.length platform in
  let cap dim h =
    Vec.Vector.get platform.(h).Model.Node.capacity.Vec.Epair.aggregate dim
  in
  {
    mem_cap = Array.init n (cap Model.Service.mem_dim);
    cpu_cap = Array.init n (cap Model.Service.cpu_dim);
    residents = Array.init n (fun _ -> Hashtbl.create 16);
    mem_load = Array.make n 0.;
    cpu_load = Array.make n 0.;
    gap_factor = 1. -. yield_gap;
    overloaded = Hashtbl.create 16;
    unhealthy = 0;
  }

let is_overloaded t h = t.cpu_load.(h) > t.cpu_cap.(h) +. eps

let is_unhealthy t h = (t.cpu_load.(h) *. t.gap_factor) > t.cpu_cap.(h) +. eps

(* Recompute one node's sums from its resident set in ascending-uid order —
   the canonical summation that makes loads a pure function of the set (see
   the .mli) — and maintain the overload/health bookkeeping. *)
let refresh t h =
  let was_unhealthy = is_unhealthy t h in
  let uids =
    Hashtbl.fold (fun uid _ acc -> uid :: acc) t.residents.(h) []
    |> List.sort compare
  in
  let mem = ref 0. and cpu = ref 0. in
  List.iter
    (fun uid ->
      let e = Hashtbl.find t.residents.(h) uid in
      mem := !mem +. e.mem;
      cpu := !cpu +. e.cpu)
    uids;
  t.mem_load.(h) <- !mem;
  t.cpu_load.(h) <- !cpu;
  if is_overloaded t h then Hashtbl.replace t.overloaded h ()
  else Hashtbl.remove t.overloaded h;
  match (was_unhealthy, is_unhealthy t h) with
  | false, true -> t.unhealthy <- t.unhealthy + 1
  | true, false -> t.unhealthy <- t.unhealthy - 1
  | _ -> ()

let add t ~node e =
  Hashtbl.replace t.residents.(node) e.uid e;
  refresh t node

let remove t ~node ~uid =
  Hashtbl.remove t.residents.(node) uid;
  refresh t node

let rebuild t entries =
  Array.iter Hashtbl.reset t.residents;
  Array.iter
    (fun (node, e) -> Hashtbl.replace t.residents.(node) e.uid e)
    entries;
  for h = 0 to Array.length t.mem_cap - 1 do
    refresh t h
  done

let mem_fits t h m = t.mem_load.(h) +. m <= t.mem_cap.(h) +. eps

let choose t policy ~rng ~mem =
  let n = Array.length t.mem_cap in
  let touched = ref 0 in
  let probe () =
    incr touched;
    Prng.Rng.int rng n
  in
  let probes = min probe_limit n in
  match policy with
  | Policy.Resolve -> invalid_arg "Repair.choose: resolve has no probe path"
  | Policy.Greedy_random ->
      (* Stolyar's greedy-random rule: take the first random probe that
         fits; scan first-fit only when every probe misses. *)
      let rec try_probe k =
        if k = 0 then None
        else
          let h = probe () in
          if mem_fits t h mem then Some h else try_probe (k - 1)
      in
      let chosen =
        match try_probe probes with
        | Some h -> Some h
        | None ->
            let found = ref None in
            let h = ref 0 in
            while !found = None && !h < n do
              incr touched;
              if mem_fits t !h mem then found := Some !h;
              incr h
            done;
            !found
      in
      (chosen, !touched)
  | Policy.Best_fit ->
      (* Best fit by remaining memory over the same random candidate set;
         strict [<] makes the earliest probe win ties. *)
      let best = ref None and best_rem = ref infinity in
      let consider h =
        if mem_fits t h mem then begin
          let rem = t.mem_cap.(h) -. t.mem_load.(h) -. mem in
          if rem < !best_rem then begin
            best := Some h;
            best_rem := rem
          end
        end
      in
      for _ = 1 to probes do
        consider (probe ())
      done;
      if !best = None then
        for h = 0 to n - 1 do
          incr touched;
          consider h
        done;
      (!best, !touched)

let repair t ~target ~budget ~on_move =
  let touched = ref 1 (* the freed target bin *) in
  let moved = ref 0 in
  let examined = ref 0 in
  let over =
    Hashtbl.fold (fun h () acc -> h :: acc) t.overloaded [] |> List.sort compare
  in
  List.iter
    (fun h ->
      if
        h <> target && !moved < budget && !examined < probe_limit
        && is_overloaded t h
      then begin
        incr touched;
        incr examined;
        (* Largest estimated CPU first so one move sheds the most overload;
           ties by uid keep the order deterministic. *)
        let residents =
          Hashtbl.fold (fun _ e acc -> e :: acc) t.residents.(h) []
          |> List.sort (fun a b ->
                 match compare b.cpu a.cpu with
                 | 0 -> compare a.uid b.uid
                 | c -> c)
        in
        List.iter
          (fun e ->
            if
              !moved < budget && is_overloaded t h
              && mem_fits t target e.mem
              && t.cpu_load.(target) +. e.cpu <= t.cpu_cap.(target) +. eps
            then begin
              Hashtbl.remove t.residents.(h) e.uid;
              Hashtbl.replace t.residents.(target) e.uid e;
              refresh t h;
              refresh t target;
              on_move ~uid:e.uid ~node:target;
              incr moved
            end)
          residents
      end)
    over;
  (!moved, !touched)

let healthy t = t.unhealthy = 0
