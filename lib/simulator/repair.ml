type resident = {
  uid : int;
  cores : int;
  true_cpu : float;
  est_cpu : float;
  memory : float;
  mutable node : int;
}

type t = {
  mem_cap : float array;
  cpu_cap : float array;
  residents : resident list array;  (* ascending uid *)
  count : int array;
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
    residents = Array.make n [];
    count = Array.make n 0;
    mem_load = Array.make n 0.;
    cpu_load = Array.make n 0.;
    gap_factor = 1. -. yield_gap;
    overloaded = Hashtbl.create 16;
    unhealthy = 0;
  }

let residents t h = t.residents.(h)

let is_overloaded t h = t.cpu_load.(h) > t.cpu_cap.(h) +. eps

let is_unhealthy t h = (t.cpu_load.(h) *. t.gap_factor) > t.cpu_cap.(h) +. eps

(* Refold one node's sums over its residents in ascending-uid order — the
   canonical summation that makes loads a pure function of the set (see
   the .mli) — and maintain the overload/health bookkeeping. *)
let refresh t h =
  let was_unhealthy = is_unhealthy t h in
  let rec fold mem cpu count = function
    | [] ->
        t.mem_load.(h) <- mem;
        t.cpu_load.(h) <- cpu;
        t.count.(h) <- count
    | r :: rest -> fold (mem +. r.memory) (cpu +. r.est_cpu) (count + 1) rest
  in
  fold 0. 0. 0 t.residents.(h);
  if is_overloaded t h then Hashtbl.replace t.overloaded h ()
  else Hashtbl.remove t.overloaded h;
  match (was_unhealthy, is_unhealthy t h) with
  | false, true -> t.unhealthy <- t.unhealthy + 1
  | true, false -> t.unhealthy <- t.unhealthy - 1
  | _ -> ()

let rec insert r = function
  | x :: rest when x.uid < r.uid -> x :: insert r rest
  | rest -> r :: rest

let add t ~node r =
  r.node <- node;
  t.residents.(node) <- insert r t.residents.(node);
  refresh t node

let remove t r =
  t.residents.(r.node) <-
    List.filter (fun x -> x.uid <> r.uid) t.residents.(r.node);
  refresh t r.node

let rebuild t rs =
  Array.fill t.residents 0 (Array.length t.residents) [];
  (* Cons in descending uid order, so every list comes out ascending. *)
  for i = Array.length rs - 1 downto 0 do
    let r = rs.(i) in
    (match t.residents.(r.node) with
    | x :: _ when x.uid <= r.uid ->
        invalid_arg "Repair.rebuild: residents not in ascending uid order"
    | _ -> ());
    t.residents.(r.node) <- r :: t.residents.(r.node)
  done;
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
  | Policy.Resolve ->
      (* The zero-knowledge spread: arrivals carry no trusted CPU estimate
         yet, so only the rigid memory requirement decides. *)
      let best = ref (-1) in
      for h = 0 to n - 1 do
        if mem_fits t h mem && (!best < 0 || t.count.(h) < t.count.(!best))
        then best := h
      done;
      ((if !best < 0 then None else Some !best), n)
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
        let by_cpu =
          List.sort
            (fun a b ->
              match compare b.est_cpu a.est_cpu with
              | 0 -> compare a.uid b.uid
              | c -> c)
            t.residents.(h)
        in
        List.iter
          (fun r ->
            if
              !moved < budget && is_overloaded t h
              && mem_fits t target r.memory
              && t.cpu_load.(target) +. r.est_cpu <= t.cpu_cap.(target) +. eps
            then begin
              remove t r;
              add t ~node:target r;
              on_move h;
              incr moved
            end)
          by_cpu
      end)
    over;
  (!moved, !touched)

let healthy t = t.unhealthy = 0
