(* Self-tests of the benchmark's own helpers: input digests follow the
   seed, the answer check rejects an over-committed node, and the tail
   helper picks the right percentile. *)

open Perfbench

let digest_follows_seed (w : Workloads.t) () =
  let d seed = Workloads.digest (w.generate ~seed) in
  Alcotest.(check string) "same seed, same digest" (d 7) (d 7);
  Alcotest.(check bool) "another seed, another digest" false (d 7 = d 8)

let mem_dim = Model.Service.mem_dim

(* Solve a small instance, then move one service onto a node whose memory
   it over-commits: the op outcome must report a failed check. *)
let over_committed_fails () =
  let inst =
    Workloads.instance ~seed:3 ~hosts:10 ~services:40 ~cov:0.5 ~slack:0.4
  in
  let sol =
    match Heuristics.Algorithms.metagreedy.solve inst with
    | Some s -> s
    | None -> Alcotest.fail "the test instance must be solvable"
  in
  Alcotest.(check (option string)) "the solver's own answer passes" None
    (Workloads.solve_outcome inst (Some sol)).error;
  let req j =
    Vec.Vector.get (Model.Instance.service inst j).requirement.aggregate mem_dim
  in
  let cap h =
    Vec.Vector.get (Model.Instance.node inst h).capacity.aggregate mem_dim
  in
  let used = Array.make (Model.Instance.n_nodes inst) 0. in
  Array.iteri (fun j h -> used.(h) <- used.(h) +. req j) sol.placement;
  let candidates =
    List.concat_map
      (fun j ->
        List.filter_map
          (fun h ->
            if h <> sol.placement.(j) && used.(h) +. req j > cap h then Some (j, h)
            else None)
          (List.init (Model.Instance.n_nodes inst) Fun.id))
      (List.init (Model.Instance.n_services inst) Fun.id)
  in
  match candidates with
  | [] -> Alcotest.fail "no move over-commits a node"
  | (j, h) :: _ ->
      let placement = Array.copy sol.placement in
      placement.(j) <- h;
      let moved = { sol with placement } in
      Alcotest.(check bool) "the moved placement counts as failed" true
        (Option.is_some (Workloads.solve_outcome inst (Some moved)).error)

let tail_percentile () =
  let samples n = Array.init n (fun i -> float_of_int (n - i)) in
  let t = Harness.tail (samples 100) in
  Alcotest.(check (float 0.)) "100 samples: the 90th smallest" 90. t.value;
  Alcotest.(check (float 1e-9)) "100 samples: p90" 90. t.percentile;
  Alcotest.(check int) "100 samples: count" 100 t.samples;
  let t = Harness.tail (samples 25) in
  Alcotest.(check (float 0.)) "25 samples: the 15th smallest" 15. t.value;
  Alcotest.(check (float 1e-9)) "25 samples: p60" 60. t.percentile;
  Alcotest.(check int) "25 samples: count" 25 t.samples;
  let beyond = Array.fold_left (fun acc x -> if x > t.value then acc + 1 else acc) 0 (samples 25) in
  Alcotest.(check int) "10 samples beyond it" 10 beyond;
  let t = Harness.tail (samples 10) in
  Alcotest.(check (float 0.)) "10 samples: the maximum" 10. t.value;
  Alcotest.(check (float 0.)) "10 samples: p100" 100. t.percentile

let () =
  Alcotest.run "perfbench"
    [
      ( "inputs",
        List.map
          (fun (w : Workloads.t) ->
            Alcotest.test_case (w.name ^ " digest follows the seed") `Quick
              (digest_follows_seed w))
          Workloads.all );
      ( "checks",
        [ Alcotest.test_case "over-committed node fails" `Quick over_committed_fails ] );
      ( "stats",
        [ Alcotest.test_case "tail percentile and count" `Quick tail_percentile ] );
    ]
