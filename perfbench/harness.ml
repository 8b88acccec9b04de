(* Workload-independent pieces of the benchmark: sample statistics, the
   answer check every returned placement goes through, input digests,
   process memory, and the JSON result line. *)

let now () = Unix.gettimeofday ()

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

type tail = { value : float; percentile : float; samples : int }

(* The highest percentile that still has 10 samples above it: the
   (n - 10)-th smallest sample, whose percentile is (n - 10) / n. With 10
   samples or fewer there is no such percentile, and the maximum is
   reported as the 100th. *)
let tail xs =
  let beyond = 10 in
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then { value = 0.; percentile = 0.; samples = 0 }
  else if n <= beyond then { value = a.(n - 1); percentile = 100.; samples = n }
  else
    {
      value = a.(n - beyond - 1);
      percentile = 100. *. float_of_int (n - beyond) /. float_of_int n;
      samples = n;
    }

(* Calibration. On a 2-vCPU cloud guest, code ran up to 1.5x slower for a
   minute or more at a time with no steal time reported, which moved
   every end-to-end time by 20-30% between runs. A fixed kernel of the
   benchmark's own, allocating, sorting and hashing like the library
   does, is timed right before and after every timed interval; scaling
   the interval by [nominal_s] over the kernel's time around it gives
   seconds at a fixed machine speed. The kernel never calls the library,
   so a change to the library cannot move it. *)
let nominal_s = 0.002

let kernel () =
  let t0 = now () in
  let table = Hashtbl.create 256 in
  let items = ref [] in
  for i = 0 to 3000 do
    let item = (float_of_int (i * 7919 mod 3001), i) in
    items := item :: !items;
    if i land 3 = 0 then Hashtbl.replace table i item
  done;
  let a = Array.of_list !items in
  Array.sort compare a;
  let acc = ref 0. in
  Array.iter
    (fun (x, i) ->
      acc := !acc +. (x *. float_of_int (i land 7));
      match Hashtbl.find_opt table i with Some (y, _) -> acc := !acc +. y | None -> ())
    a;
  ignore (Sys.opaque_identity !acc);
  now () -. t0

(* The kernel's time now: the best of 3, so one interrupt does not count. *)
let kernel_s () = Float.min (kernel ()) (Float.min (kernel ()) (kernel ()))

(* [dt] measured while the kernel took [kernel] seconds, in seconds at the
   nominal machine speed. *)
let calibrated dt ~kernel = dt *. nominal_s /. kernel

let ratio num den = if den = 0. then 0. else num /. den
let ratio_i num den = ratio (float_of_int num) (float_of_int den)

(* Every placement any entry point returns must satisfy the MILP
   constraints (1)-(7) once water-filled, and the minimum yield the solver
   reports must be the one the placement actually achieves. *)
let check_solution inst (sol : Heuristics.Vp_solver.solution) =
  match Model.Placement.water_fill inst sol.placement with
  | None -> Error "placement cannot be water-filled"
  | Some alloc -> (
      match Model.Placement.check_constraints inst alloc with
      | Error e -> Error ("constraint violated: " ^ e)
      | Ok () -> (
          match Model.Placement.min_yield inst sol.placement with
          | None -> Error "placement is infeasible at yield 0"
          | Some y when Float.equal y sol.min_yield -> Ok ()
          | Some y ->
              Error
                (Printf.sprintf "reported min yield %h, placement achieves %h"
                   sol.min_yield y)))

(* Canonical text of one solve's answer: equal answers give equal text. *)
let answer_text (sol : Heuristics.Vp_solver.solution option) =
  match sol with
  | None -> "none"
  | Some s ->
      Printf.sprintf "%h:%s" s.min_yield
        (String.concat "," (Array.to_list (Array.map string_of_int s.placement)))

let digest parts = Digest.to_hex (Digest.string (String.concat "\n" parts))

(* Peak resident set of this process: the kernel's high-water mark, VmHWM
   in /proc/self/status. A failed read fails the run. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" @@ fun ic ->
  let rec scan () =
    match In_channel.input_line ic with
    | None -> failwith "no VmHWM line in /proc/self/status"
    | Some line -> (
        match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
        | Some kb -> float_of_int kb /. 1024.
        | None -> scan ())
  in
  scan ()

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

(* The result line: the last line of standard output. *)
let print_result ~correct ~attempted ~failed metrics =
  let metric (name, unit_, value) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value)
      unit_
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))
