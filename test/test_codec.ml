(* Tests for the instance file format: golden output, roundtrips, and
   parse-error reporting. *)

let fig1_instance =
  Model.Instance.v
    ~nodes:
      [|
        Model.Node.make_cores ~id:0 ~cores:4 ~cpu:3.2 ~mem:1.0;
        Model.Node.make_cores ~id:1 ~cores:2 ~cpu:2.0 ~mem:0.5;
      |]
    ~services:
      [|
        Model.Service.make_2d ~id:0 ~cpu_req:(0.5, 1.0) ~mem_req:0.5
          ~cpu_need:(0.5, 1.0) ();
      |]

let instances_equal a b =
  Model.Instance.n_nodes a = Model.Instance.n_nodes b
  && Model.Instance.n_services a = Model.Instance.n_services b
  && List.for_all
       (fun h ->
         Model.Node.equal (Model.Instance.node a h) (Model.Instance.node b h))
       (List.init (Model.Instance.n_nodes a) Fun.id)
  && List.for_all
       (fun j ->
         Model.Service.equal
           (Model.Instance.service a j)
           (Model.Instance.service b j))
       (List.init (Model.Instance.n_services a) Fun.id)

let test_roundtrip_fig1 () =
  match Model.Codec.of_string (Model.Codec.to_string fig1_instance) with
  | Ok parsed ->
      Alcotest.(check bool) "roundtrip" true
        (instances_equal fig1_instance parsed)
  | Error e -> Alcotest.fail e

let test_header_line () =
  let s = Model.Codec.to_string fig1_instance in
  Alcotest.(check bool) "header" true
    (String.length s > 18 && String.sub s 0 18 = "vmalloc-instance 1")

let test_comments_and_blanks_ignored () =
  let s = Model.Codec.to_string fig1_instance in
  let lines = String.split_on_char '\n' s in
  let noisy =
    String.concat "\n"
      (List.concat_map (fun l -> [ "# a comment"; ""; l ]) lines)
  in
  match Model.Codec.of_string noisy with
  | Ok parsed ->
      Alcotest.(check bool) "parses with noise" true
        (instances_equal fig1_instance parsed)
  | Error e -> Alcotest.fail e

let expect_error text fragment =
  match Model.Codec.of_string text with
  | Ok _ -> Alcotest.fail "expected parse error"
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "error %S mentions %S" e fragment)
        true
        (let len = String.length fragment in
         let rec search i =
           i + len <= String.length e
           && (String.sub e i len = fragment || search (i + 1))
         in
         search 0)

let test_bad_header () = expect_error "nonsense 1\ndims 2\n" "bad header"

let test_bad_version () =
  expect_error "vmalloc-instance 99\ndims 2\n" "unsupported version"

let test_bad_float () =
  expect_error
    "vmalloc-instance 1\ndims 1\nnodes 1\nnode 0 elt oops agg 1\nservices 0\n"
    "expected float"

let test_truncated () =
  expect_error "vmalloc-instance 1\ndims 2\nnodes 3\nnode 0 elt 1 1 agg 1 1\n"
    "truncated"

let test_trailing_garbage () =
  let s = Model.Codec.to_string fig1_instance ^ "unexpected stuff\n" in
  expect_error s "trailing content"

(* Non-finite numbers are rejected with their line, whichever field holds
   them: a NaN would otherwise slip past every [< 0.] check and come back
   as a plausible "no feasible placement". *)
let test_non_finite_rejected () =
  let node = "node 0 elt 1 1 agg 2 1\n"
  and service v w =
    Printf.sprintf
      "service 0 req-elt 0 0 req-agg %s 0 need-elt 0.5 0 need-agg %s 0\n" v w
  in
  let text node service =
    "vmalloc-instance 1\ndims 2\nnodes 1\n" ^ node ^ "services 1\n"
    ^ service
  in
  List.iter
    (fun bad ->
      List.iter
        (fun (field, line, input) ->
          match Model.Codec.of_string input with
          | Ok _ -> Alcotest.failf "%s %s: accepted" field bad
          | Error e ->
              let prefix = Printf.sprintf "line %d: " line in
              Alcotest.(check bool)
                (Printf.sprintf "%s %s: %S starts with %S" field bad e prefix)
                true
                (String.starts_with ~prefix e))
        [
          ( "capacity", 4,
            text (Printf.sprintf "node 0 elt %s 1 agg 2 1\n" bad)
              (service "0" "1") );
          ("requirement", 6, text node (service bad "1"));
          ("need", 6, text node (service "0" bad));
        ])
    [ "nan"; "inf"; "-inf" ]

(* A model constraint the grammar cannot see (elementary above aggregate)
   is reported with its line too. *)
let test_model_error_located () =
  expect_error
    "vmalloc-instance 1\ndims 1\nnodes 1\nnode 0 elt 2 agg 1\nservices 0\n"
    "line 4: Node.v";
  let service id =
    Printf.sprintf
      "service %d req-elt 0 req-agg 0 need-elt 0.1 need-agg 0.1\n" id
  in
  expect_error
    ("vmalloc-instance 1\ndims 1\nnodes 1\nnode 0 elt 1 agg 1\nservices 2\n"
    ^ service 1 ^ service 0)
    "line 6: service id 1 out of order: expected 0";
  expect_error
    ("vmalloc-instance 1\ndims 1\nnodes 2\nnode 1 elt 1 agg 1\n"
    ^ "node 0 elt 1 agg 1\nservices 1\n" ^ service 0)
    "line 4: node id 1 out of order: expected 0";
  expect_error
    ("vmalloc-instance 1\ndims 1\nnodes 0\nservices 1\n" ^ service 0)
    "line 3: nodes must be positive";
  expect_error
    "vmalloc-instance 1\ndims 1\nnodes 1\nnode 0 elt 1 agg 1\nservices 0\n"
    "line 5: services must be positive";
  expect_error "vmalloc-instance 1\n# D\ndims 0\nnodes 1\n"
    "line 3: dims must be positive";
  expect_error
    ("vmalloc-instance 1\ndims 1\nnodes 1\nnode 0 elt 1 agg 1\nservices 3\n"
    ^ service 0)
    "line 5: truncated node/service list"

let test_zero_services_rejected () =
  (* The model requires at least one service; the codec surfaces the model
     error as a parse diagnostic instead of raising. *)
  match
    Model.Codec.of_string
      "vmalloc-instance 1\ndims 1\nnodes 1\nnode 0 elt 1 agg 1\nservices 0\n"
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error"

let test_file_roundtrip () =
  let path = Filename.temp_file "vmalloc" ".inst" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Model.Codec.write_file path fig1_instance;
      match Model.Codec.read_file path with
      | Ok parsed ->
          Alcotest.(check bool) "file roundtrip" true
            (instances_equal fig1_instance parsed)
      | Error e -> Alcotest.fail e)

let test_missing_file () =
  match Model.Codec.read_file "/nonexistent/vmalloc.inst" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error"

(* Random instances roundtrip exactly (we print with %.17g). *)

let prop_roundtrip_random =
  QCheck2.Test.make ~name:"codec roundtrips generated instances" ~count:100
    QCheck2.Gen.(
      let* seed = int_range 0 100_000 in
      let* hosts = int_range 1 10 in
      let* services = int_range 1 20 in
      pure (seed, hosts, services))
    (fun (seed, hosts, services) ->
      let inst =
        Workload.Generator.generate
          ~rng:(Prng.Rng.create ~seed)
          {
            Workload.Generator.hosts;
            services;
            cov = 0.7;
            slack = 0.4;
            cpu_homogeneous = false;
            mem_homogeneous = false;
          }
      in
      match Model.Codec.of_string (Model.Codec.to_string inst) with
      | Ok parsed -> instances_equal inst parsed
      | Error _ -> false)

(* Fuzz: arbitrary text never crashes the parser — it parses or returns a
   diagnostic. *)
let prop_parser_total =
  QCheck2.Test.make ~name:"parser is total on arbitrary text" ~count:500
    QCheck2.Gen.(string_size ~gen:printable (int_range 0 400))
    (fun text ->
      match Model.Codec.of_string text with
      | Ok _ | Error _ -> true)

(* Fuzz with plausible structure: mutate a valid serialization by chopping
   it at a random point. *)
let prop_parser_total_on_truncations =
  QCheck2.Test.make ~name:"parser is total on truncated instances" ~count:200
    QCheck2.Gen.(int_range 0 1000)
    (fun cut ->
      let full = Model.Codec.to_string fig1_instance in
      let cut = min cut (String.length full) in
      match Model.Codec.of_string (String.sub full 0 cut) with
      | Ok _ | Error _ -> true)

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("roundtrip Fig. 1", test_roundtrip_fig1);
      ("header line", test_header_line);
      ("comments and blanks", test_comments_and_blanks_ignored);
      ("bad header", test_bad_header);
      ("bad version", test_bad_version);
      ("bad float", test_bad_float);
      ("truncated", test_truncated);
      ("trailing garbage", test_trailing_garbage);
      ("zero services rejected", test_zero_services_rejected);
      ("non-finite numbers rejected", test_non_finite_rejected);
      ("model errors carry their line", test_model_error_located);
      ("file roundtrip", test_file_roundtrip);
      ("missing file", test_missing_file);
    ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_roundtrip_random; prop_parser_total;
        prop_parser_total_on_truncations ]
