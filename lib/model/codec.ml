let magic = "vmalloc-instance"
let version = 1

let floats v =
  String.concat " "
    (List.map (Printf.sprintf "%.17g") (Vec.Vector.to_list v))

let to_string instance =
  let buf = Buffer.create 4096 in
  let dims =
    Vec.Epair.dim (Instance.node instance 0).Node.capacity
  in
  Buffer.add_string buf (Printf.sprintf "%s %d\n" magic version);
  Buffer.add_string buf (Printf.sprintf "dims %d\n" dims);
  Buffer.add_string buf (Printf.sprintf "nodes %d\n" (Instance.n_nodes instance));
  for h = 0 to Instance.n_nodes instance - 1 do
    let n = Instance.node instance h in
    Buffer.add_string buf
      (Printf.sprintf "node %d elt %s agg %s\n" n.Node.id
         (floats n.Node.capacity.Vec.Epair.elementary)
         (floats n.Node.capacity.Vec.Epair.aggregate))
  done;
  Buffer.add_string buf
    (Printf.sprintf "services %d\n" (Instance.n_services instance));
  for j = 0 to Instance.n_services instance - 1 do
    let s = Instance.service instance j in
    Buffer.add_string buf
      (Printf.sprintf
         "service %d req-elt %s req-agg %s need-elt %s need-agg %s\n"
         s.Service.id
         (floats s.Service.requirement.Vec.Epair.elementary)
         (floats s.Service.requirement.Vec.Epair.aggregate)
         (floats s.Service.need.Vec.Epair.elementary)
         (floats s.Service.need.Vec.Epair.aggregate))
  done;
  Buffer.contents buf

exception Parse_error of int * string

let of_string text =
  let lines =
    String.split_on_char '\n' text
    |> List.mapi (fun i l -> (i + 1, String.trim l))
    |> List.filter (fun (_, l) ->
           l <> "" && not (String.length l > 0 && l.[0] = '#'))
  in
  let fail line msg = raise (Parse_error (line, msg)) in
  let tokens (line, l) = (line, String.split_on_char ' ' l
                                |> List.filter (fun t -> t <> "")) in
  let parse_float line t =
    match float_of_string_opt t with
    | Some f when Float.is_finite f -> f
    | Some _ -> fail line (Printf.sprintf "non-finite number %S" t)
    | None -> fail line (Printf.sprintf "expected float, got %S" t)
  in
  (* Model constructors reject what the grammar admits (negative or
     inconsistent capacities); report that with the line it came from. *)
  let build line f =
    try f () with Invalid_argument msg -> fail line msg
  in
  let parse_int line t =
    match int_of_string_opt t with
    | Some i -> i
    | None -> fail line (Printf.sprintf "expected int, got %S" t)
  in
  (* Consume [count] floats from the token list. *)
  let rec take_floats line count toks acc =
    if count = 0 then (List.rev acc, toks)
    else
      match toks with
      | [] -> fail line "unexpected end of line"
      | t :: rest -> take_floats line (count - 1) rest (parse_float line t :: acc)
  in
  let expect_keyword line kw = function
    | t :: rest when t = kw -> rest
    | t :: _ -> fail line (Printf.sprintf "expected %S, got %S" kw t)
    | [] -> fail line (Printf.sprintf "expected %S, got end of line" kw)
  in
  try
    match List.map tokens lines with
    | [] -> Error "empty input"
    | (l0, header) :: rest ->
        (match header with
        | [ m; v ] when m = magic ->
            if parse_int l0 v <> version then
              fail l0 (Printf.sprintf "unsupported version %s" v)
        | _ -> fail l0 "bad header");
        (* A count line [kw N] with N positive, and its line number. *)
        let count kw ~what = function
          | (l, [ k; n ]) :: rest when k = kw ->
              let n = parse_int l n in
              if n <= 0 then fail l (kw ^ " must be positive");
              (n, l, rest)
          | (l, _) :: _ -> fail l (Printf.sprintf "expected '%s %s'" kw what)
          | [] -> fail l0 "truncated"
        in
        (* Ids are the 0-based positions in the file. *)
        let check_id l kind id pos =
          if id <> pos then
            fail l (Printf.sprintf "%s id %d out of order: expected %d" kind id
                      pos)
        in
        let dims, _, rest = count "dims" ~what:"D" rest in
        let n_nodes, l_nodes, rest = count "nodes" ~what:"H" rest in
        let parse_node pos (l, toks) =
          let toks = expect_keyword l "node" toks in
          match toks with
          | id :: toks ->
              let id = parse_int l id in
              check_id l "node" id pos;
              let toks = expect_keyword l "elt" toks in
              let elt, toks = take_floats l dims toks [] in
              let toks = expect_keyword l "agg" toks in
              let agg, toks = take_floats l dims toks [] in
              if toks <> [] then fail l "trailing tokens";
              build l @@ fun () ->
              Node.v ~id
                ~capacity:
                  (Vec.Epair.v
                     ~elementary:(Vec.Vector.of_list elt)
                     ~aggregate:(Vec.Vector.of_list agg))
          | [] -> fail l "expected node id"
        in
        (* The [n] entry lines a count line at [l] announces. *)
        let split_at l n lines =
          let rec go n acc = function
            | rest when n = 0 -> (List.rev acc, rest)
            | [] -> fail l "truncated node/service list"
            | x :: rest -> go (n - 1) (x :: acc) rest
          in
          go n [] lines
        in
        let node_lines, rest = split_at l_nodes n_nodes rest in
        let nodes = Array.of_list (List.mapi parse_node node_lines) in
        let n_services, l_services, rest =
          count "services" ~what:"J" rest
        in
        let parse_service pos (l, toks) =
          let toks = expect_keyword l "service" toks in
          match toks with
          | id :: toks ->
              let id = parse_int l id in
              check_id l "service" id pos;
              let toks = expect_keyword l "req-elt" toks in
              let re, toks = take_floats l dims toks [] in
              let toks = expect_keyword l "req-agg" toks in
              let ra, toks = take_floats l dims toks [] in
              let toks = expect_keyword l "need-elt" toks in
              let ne, toks = take_floats l dims toks [] in
              let toks = expect_keyword l "need-agg" toks in
              let na, toks = take_floats l dims toks [] in
              if toks <> [] then fail l "trailing tokens";
              build l @@ fun () ->
              Service.v ~id
                ~requirement:
                  (Vec.Epair.v
                     ~elementary:(Vec.Vector.of_list re)
                     ~aggregate:(Vec.Vector.of_list ra))
                ~need:
                  (Vec.Epair.v
                     ~elementary:(Vec.Vector.of_list ne)
                     ~aggregate:(Vec.Vector.of_list na))
          | [] -> fail l "expected service id"
        in
        let service_lines, rest = split_at l_services n_services rest in
        (match rest with
        | [] -> ()
        | (l, _) :: _ -> fail l "trailing content");
        let services =
          Array.of_list (List.mapi parse_service service_lines)
        in
        Ok (Instance.v ~nodes ~services)
  with
  | Parse_error (line, msg) -> Error (Printf.sprintf "line %d: %s" line msg)
  | Invalid_argument msg -> Error msg

let write_file path instance =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string instance))

let read_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error msg -> Error msg
