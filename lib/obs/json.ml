(* Minimal recursive-descent JSON reader. The repo deliberately has no
   JSON dependency — emitters hand-print their output, quoting strings
   with [escape] — so readers get this small parser: full JSON syntax,
   floats for every number, decoded string escapes (non-ASCII \u escapes
   become '?'; the emitters never produce them). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

exception Fail of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some 'n' ->
              Buffer.add_char buf '\n';
              advance ();
              go ()
          | Some 't' ->
              Buffer.add_char buf '\t';
              advance ();
              go ()
          | Some 'r' ->
              Buffer.add_char buf '\r';
              advance ();
              go ()
          | Some 'b' ->
              Buffer.add_char buf '\b';
              advance ();
              go ()
          | Some 'f' ->
              Buffer.add_char buf '\012';
              advance ();
              go ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > n then fail "truncated \\u escape";
              let hex = String.sub s !pos 4 in
              pos := !pos + 4;
              (match int_of_string_opt ("0x" ^ hex) with
              | Some code when code < 128 -> Buffer.add_char buf (Char.chr code)
              | Some _ -> Buffer.add_char buf '?'
              | None -> fail "bad \\u escape");
              go ()
          | Some c ->
              Buffer.add_char buf c;
              advance ();
              go ()
          | None -> fail "unterminated escape")
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let number_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while
      match peek () with Some c when number_char c -> true | _ -> false
    do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    match float_of_string_opt text with
    | Some v -> v
    | None -> fail (Printf.sprintf "bad number %S" text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let items = ref [] in
          let rec members () =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            items := (key, v) :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          members ();
          Obj (List.rev !items)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          elements ();
          List (List.rev !items)
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Fail msg -> Error msg

let member key = function
  | Obj items -> List.assoc_opt key items
  | _ -> None

let to_num = function
  | Num v -> Some v
  | Bool b -> Some (if b then 1. else 0.)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_list = function List l -> l | _ -> []
