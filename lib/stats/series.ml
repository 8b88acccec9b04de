type point = { x : float; mean : float; count : int }

let aggregate samples =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (x, y) ->
      let sum, count =
        match Hashtbl.find_opt tbl x with
        | Some (s, c) -> (s +. y, c + 1)
        | None -> (y, 1)
      in
      Hashtbl.replace tbl x (sum, count))
    samples;
  Hashtbl.fold (fun x (sum, count) acc ->
      { x; mean = sum /. float_of_int count; count } :: acc)
    tbl []
  |> List.sort (fun a b -> Float.compare a.x b.x)

let to_csv ~header points =
  let hx, hy = header in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "%s,%s\n" hx hy);
  List.iter
    (fun p -> Buffer.add_string buf (Printf.sprintf "%g,%g\n" p.x p.mean))
    points;
  Buffer.contents buf

(* Plot size in characters. *)
let width = 72
let height = 16

let render ~label samples =
  match samples with
  | [] -> Printf.sprintf "%s: (no data)" label
  | _ ->
      let xs = List.map fst samples and ys = List.map snd samples in
      let fmin = List.fold_left Float.min infinity in
      let fmax = List.fold_left Float.max neg_infinity in
      let xmin = fmin xs and xmax = fmax xs in
      let ymin = Float.min 0. (fmin ys) and ymax = Float.max (fmax ys) 1e-9 in
      let grid = Array.make_matrix height width ' ' in
      let place (x, y) =
        let xr = if xmax > xmin then (x -. xmin) /. (xmax -. xmin) else 0.5 in
        let yr = if ymax > ymin then (y -. ymin) /. (ymax -. ymin) else 0.5 in
        let col = min (width - 1) (int_of_float (xr *. float_of_int (width - 1))) in
        let row =
          height - 1
          - min (height - 1) (int_of_float (yr *. float_of_int (height - 1)))
        in
        grid.(row).(col) <- '*'
      in
      List.iter place samples;
      let buf = Buffer.create (width * height) in
      Buffer.add_string buf
        (Printf.sprintf "%s  (x: %.3g..%.3g, y: %.3g..%.3g)\n" label xmin xmax
           ymin ymax);
      Array.iter
        (fun row ->
          Buffer.add_char buf '|';
          Buffer.add_string buf (String.init width (fun i -> row.(i)));
          Buffer.add_char buf '\n')
        grid;
      Buffer.add_char buf '+';
      Buffer.add_string buf (String.make width '-');
      Buffer.contents buf
