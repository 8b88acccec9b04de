(* All permutations of [0 .. d-1] in lexicographic order. *)
let permutations d =
  let rec gen remaining =
    match remaining with
    | [] -> [ [] ]
    | _ ->
        List.concat_map
          (fun x ->
            let rest = List.filter (fun y -> y <> x) remaining in
            List.map (fun tail -> x :: tail) (gen rest))
          remaining
  in
  gen (List.init d Fun.id)
  |> List.sort compare
  |> List.map Array.of_list

(* A copy of [a]'s row at offset [o], as a vector. *)
let row (t : State.t) a o = Vec.Vector.init t.dims (fun i -> a.(o + i))

let pack ?(ranking = Permutation_pack.By_load) (t : State.t) ~bins ~items () =
  let n_items = Array.length items in
  let d = t.dims in
  let perms = permutations d in
  (* One list (as a mutable queue of item ids in item-sorted order) per
     permutation of item dimensions. *)
  let table = Hashtbl.create (List.length perms) in
  List.iter (fun p -> Hashtbl.replace table (Array.to_list p) (ref []))
    perms;
  for k = n_items - 1 downto 0 do
    let j = items.(k) in
    let p =
      Array.to_list (Vec.Vector.permutation_desc (row t t.agg (j * d)))
    in
    let cell = Hashtbl.find table p in
    cell := j :: !cell
  done;
  let left = ref n_items in
  let fill_bin b =
    let rec select () =
      if !left = 0 then ()
      else begin
        let load = row t t.load (b * d) in
        let bin_perm =
          match ranking with
          | Permutation_pack.By_load -> Vec.Vector.permutation_asc load
          | Permutation_pack.By_remaining_capacity ->
              Vec.Vector.permutation_desc
                (Vec.Vector.map2
                   (fun c l -> Float.max 0. (c -. l))
                   (row t t.cap (b * d)) load)
        in
        (* Visit item permutations in increasing key order: key kappa maps
           to the item permutation i |-> bin_perm.(kappa i). *)
        let candidate_of kappa =
          Array.map (fun k -> bin_perm.(k)) kappa
        in
        let rec try_lists = function
          | [] -> None
          | kappa :: rest -> (
              let item_perm = Array.to_list (candidate_of kappa) in
              let cell = Hashtbl.find table item_perm in
              let rec first_fit seen = function
                | [] ->
                    cell := List.rev seen;
                    None
                | j :: js ->
                    if Fit.fits t b j then begin
                      cell := List.rev_append seen js;
                      Some j
                    end
                    else first_fit (j :: seen) js
              in
              match first_fit [] !cell with
              | Some j -> Some j
              | None -> try_lists rest)
        in
        match try_lists perms with
        | None -> ()
        | Some j ->
            State.place t b j;
            decr left;
            select ()
      end
    in
    select ()
  in
  Array.iter fill_bin bins;
  !left = 0
