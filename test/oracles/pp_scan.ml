open Packing

(* Rank positions of a bin's dimensions: position.(d) = rank of dimension d
   in the bin's preference order (0 = the dimension we most want demand
   in). *)
let bin_positions ranking bin =
  let perm =
    match ranking with
    | Permutation_pack.By_load ->
        Vec.Vector.permutation_asc (Bin.load_vector bin)
    | Permutation_pack.By_remaining_capacity ->
        Vec.Vector.permutation_desc (Bin.remaining bin)
  in
  let pos = Array.make (Array.length perm) 0 in
  Array.iteri (fun rank d -> pos.(d) <- rank) perm;
  pos

let item_key ~bin_perm_pos (item : Item.t) =
  let item_perm = Vec.Vector.permutation_desc (Item.size item) in
  Array.map (fun d -> bin_perm_pos.(d)) item_perm

let compare_keys flavour ~window a b =
  let w = min window (Array.length a) in
  let view key =
    let v = Array.sub key 0 w in
    (match flavour with
    | Permutation_pack.Permutation -> ()
    | Permutation_pack.Choose -> Array.sort compare v);
    v
  in
  compare (view a) (view b)

let pack ?(flavour = Permutation_pack.Permutation) ?window
    ?(ranking = Permutation_pack.By_load) ~bins ~items () =
  let window =
    match window with
    | Some w ->
        if w <= 0 then invalid_arg "Pp_scan.pack: window must be > 0";
        w
    | None ->
        if Array.length items = 0 then 1
        else Vec.Epair.dim items.(0).Item.demand
  in
  let n_items = Array.length items in
  let unplaced = Array.make n_items true in
  let left = ref n_items in
  let fill_bin bin =
    let rec select () =
      if !left > 0 then begin
        let pos = bin_positions ranking bin in
        let best = ref (-1) and best_key = ref [||] in
        for j = 0 to n_items - 1 do
          if unplaced.(j) && Bin.fits bin items.(j) then begin
            let key = item_key ~bin_perm_pos:pos items.(j) in
            (* Strict comparison keeps the earliest item on key ties, which
               is how the sorted per-permutation lists of the original
               formulation break ties. *)
            if !best < 0 || compare_keys flavour ~window key !best_key < 0
            then begin
              best := j;
              best_key := key
            end
          end
        done;
        if !best >= 0 then begin
          Bin.place bin items.(!best);
          unplaced.(!best) <- false;
          decr left;
          select ()
        end
      end
    in
    select ()
  in
  Array.iter fill_bin bins;
  !left = 0
