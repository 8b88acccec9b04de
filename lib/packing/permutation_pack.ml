type flavour = Permutation | Choose

type bin_ranking = By_load | By_remaining_capacity

(* The permutation-key engine's unit of work is one candidate key compared
   while a bin selects its next item: one per key class that offers a
   fitting item. Attempts count the select passes (one per placed item
   plus one final empty pass per bin). *)
let c_keys = Obs.Metrics.counter "packing.perm_keys_tried"
let c_attempts = Obs.Metrics.counter "packing.placement_attempts"
let c_placed = Obs.Metrics.counter "packing.placements"

(* Probe-shared scratch (DESIGN.md §11). An item's key class (see
   [pack_cursors]) depends only on its demand vector, fixed for the whole
   fixed-yield probe, so the kernel classifies each item once per (probe,
   flavour, window) and keeps one representative permutation per class;
   every Permutation-Pack attempt of the probe (121 per METAHVP probe)
   then groups its items by the memoized class ids. The per-attempt class
   lists and the per-select-pass state (bin dimension ranks, comparison
   windows) live in reusable buffers. A scratch belongs to one strategy
   cache and must only be used from one domain at a time. *)
type scratch = {
  mutable spec : flavour * int;  (* (flavour, w) the class memo holds *)
  mutable class_of : int array;  (* item id -> class id; -1 = unclassified *)
  class_ids : (int array, int) Hashtbl.t;  (* class key -> class id *)
  mutable reps : int array array;  (* class id -> a member's permutation *)
  mutable n_classes : int;
  mutable members : int array;
      (* item indices grouped by class, each class in item-array order;
         -1 marks an item placed in the current bin *)
  mutable first : int array;  (* class id -> start of its segment *)
  mutable stop : int array;  (* class id -> end of its segment *)
  mutable cursor : int array;  (* class id -> next candidate in this bin *)
  mutable live : int array;  (* classes with unplaced items *)
  mutable pos : int array;  (* dimension -> rank in the bin's order *)
  mutable vals : float array;  (* per-dimension sort values *)
  mutable order : int array;  (* dimension permutation being built *)
  mutable key_a : int array;  (* Choose-flavour window views *)
  mutable key_b : int array;
}

let scratch () =
  { spec = (Permutation, 0); class_of = [||]; class_ids = Hashtbl.create 16;
    reps = [||]; n_classes = 0; members = [||]; first = [||]; stop = [||];
    cursor = [||]; live = [||]; pos = [||]; vals = [||]; order = [||];
    key_a = [||]; key_b = [||] }

let scratch_new_probe s =
  Array.fill s.class_of 0 (Array.length s.class_of) (-1);
  Hashtbl.clear s.class_ids;
  s.n_classes <- 0

let ensure_capacity s ~n_items ~dims =
  if Array.length s.class_of < n_items then begin
    s.class_of <- Array.make n_items (-1);
    s.reps <- Array.make n_items [||];
    s.members <- Array.make n_items 0;
    s.first <- Array.make n_items 0;
    s.stop <- Array.make n_items 0;
    s.cursor <- Array.make n_items 0;
    s.live <- Array.make n_items 0;
    scratch_new_probe s
  end;
  if Array.length s.pos < dims then begin
    s.pos <- Array.make dims 0;
    s.vals <- Array.make dims 0.;
    s.order <- Array.make dims 0;
    s.key_a <- Array.make dims 0;
    s.key_b <- Array.make dims 0
  end

(* Stable insertion sort of dimension indices over [s.vals] — the unique
   stable result, hence identical to the [Array.stable_sort] inside
   [Vector.permutation_asc]/[permutation_desc] under the same
   comparator. *)
let fill_order ~desc s d =
  let order = s.order and vals = s.vals in
  for i = 0 to d - 1 do
    order.(i) <- i
  done;
  for i = 1 to d - 1 do
    let x = order.(i) in
    let j = ref (i - 1) in
    while
      !j >= 0
      &&
      let c =
        if desc then Float.compare vals.(x) vals.(order.(!j))
        else Float.compare vals.(order.(!j)) vals.(x)
      in
      c > 0
    do
      order.(!j + 1) <- order.(!j);
      decr j
    done;
    order.(!j + 1) <- x
  done

(* [s.pos] := the rank of each dimension in the bin's preference order
   (0 = the dimension we most want demand in): ascending load, or
   descending remaining capacity. [s.vals] is filled with the very
   expressions [Bin.load_vector] / [Bin.remaining] use, without their
   vector copies. *)
let fill_positions ranking s (bin : Bin.t) =
  let d = Bin.dim bin in
  (match ranking with
  | By_load ->
      for i = 0 to d - 1 do
        s.vals.(i) <- bin.Bin.load.(i)
      done;
      fill_order ~desc:false s d
  | By_remaining_capacity ->
      let cap = (bin.Bin.capacity.Vec.Epair.aggregate :> float array) in
      for i = 0 to d - 1 do
        s.vals.(i) <- Float.max 0. (cap.(i) -. bin.Bin.load.(i))
      done;
      fill_order ~desc:true s d);
  for r = 0 to d - 1 do
    s.pos.(s.order.(r)) <- r
  done

(* The class id of [item] under the memo's (flavour, w), computing and
   memoizing it on first sight this probe. *)
let class_id s flavour ~w (item : Item.t) =
  let id = item.Item.id in
  let c = s.class_of.(id) in
  if c >= 0 then c
  else begin
    let size = Item.size item in
    if Vec.Vector.min_component size < 0. then
      invalid_arg "Permutation_pack.pack: negative demand";
    let perm = Vec.Vector.permutation_desc size in
    let key = Array.sub perm 0 w in
    if flavour = Choose then Array.sort Int.compare key;
    let c =
      match Hashtbl.find_opt s.class_ids key with
      | Some c -> c
      | None ->
          let c = s.n_classes in
          Hashtbl.add s.class_ids key c;
          s.reps.(c) <- perm;
          s.n_classes <- c + 1;
          c
    in
    s.class_of.(id) <- c;
    c
  end

(* Compare two candidate keys without materializing them: an item's key
   is its descending-demand permutation mapped through the bin's ranks,
   key.(k) = pos.(perm.(k)), compared lexicographically over the first [w]
   entries; Choose compares the window as a sorted multiset. *)
let rec lex_perms pos pa pb w k =
  if k >= w then 0
  else
    let c = Int.compare pos.(pa.(k)) pos.(pb.(k)) in
    if c <> 0 then c else lex_perms pos pa pb w (k + 1)

let compare_perms flavour ~w s pa pb =
  let pos = s.pos in
  match flavour with
  | Permutation -> lex_perms pos pa pb w 0
  | Choose ->
      let a = s.key_a and b = s.key_b in
      for k = 0 to w - 1 do
        a.(k) <- pos.(pa.(k));
        b.(k) <- pos.(pb.(k))
      done;
      let insort v =
        for i = 1 to w - 1 do
          let x = v.(i) in
          let j = ref (i - 1) in
          while !j >= 0 && v.(!j) > x do
            v.(!j + 1) <- v.(!j);
            decr j
          done;
          v.(!j + 1) <- x
        done
      in
      insort a;
      insort b;
      let rec lex k =
        if k >= w then 0
        else
          let c = Int.compare a.(k) b.(k) in
          if c <> 0 then c else lex (k + 1)
      in
      lex 0

(* Cursor selection (DESIGN.md §11). An item's key class is the first [w]
   dims of its descending dimension permutation (Permutation) or the set
   of those dims (Choose). A bin ranking is a bijection on dimensions, so
   under any ranking two items tie iff they share a class, and the
   selection rule's pick — the earliest fitting unplaced item among those
   of smallest key — is the earliest fitting unplaced item of the
   smallest-key class that has one. A bin's load only grows while it fills (demands are
   non-negative), so an item that does not fit stays unfit until the bin
   closes: each class cursor only moves forward within a bin, and a bin
   costs one pass over the unplaced items plus, per select pass, one fits
   test and one key comparison per class. *)
let pack_cursors s flavour ~window ranking ~bins ~items =
  let n_items = Array.length items in
  let max_id =
    Array.fold_left (fun acc (it : Item.t) -> max acc it.Item.id) (-1) items
  in
  let dims = Array.fold_left (fun acc b -> max acc (Bin.dim b)) 1 bins in
  ensure_capacity s ~n_items:(max n_items (max_id + 1)) ~dims;
  let w =
    if n_items = 0 then window
    else min window (Vec.Epair.dim items.(0).Item.demand)
  in
  let f0, w0 = s.spec in
  if f0 <> flavour || w0 <> w then begin
    scratch_new_probe s;
    s.spec <- (flavour, w)
  end;
  let members = s.members and first = s.first and stop = s.stop
  and cursor = s.cursor and live = s.live in
  (* Counting sort of the item indices by class: [stop] counts, then
     advances as each class's segment fills. *)
  Array.fill stop 0 (Array.length stop) 0;
  Array.iter
    (fun it ->
      let c = class_id s flavour ~w it in
      stop.(c) <- stop.(c) + 1)
    items;
  let n_live = ref 0 and next = ref 0 in
  for c = 0 to s.n_classes - 1 do
    first.(c) <- !next;
    next := !next + stop.(c);
    if stop.(c) > 0 then begin
      live.(!n_live) <- c;
      incr n_live
    end;
    stop.(c) <- first.(c)
  done;
  Array.iteri
    (fun j (it : Item.t) ->
      let c = s.class_of.(it.Item.id) in
      members.(stop.(c)) <- j;
      stop.(c) <- stop.(c) + 1)
    items;
  let left = ref n_items in
  let fill_bin bin =
    for i = 0 to !n_live - 1 do
      cursor.(live.(i)) <- first.(live.(i))
    done;
    let rec select () =
      if !left > 0 then begin
        Obs.Metrics.incr c_attempts;
        fill_positions ranking s bin;
        let best = ref (-1) in
        for i = 0 to !n_live - 1 do
          let c = live.(i) in
          let k = ref cursor.(c) in
          while !k < stop.(c) && not (Bin.fits bin items.(members.(!k))) do
            incr k
          done;
          cursor.(c) <- !k;
          if !k < stop.(c) then begin
            Obs.Metrics.incr c_keys;
            if
              !best < 0
              || compare_perms flavour ~w s s.reps.(c) s.reps.(!best) < 0
            then best := c
          end
        done;
        if !best >= 0 then begin
          let k = cursor.(!best) in
          Obs.Metrics.incr c_placed;
          Bin.place bin items.(members.(k));
          members.(k) <- -1;
          cursor.(!best) <- k + 1;
          decr left;
          select ()
        end
      end
    in
    select ();
    (* Drop the bin's placements from the class lists (all lie before the
       cursors) and retire the classes they emptied. *)
    let kept = ref 0 in
    for i = 0 to !n_live - 1 do
      let c = live.(i) in
      let wr = ref first.(c) in
      for k = first.(c) to cursor.(c) - 1 do
        if members.(k) >= 0 then begin
          members.(!wr) <- members.(k);
          incr wr
        end
      done;
      let tail = stop.(c) - cursor.(c) in
      Array.blit members cursor.(c) members !wr tail;
      stop.(c) <- !wr + tail;
      if stop.(c) > first.(c) then begin
        live.(!kept) <- c;
        incr kept
      end
    done;
    n_live := !kept
  in
  Array.iter fill_bin bins;
  !left = 0

let pack ?(flavour = Permutation) ?window ?(ranking = By_load) ~scratch ~bins
    ~items () =
  let window =
    match window with
    | Some w ->
        if w <= 0 then invalid_arg "Permutation_pack.pack: window must be > 0";
        w
    | None ->
        if Array.length items = 0 then 1
        else Vec.Epair.dim items.(0).Item.demand
  in
  pack_cursors scratch flavour ~window ranking ~bins ~items
