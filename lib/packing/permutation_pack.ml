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
   windows) live in reusable buffers. A scratch must only be used from
   one domain at a time. *)
type scratch = {
  mutable memo_flavour : flavour;  (* the flavour the class memo holds *)
  mutable memo_w : int;  (* and its window *)
  mutable demands : int;  (* the state's demand stamp the memo holds *)
  mutable class_of : int array;  (* item id -> class id; -1 = unclassified *)
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
  { memo_flavour = Permutation; memo_w = 0; demands = -1; class_of = [||];
    reps = [||]; n_classes = 0; members = [||]; first = [||]; stop = [||];
    cursor = [||]; live = [||]; pos = [||]; vals = [||]; order = [||];
    key_a = [||]; key_b = [||] }

let forget_classes s =
  Array.fill s.class_of 0 (Array.length s.class_of) (-1);
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
    forget_classes s
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

(* [s.pos] := the rank of each dimension in bin [b]'s preference order
   (0 = the dimension we most want demand in): ascending load, or
   descending remaining capacity, the clamped [cap - load] the running
   sums fold. *)
let fill_positions ranking s (t : State.t) b =
  let d = t.dims and o = b * t.dims in
  (match ranking with
  | By_load ->
      Array.blit t.load o s.vals 0 d;
      fill_order ~desc:false s d
  | By_remaining_capacity ->
      for i = 0 to d - 1 do
        s.vals.(i) <- Float.max 0. (t.cap.(o + i) -. t.load.(o + i))
      done;
      fill_order ~desc:true s d);
  for r = 0 to d - 1 do
    s.pos.(s.order.(r)) <- r
  done

(* Whether the permutations [order] and [rep] share a key class: the
   same first [w] dimensions (Permutation), or the same set of them
   (Choose). Top-level recursion, so a test allocates nothing. *)
let rec in_window rep w x i =
  i < w && (rep.(i) = x || in_window rep w x (i + 1))

let rec same_key flavour ~w order rep k =
  k >= w
  || (match flavour with
     | Permutation -> order.(k) = rep.(k)
     | Choose -> in_window rep w order.(k) 0)
     && same_key flavour ~w order rep (k + 1)

(* The class id of item [j] under the memo's (flavour, w), computing and
   memoizing it on first sight this probe: the item's descending-demand
   permutation goes into [s.order] through the insertion sort the bin
   rankings use, and is matched against the classes seen so far, in the
   order they were first seen (at most two at D = 2). Only a class's
   first member allocates, for the class's representative. *)
let class_id s flavour ~w (t : State.t) j =
  let c = s.class_of.(j) in
  if c >= 0 then c
  else begin
    let d = t.dims and o = j * t.dims in
    for i = 0 to d - 1 do
      if t.agg.(o + i) < 0. then
        invalid_arg "Permutation_pack.pack: negative demand";
      s.vals.(i) <- t.agg.(o + i)
    done;
    fill_order ~desc:true s d;
    let c = ref 0 in
    while
      !c < s.n_classes && not (same_key flavour ~w s.order s.reps.(!c) 0)
    do
      incr c
    done;
    if !c = s.n_classes then begin
      s.reps.(!c) <- Array.sub s.order 0 d;
      s.n_classes <- !c + 1
    end;
    s.class_of.(j) <- !c;
    !c
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

(* [Fit.fits], repeated here so the cursor scan below, which makes most
   of a probe's fits tests, makes no call into another module (dune's
   default profile builds the library -opaque). *)
let fits (t : State.t) b j =
  let d = t.dims in
  let ob = b * d and oj = j * d in
  let i = ref 0 in
  while
    !i < d
    && t.elem.(oj + !i) <= t.elem_lim.(ob + !i)
    && t.load.(ob + !i) +. t.agg.(oj + !i) <= t.agg_lim.(ob + !i)
  do
    incr i
  done;
  !i = d

(* Cursor selection (DESIGN.md §11). An item's key class is the first [w]
   dims of its descending dimension permutation (Permutation) or the set
   of those dims (Choose). A bin ranking is a bijection on dimensions, so
   under any ranking two items tie iff they share a class, and the
   selection rule's pick — the earliest fitting unplaced item among those
   of smallest key — is the earliest fitting unplaced item of the
   smallest-key class that has one. A bin's load only grows while it
   fills (demands are non-negative), so an item that does not fit stays
   unfit until the bin closes: each class cursor only moves forward within
   a bin, and a bin costs one pass over the unplaced items plus, per
   select pass, one fits test and one key comparison per class. Plain
   loops, counting locally: a pack allocates only the representatives of
   classes first seen this probe. *)
let pack_cursors s flavour ~window ranking (t : State.t) ~bins ~items =
  let n_items = Array.length items in
  ensure_capacity s ~n_items:(max n_items t.n_items) ~dims:t.dims;
  let w = min window t.dims in
  if s.memo_flavour <> flavour || s.memo_w <> w || s.demands <> t.demands
  then begin
    forget_classes s;
    s.memo_flavour <- flavour;
    s.memo_w <- w;
    s.demands <- t.demands
  end;
  let members = s.members and first = s.first and stop = s.stop
  and cursor = s.cursor and live = s.live in
  (* Counting sort of the item indices by class: [stop] counts, then
     advances as each class's segment fills. *)
  Array.fill stop 0 (Array.length stop) 0;
  for k = 0 to n_items - 1 do
    let c = class_id s flavour ~w t items.(k) in
    stop.(c) <- stop.(c) + 1
  done;
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
  for k = 0 to n_items - 1 do
    let c = s.class_of.(items.(k)) in
    members.(stop.(c)) <- k;
    stop.(c) <- stop.(c) + 1
  done;
  let left = ref n_items and attempts = ref 0 and keys = ref 0 in
  for bi = 0 to Array.length bins - 1 do
    let b = bins.(bi) in
    for i = 0 to !n_live - 1 do
      cursor.(live.(i)) <- first.(live.(i))
    done;
    let filling = ref true in
    while !filling && !left > 0 do
      incr attempts;
      fill_positions ranking s t b;
      let best = ref (-1) in
      for i = 0 to !n_live - 1 do
        let c = live.(i) in
        let k = ref cursor.(c) in
        while !k < stop.(c) && not (fits t b items.(members.(!k))) do
          incr k
        done;
        cursor.(c) <- !k;
        if !k < stop.(c) then begin
          incr keys;
          if
            !best < 0
            || compare_perms flavour ~w s s.reps.(c) s.reps.(!best) < 0
          then best := c
        end
      done;
      if !best >= 0 then begin
        let k = cursor.(!best) in
        State.place t b items.(members.(k));
        members.(k) <- -1;
        cursor.(!best) <- k + 1;
        decr left
      end
      else filling := false
    done;
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
  done;
  Obs.Metrics.add c_attempts !attempts;
  Obs.Metrics.add c_keys !keys;
  Obs.Metrics.add c_placed (n_items - !left);
  !left = 0

let pack ?(flavour = Permutation) ?window ?(ranking = By_load) ~scratch t
    ~bins ~items () =
  let window =
    match window with
    | Some w ->
        if w <= 0 then invalid_arg "Permutation_pack.pack: window must be > 0";
        w
    | None -> t.State.dims
  in
  pack_cursors scratch flavour ~window ranking t ~bins ~items
