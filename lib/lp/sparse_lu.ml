(* Markowitz sparse LU + Forrest–Tomlin updates. See sparse_lu.mli for the
   contract and DESIGN.md §15 for the full derivation.

   Index spaces, fixed throughout this file:
   - "row"  — a row of the input matrix (0..m-1), the space FTRAN inputs
     and BTRAN outputs live in;
   - "bpos" — a column of the input matrix, i.e. a basis position, the
     space FTRAN outputs and BTRAN inputs live in;
   - "slot" — an elimination step of [factor]. Slot k owns pivot row
     [pr.(k)], pivot column [bpos_of_slot.(k)], the diagonal [diag.(k)]
     and the U row [urows.(k)];
   - "position" — the current triangular ordering of slots ([order] /
     [pos_of_slot]). At factor time position = slot; every Forrest–Tomlin
     update cyclically moves one slot to the last position.

   The triangularity invariant that every solve relies on: each entry
   [(c, _)] of [urows.(s)] satisfies
   [pos_of_slot.(slot_of_bpos.(c)) > pos_of_slot.(s)]. [factor]
   establishes it (a pivot row's surviving columns are pivoted at later
   steps) and [update] preserves it (the replaced column moves to the last
   position before its new entries are inserted). *)

let rel_singular_tol = 1e-11

(* Threshold-pivoting relaxation: an entry is pivot-eligible when it is
   within this factor of its column's largest active entry. *)
let tau = 0.1

let unstable_tol = 1e-10

exception Singular
exception Unstable

(* Growable (index, value) pair array: the storage for working rows during
   factorization and for U rows afterwards. *)
type pairs = {
  mutable ia : int array;
  mutable va : float array;
  mutable len : int;
}

let pairs_make () = { ia = [||]; va = [||]; len = 0 }

(* Empty, with room for exactly [n] pairs. *)
let pairs_sized n = { ia = Array.make n 0; va = Array.make n 0.; len = 0 }

let pairs_grow p =
  let cap = if p.len = 0 then 4 else 2 * p.len in
  let ia = Array.make cap 0 and va = Array.make cap 0. in
  Array.blit p.ia 0 ia 0 p.len;
  Array.blit p.va 0 va 0 p.len;
  p.ia <- ia;
  p.va <- va

(* Inlined at every call, so [v] is stored without being boxed. *)
let[@inline] pairs_push p i v =
  if p.len = Array.length p.ia then pairs_grow p;
  p.ia.(p.len) <- i;
  p.va.(p.len) <- v;
  p.len <- p.len + 1

let pairs_clear p = p.len <- 0

let pairs_swap a b =
  let ia = a.ia and va = a.va and len = a.len in
  a.ia <- b.ia;
  a.va <- b.va;
  a.len <- b.len;
  b.ia <- ia;
  b.va <- va;
  b.len <- len

(* Index of column [j] in the column-sorted row [r], or [r.len] when the
   row does not hold it. *)
let pairs_find r j =
  let lo = ref 0 and hi = ref r.len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if r.ia.(mid) < j then lo := mid + 1 else hi := mid
  done;
  if !lo < r.len && r.ia.(!lo) = j then !lo else r.len

type ints = { mutable a : int array; mutable n : int }

let ints_make () = { a = [||]; n = 0 }

let ints_push s i =
  if s.n = Array.length s.a then begin
    let cap = if s.n = 0 then 4 else 2 * s.n in
    let a = Array.make cap 0 in
    Array.blit s.a 0 a 0 s.n;
    s.a <- a
  end;
  s.a.(s.n) <- i;
  s.n <- s.n + 1

(* Sorts [s] ascending in place; a list that is already sorted, the usual
   case, costs one pass and no allocation. *)
let ints_sort s =
  let sorted = ref true in
  for e = 1 to s.n - 1 do
    if s.a.(e - 1) > s.a.(e) then sorted := false
  done;
  if not !sorted then begin
    let a = Array.sub s.a 0 s.n in
    Array.sort Int.compare a;
    Array.blit a 0 s.a 0 s.n
  end

(* Pivot candidates of [factor]: a binary min-heap of quadruples
   (cost, j·m + i, row stamp, column stamp) flattened into one int array,
   ordered by (cost, column, row). *)
type heap = { mutable h : int array; mutable hn : int }

let heap_push hp cost key rs cs =
  if 4 * (hp.hn + 1) > Array.length hp.h then begin
    let h = Array.make (max 64 (2 * Array.length hp.h)) 0 in
    Array.blit hp.h 0 h 0 (4 * hp.hn);
    hp.h <- h
  end;
  let h = hp.h in
  let i = ref hp.hn in
  hp.hn <- hp.hn + 1;
  let climbing = ref true in
  while !climbing && !i > 0 do
    let p = (!i - 1) / 2 in
    let pc = h.(4 * p) in
    if cost < pc || (cost = pc && key < h.((4 * p) + 1)) then begin
      let b = 4 * !i and bp = 4 * p in
      h.(b) <- pc;
      h.(b + 1) <- h.(bp + 1);
      h.(b + 2) <- h.(bp + 2);
      h.(b + 3) <- h.(bp + 3);
      i := p
    end
    else climbing := false
  done;
  let b = 4 * !i in
  h.(b) <- cost;
  h.(b + 1) <- key;
  h.(b + 2) <- rs;
  h.(b + 3) <- cs

(* Drops the minimum, whose fields the caller has read from [h.(0..3)]. *)
let heap_pop hp =
  let h = hp.h in
  let n = hp.hn - 1 in
  hp.hn <- n;
  if n > 0 then begin
    let lb = 4 * n in
    let cost = h.(lb) and key = h.(lb + 1) in
    let rs = h.(lb + 2) and cs = h.(lb + 3) in
    let i = ref 0 and sinking = ref true in
    while !sinking do
      let l = (2 * !i) + 1 in
      if l >= n then sinking := false
      else begin
        let c =
          if l + 1 < n then begin
            let cl = h.(4 * l) and cr = h.(4 * (l + 1)) in
            if cr < cl || (cr = cl && h.((4 * (l + 1)) + 1) < h.((4 * l) + 1))
            then l + 1
            else l
          end
          else l
        in
        let cc = h.(4 * c) in
        if cc < cost || (cc = cost && h.((4 * c) + 1) < key) then begin
          let b = 4 * !i and bc = 4 * c in
          h.(b) <- cc;
          h.(b + 1) <- h.(bc + 1);
          h.(b + 2) <- h.(bc + 2);
          h.(b + 3) <- h.(bc + 3);
          i := c
        end
        else sinking := false
      end
    done;
    let b = 4 * !i in
    h.(b) <- cost;
    h.(b + 1) <- key;
    h.(b + 2) <- rs;
    h.(b + 3) <- cs
  end

(* One Forrest–Tomlin row eta: after L (and earlier etas), subtract
   [coefs.(q) * v.(slots.(q))] from [v.(tgt)]. *)
type ft_eta = { tgt : int; slots : int array; coefs : float array }

type t = {
  m : int;
  (* L as column etas in elimination-step order, over original row ids. *)
  l_ptr : int array;
  l_rows : int array;
  l_vals : float array;
  pr : int array;            (* slot -> pivot row *)
  bpos_of_slot : int array;
  slot_of_bpos : int array;
  urows : pairs array;       (* per slot: off-diagonal (bpos, value) *)
  diag : float array;        (* per slot *)
  ucols : ints array;        (* per bpos: candidate slots (may be stale) *)
  order : int array;         (* position -> slot *)
  pos_of_slot : int array;
  mutable etas : ft_eta array;
  mutable n_etas : int;
  v_basis_nnz : int;
  v_fresh_nnz : int;
  mutable v_nnz : int;
  mutable v_updates : int;
  v_flops : int;
  (* Scratch. [acc] is kept all-zero between calls. *)
  w : float array;
  acc : float array;
  spike : float array;
  mutable spike_ok : bool;
}

let size t = t.m
let basis_nnz t = t.v_basis_nnz
let nnz t = t.v_nnz
let fill_in t = t.v_fresh_nnz - t.v_basis_nnz
let flops t = t.v_flops
let updates t = t.v_updates

(* The working storage of [factor]: the active submatrix ([rows], [cols]),
   its column scales, counts and maxima, the row and column stamps, the
   pivot heap, L's buffer and the merge scratch, and [update]'s row-eta
   scratch. A factor keeps none of it, so it lives across factorizations,
   one per domain (a [Domain.DLS] key; [factor] never yields, and [col]
   must not call it). Its buffers grow to the largest factorization the
   domain has run and are reset, not reallocated, at the start of each
   [factor], so a [Singular] raised mid-elimination leaves nothing
   behind. *)
type work = {
  mutable cap : int;  (* rows and columns the arrays below have room for *)
  mutable rows : pairs array;
  mutable cols : ints array;
  mutable col_scale : float array;
  mutable col_cnt : int array;
  mutable col_max : float array;
  mutable row_stamp : int array;
  mutable col_stamp : int array;
  heap : heap;
  l : pairs;
  scratch : pairs;
  elim : ints;
  unchanged : pairs;
  row_eta : pairs;
}

let work_key =
  Domain.DLS.new_key (fun () ->
      {
        cap = 0;
        rows = [||];
        cols = [||];
        col_scale = [||];
        col_cnt = [||];
        col_max = [||];
        row_stamp = [||];
        col_stamp = [||];
        heap = { h = [||]; hn = 0 };
        l = pairs_make ();
        scratch = pairs_make ();
        elim = ints_make ();
        unchanged = pairs_make ();
        row_eta = pairs_make ();
      })

(* The calling domain's workspace, with room for [m] rows and columns and
   an empty active submatrix, heap and L. *)
let work m =
  let w = Domain.DLS.get work_key in
  if m > w.cap then begin
    let extend a fresh =
      Array.init m (fun i -> if i < w.cap then a.(i) else fresh ())
    in
    w.rows <- extend w.rows pairs_make;
    w.cols <- extend w.cols ints_make;
    w.col_scale <- Array.make m 0.;
    w.col_cnt <- Array.make m 0;
    w.col_max <- Array.make m 0.;
    w.row_stamp <- Array.make m 0;
    w.col_stamp <- Array.make m 0;
    w.cap <- m
  end;
  for i = 0 to m - 1 do
    w.rows.(i).len <- 0;
    w.cols.(i).n <- 0;
    w.col_scale.(i) <- 0.;
    w.row_stamp.(i) <- 0;
    w.col_stamp.(i) <- 0
  done;
  w.heap.hn <- 0;
  w.l.len <- 0;
  w

(* Entry (i, j) of the active submatrix, whose value is [va.(e)], as a
   Markowitz pivot candidate when it is threshold-eligible; the heap
   breaks ties lexicographically on (cost, column, row). The value is read
   here, so no float crosses a call. *)
let push_entry w m i j va e =
  if Float.abs va.(e) >= tau *. w.col_max.(j) then
    heap_push w.heap
      ((w.rows.(i).len - 1) * (w.col_cnt.(j) - 1))
      ((j * m) + i) w.row_stamp.(i) w.col_stamp.(j)

(* Right-looking elimination in time proportional to the entries each step
   touches. The active submatrix is held twice: sorted rows with values
   ([rows]) and, per column, the list of active rows holding it ([cols],
   kept exact: no pivoted row, no row whose entry cancelled, no repeats).
   Step k changes only the rows holding the pivot column and the counts
   and maxima of the columns of the pivot row (its U row), so only those
   are recomputed. Every eligible entry sits in [heap] under its Markowitz
   key, stamped with the step that last changed its row ([row_stamp]) and
   its column ([col_stamp]); an entry whose stamps no longer match is
   stale and skipped when popped, and the pivoted row and column get the
   stamp -1. The pivot, the merges, the L column order (ascending rows),
   the U rows and the counters are those of a full rescan of the active
   submatrix at every step. All of it is workspace; the arrays the factor
   keeps are allocated once each, at their final size. *)
let factor ~size:m ~col =
  let w = work m in
  let rows = w.rows and cols = w.cols in
  let col_scale = w.col_scale and col_cnt = w.col_cnt and col_max = w.col_max in
  let row_stamp = w.row_stamp and col_stamp = w.col_stamp in
  let heap = w.heap in
  let loading = ref 0 in
  let load i v =
    if v <> 0. then begin
      if i >= m then invalid_arg "Sparse_lu.factor: row out of range";
      let j = !loading in
      pairs_push rows.(i) j v;
      ints_push cols.(j) i;
      let av = Float.abs v in
      if av > col_scale.(j) then col_scale.(j) <- av
    end
  in
  for j = 0 to m - 1 do
    loading := j;
    col j load
  done;
  let basis_nnz = ref 0 in
  for j = 0 to m - 1 do
    if col_scale.(j) = 0. then raise Singular;
    col_cnt.(j) <- cols.(j).n;
    col_max.(j) <- col_scale.(j);
    basis_nnz := !basis_nnz + cols.(j).n
  done;
  for i = 0 to m - 1 do
    let r = rows.(i) in
    for e = 0 to r.len - 1 do
      push_entry w m i r.ia.(e) r.va e
    done
  done;
  let pr = Array.make m 0 and pc = Array.make m 0 in
  let l_ptr = Array.make (m + 1) 0 in
  let l = w.l in
  let scratch = w.scratch and elim = w.elim and unchanged = w.unchanged in
  (* Step k sets U row k; [scratch] only fills the array until then. *)
  let urows = Array.make m scratch in
  let diag = Array.make m 0. in
  let flops = ref 0 in
  for k = 0 to m - 1 do
    (* Every active column's max entry is threshold-eligible, so while the
       singularity test below holds the heap has a live entry. *)
    let pi = ref (-1) and pj = ref (-1) in
    while !pi < 0 do
      assert (heap.hn > 0);
      let key = heap.h.(1) in
      let i = key mod m and j = key / m in
      if row_stamp.(i) = heap.h.(2) && col_stamp.(j) = heap.h.(3) then begin
        pi := i;
        pj := j
      end;
      heap_pop heap
    done;
    let pi = !pi and pj = !pj in
    pr.(k) <- pi;
    pc.(k) <- pj;
    row_stamp.(pi) <- -1;
    col_stamp.(pj) <- -1;
    (* The pivot row (minus the pivot) becomes U row k. Its surviving
       columns are pivoted at later steps, giving the triangularity
       invariant. *)
    let prow = rows.(pi) in
    let u = pairs_sized (prow.len - 1) in
    urows.(k) <- u;
    let piv = ref 0. in
    for e = 0 to prow.len - 1 do
      if prow.ia.(e) <> pj then pairs_push u prow.ia.(e) prow.va.(e)
      else piv := prow.va.(e)
    done;
    let piv = !piv in
    diag.(k) <- piv;
    (* Eliminate column pj from the other rows holding it, in ascending
       row order (the order of L's column k, which BTRAN sums in), by a
       sorted merge against the pivot row; exact cancellations are dropped
       so fill-in reflects structural nonzeros only. *)
    let cj = cols.(pj) in
    elim.n <- 0;
    for q = 0 to cj.n - 1 do
      if cj.a.(q) <> pi then ints_push elim cj.a.(q)
    done;
    ints_sort elim;
    for q = 0 to elim.n - 1 do
      let i = elim.a.(q) in
      let r = rows.(i) in
      let f = r.va.(pairs_find r pj) /. piv in
      pairs_push l i f;
      flops := !flops + 1 + u.len;
      pairs_clear scratch;
      let a = ref 0 and bq = ref 0 in
      while !a < r.len || !bq < u.len do
        let ca = if !a < r.len then r.ia.(!a) else max_int in
        let cb = if !bq < u.len then u.ia.(!bq) else max_int in
        if ca < cb then begin
          if ca <> pj then pairs_push scratch ca r.va.(!a);
          incr a
        end
        else if cb < ca then begin
          let v = -.(f *. u.va.(!bq)) in
          if v <> 0. then begin
            pairs_push scratch cb v;
            ints_push cols.(cb) i
          end;
          incr bq
        end
        else begin
          let v = r.va.(!a) -. (f *. u.va.(!bq)) in
          if v <> 0. then pairs_push scratch ca v;
          incr a;
          incr bq
        end
      done;
      pairs_swap r scratch;
      row_stamp.(i) <- k + 1
    done;
    l_ptr.(k + 1) <- l.len;
    (* Recount the pivot row's columns, the only ones whose active entries
       changed, dropping the pivot row and rows whose entry cancelled. A
       row joins a column's list only by fill, which needs the entry to be
       absent, and each list is made exact here at every step that touches
       it, so a row that cancels an entry and regains it by later fill is
       listed once. A column whose remaining entries are all tiny relative
       to its original magnitude is numerically dependent on the columns
       already pivoted — singular, whatever its absolute scale. Its
       unchanged rows get fresh candidates here; the changed rows get them
       below, once every count is final. *)
    for e = 0 to u.len - 1 do
      let j = u.ia.(e) in
      let cj = cols.(j) in
      let n = ref 0 and mx = ref 0. in
      pairs_clear unchanged;
      for q = 0 to cj.n - 1 do
        let i = cj.a.(q) in
        if row_stamp.(i) >= 0 then begin
          let r = rows.(i) in
          let p = pairs_find r j in
          if p < r.len then begin
            cj.a.(!n) <- i;
            incr n;
            let v = r.va.(p) in
            if row_stamp.(i) <> k + 1 then pairs_push unchanged i v;
            let av = Float.abs v in
            if av > !mx then mx := av
          end
        end
      done;
      cj.n <- !n;
      if !mx < rel_singular_tol *. col_scale.(j) then raise Singular;
      col_cnt.(j) <- !n;
      col_max.(j) <- !mx;
      col_stamp.(j) <- k + 1;
      for q = 0 to unchanged.len - 1 do
        push_entry w m unchanged.ia.(q) j unchanged.va q
      done
    done;
    for q = 0 to elim.n - 1 do
      let i = elim.a.(q) in
      let r = rows.(i) in
      for e = 0 to r.len - 1 do
        push_entry w m i r.ia.(e) r.va e
      done
    done
  done;
  let slot_of_bpos = Array.make m 0 in
  for k = 0 to m - 1 do
    slot_of_bpos.(pc.(k)) <- k
  done;
  (* U's column lists at their final lengths: count (in [col_cnt], free
     now), then fill in ascending slot order. *)
  let u_nnz = ref m in
  Array.fill col_cnt 0 m 0;
  for s = 0 to m - 1 do
    let u = urows.(s) in
    u_nnz := !u_nnz + u.len;
    for e = 0 to u.len - 1 do
      col_cnt.(u.ia.(e)) <- col_cnt.(u.ia.(e)) + 1
    done
  done;
  let ucols = Array.init m (fun c -> { a = Array.make col_cnt.(c) 0; n = 0 }) in
  for s = 0 to m - 1 do
    let u = urows.(s) in
    for e = 0 to u.len - 1 do
      ints_push ucols.(u.ia.(e)) s
    done
  done;
  let fresh = l.len + !u_nnz in
  {
    m;
    l_ptr;
    l_rows = Array.sub l.ia 0 l.len;
    l_vals = Array.sub l.va 0 l.len;
    pr;
    bpos_of_slot = pc;
    slot_of_bpos;
    urows;
    diag;
    ucols;
    order = Array.init m Fun.id;
    pos_of_slot = Array.init m Fun.id;
    etas = [||];
    n_etas = 0;
    v_basis_nnz = !basis_nnz;
    v_fresh_nnz = fresh;
    v_nnz = fresh;
    v_updates = 0;
    v_flops = !flops;
    w = Array.make m 0.;
    acc = Array.make m 0.;
    spike = Array.make m 0.;
    spike_ok = false;
  }

(* L, the pivot rows and the slot maps never change after [factor], so the
   copy shares them; everything [update], [ftran] and [btran] write is
   duplicated. Eta records are immutable once pushed. *)
let copy t =
  let copy_pairs p =
    { ia = Array.copy p.ia; va = Array.copy p.va; len = p.len }
  in
  {
    t with
    urows = Array.map copy_pairs t.urows;
    diag = Array.copy t.diag;
    ucols = Array.map (fun s -> { a = Array.copy s.a; n = s.n }) t.ucols;
    order = Array.copy t.order;
    pos_of_slot = Array.copy t.pos_of_slot;
    etas = Array.copy t.etas;
    w = Array.copy t.w;
    acc = Array.copy t.acc;
    spike = Array.copy t.spike;
  }

let ftran_gen t ~stash v =
  let m = t.m in
  (* L solve, in place over original rows. *)
  for k = 0 to m - 1 do
    let x = v.(t.pr.(k)) in
    if x <> 0. then
      for e = t.l_ptr.(k) to t.l_ptr.(k + 1) - 1 do
        let i = t.l_rows.(e) in
        v.(i) <- v.(i) -. (t.l_vals.(e) *. x)
      done
  done;
  (* Permute into slot space, then apply the Forrest–Tomlin row etas in
     recording order. *)
  let w = t.w in
  for k = 0 to m - 1 do
    w.(k) <- v.(t.pr.(k))
  done;
  for e = 0 to t.n_etas - 1 do
    let eta = t.etas.(e) in
    let acc = ref w.(eta.tgt) in
    for q = 0 to Array.length eta.slots - 1 do
      acc := !acc -. (eta.coefs.(q) *. w.(eta.slots.(q)))
    done;
    w.(eta.tgt) <- !acc
  done;
  if stash then begin
    Array.blit w 0 t.spike 0 m;
    t.spike_ok <- true
  end;
  (* U back-substitution in descending position order, writing the result
     into [v] indexed by basis position; each row's entries reference
     strictly later positions, already final. *)
  for pos = m - 1 downto 0 do
    let s = t.order.(pos) in
    let u = t.urows.(s) in
    let acc = ref w.(s) in
    for e = 0 to u.len - 1 do
      acc := !acc -. (u.va.(e) *. v.(u.ia.(e)))
    done;
    v.(t.bpos_of_slot.(s)) <- !acc /. t.diag.(s)
  done

let ftran t v = ftran_gen t ~stash:false v
let ftran_entering t v = ftran_gen t ~stash:true v

let btran t v =
  let m = t.m in
  let w = t.w in
  for s = 0 to m - 1 do
    w.(s) <- v.(t.bpos_of_slot.(s))
  done;
  (* U^T is lower triangular in position order: forward scatter. *)
  for pos = 0 to m - 1 do
    let s = t.order.(pos) in
    let z = w.(s) /. t.diag.(s) in
    w.(s) <- z;
    if z <> 0. then begin
      let u = t.urows.(s) in
      for e = 0 to u.len - 1 do
        let sc = t.slot_of_bpos.(u.ia.(e)) in
        w.(sc) <- w.(sc) -. (u.va.(e) *. z)
      done
    end
  done;
  (* Transposed etas in reverse recording order. *)
  for e = t.n_etas - 1 downto 0 do
    let eta = t.etas.(e) in
    let x = w.(eta.tgt) in
    if x <> 0. then
      for q = 0 to Array.length eta.slots - 1 do
        let s = eta.slots.(q) in
        w.(s) <- w.(s) -. (eta.coefs.(q) *. x)
      done
  done;
  (* Back to original rows, then the L^T solve: a step's L rows are
     pivoted at later steps, so descending order makes them final. *)
  for k = 0 to m - 1 do
    v.(t.pr.(k)) <- w.(k)
  done;
  for k = m - 1 downto 0 do
    let acc = ref v.(t.pr.(k)) in
    for e = t.l_ptr.(k) to t.l_ptr.(k + 1) - 1 do
      acc := !acc -. (t.l_vals.(e) *. v.(t.l_rows.(e)))
    done;
    v.(t.pr.(k)) <- !acc
  done

let push_ft_eta t eta =
  if t.n_etas = Array.length t.etas then begin
    let cap = if t.n_etas = 0 then 8 else 2 * t.n_etas in
    let dummy = { tgt = 0; slots = [||]; coefs = [||] } in
    let etas = Array.make cap dummy in
    Array.blit t.etas 0 etas 0 t.n_etas;
    t.etas <- etas
  end;
  t.etas.(t.n_etas) <- eta;
  t.n_etas <- t.n_etas + 1

let update t ~pos:p =
  if not t.spike_ok then invalid_arg "Sparse_lu.update: no entering column";
  t.spike_ok <- false;
  let m = t.m in
  let s_t = t.slot_of_bpos.(p) in
  let tpos = t.pos_of_slot.(s_t) in
  (* Row-eta solve: forward-eliminate row s_t against the rows at later
     positions. [acc] is a sparse scatter over slots; every touched cell
     is re-zeroed, keeping the scratch clean. *)
  let acc = t.acc in
  let row_t = t.urows.(s_t) in
  for e = 0 to row_t.len - 1 do
    acc.(t.slot_of_bpos.(row_t.ia.(e))) <- row_t.va.(e)
  done;
  let r_coefs = (Domain.DLS.get work_key).row_eta in
  pairs_clear r_coefs;
  for q = tpos + 1 to m - 1 do
    let s_q = t.order.(q) in
    let a = acc.(s_q) in
    if a <> 0. then begin
      acc.(s_q) <- 0.;
      let r = a /. t.diag.(s_q) in
      pairs_push r_coefs s_q r;
      let u = t.urows.(s_q) in
      for e = 0 to u.len - 1 do
        let sc = t.slot_of_bpos.(u.ia.(e)) in
        acc.(sc) <- acc.(sc) -. (u.va.(e) *. r)
      done
    end
  done;
  (* New diagonal of the (relocated) row from the spike, with a relative
     stability check; nothing has been mutated yet, so Unstable leaves the
     factor intact for the caller to refactorize. *)
  let spike = t.spike in
  let d = ref spike.(s_t) in
  for e = 0 to r_coefs.len - 1 do
    d := !d -. (r_coefs.va.(e) *. spike.(r_coefs.ia.(e)))
  done;
  let d = !d in
  let smax = ref 0. in
  for s = 0 to m - 1 do
    let a = Float.abs spike.(s) in
    if a > !smax then smax := a
  done;
  if Float.abs d < unstable_tol *. Float.max 1. !smax then raise Unstable;
  (* Commit. 1: the replaced column disappears from earlier rows (rows at
     later positions cannot hold it, by triangularity; stale candidate
     slots are skipped by the filter). *)
  let uc = t.ucols.(p) in
  for e = 0 to uc.n - 1 do
    let s = uc.a.(e) in
    if s <> s_t then begin
      let u = t.urows.(s) in
      let w = ref 0 in
      for r = 0 to u.len - 1 do
        if u.ia.(r) <> p then begin
          u.ia.(!w) <- u.ia.(r);
          u.va.(!w) <- u.va.(r);
          incr w
        end
      done;
      t.v_nnz <- t.v_nnz - (u.len - !w);
      u.len <- !w
    end
  done;
  (* 2: clear the spiked row; its off-diagonals now live in the eta. *)
  t.v_nnz <- t.v_nnz - row_t.len;
  pairs_clear row_t;
  t.diag.(s_t) <- d;
  (* 3: the spike becomes the new column p, legal everywhere because p is
     about to take the last position. *)
  uc.n <- 0;
  for s = 0 to m - 1 do
    if s <> s_t && spike.(s) <> 0. then begin
      pairs_push t.urows.(s) p spike.(s);
      ints_push uc s;
      t.v_nnz <- t.v_nnz + 1
    end
  done;
  (* 4: record the row eta and cyclically shift position tpos to the
     end. *)
  push_ft_eta t
    {
      tgt = s_t;
      slots = Array.sub r_coefs.ia 0 r_coefs.len;
      coefs = Array.sub r_coefs.va 0 r_coefs.len;
    };
  t.v_nnz <- t.v_nnz + r_coefs.len;
  for q = tpos to m - 2 do
    let s = t.order.(q + 1) in
    t.order.(q) <- s;
    t.pos_of_slot.(s) <- q
  done;
  t.order.(m - 1) <- s_t;
  t.pos_of_slot.(s_t) <- m - 1;
  t.v_updates <- t.v_updates + 1
