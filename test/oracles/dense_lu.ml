(* The revised simplex's original basis-inverse backend, kept as the
   factorization-level differential oracle of the sparse Markowitz LU. *)

module Factor = struct
  (* Dense LU with partial pivoting of the m x m basis matrix: [lu] stores
     L (unit diagonal, below) and U (on and above); [piv.(k)] is the row k
     was swapped with at step k; [flops] counts the multiply-subtracts the
     elimination spent. Singularity is relative to each column's original
     magnitude, as in {!Lp.Sparse_lu}, and raises the same exception. *)
  module Lu = struct
    type t = { lu : float array array; piv : int array; size : int;
               flops : int }

    let factor m fill =
      let a = Array.init m (fun _ -> Array.make m 0.) in
      fill a;
      (* Per-column magnitude of the original matrix: the singularity test
         below is relative to it, so a well-conditioned but small-magnitude
         basis (e.g. one from a row-scaled LP) factors fine where an
         absolute 1e-11 cutoff would reject it. *)
      let scale = Array.make m 0. in
      for j = 0 to m - 1 do
        for i = 0 to m - 1 do
          let av = Float.abs a.(i).(j) in
          if av > scale.(j) then scale.(j) <- av
        done
      done;
      let piv = Array.make m 0 in
      let flops = ref 0 in
      for k = 0 to m - 1 do
        let best = ref k in
        for i = k + 1 to m - 1 do
          if Float.abs a.(i).(k) > Float.abs a.(!best).(k) then best := i
        done;
        if scale.(k) = 0. || Float.abs a.(!best).(k) < 1e-11 *. scale.(k)
        then raise Lp.Sparse_lu.Singular;
        piv.(k) <- !best;
        if !best <> k then begin
          let t = a.(k) in
          a.(k) <- a.(!best);
          a.(!best) <- t
        end;
        let ak = a.(k) in
        let akk = ak.(k) in
        for i = k + 1 to m - 1 do
          let ai = a.(i) in
          let f = ai.(k) /. akk in
          ai.(k) <- f;
          if f <> 0. then begin
            flops := !flops + 1 + (m - 1 - k);
            for j = k + 1 to m - 1 do
              ai.(j) <- ai.(j) -. (f *. ak.(j))
            done
          end
        done
      done;
      { lu = a; piv; size = m; flops = !flops }

    (* v := B^-1 v  (PB = LU: apply P, solve L, solve U). *)
    let ftran t v =
      let m = t.size and a = t.lu in
      for k = 0 to m - 1 do
        let p = t.piv.(k) in
        if p <> k then begin
          let x = v.(k) in
          v.(k) <- v.(p);
          v.(p) <- x
        end
      done;
      for k = 0 to m - 1 do
        let vk = v.(k) in
        if vk <> 0. then
          for i = k + 1 to m - 1 do
            v.(i) <- v.(i) -. (a.(i).(k) *. vk)
          done
      done;
      for k = m - 1 downto 0 do
        let s = ref v.(k) in
        let ak = a.(k) in
        for j = k + 1 to m - 1 do
          s := !s -. (ak.(j) *. v.(j))
        done;
        v.(k) <- !s /. ak.(k)
      done

    (* v := B^-T v  (solve U^T, solve L^T, apply P^-1). *)
    let btran t v =
      let m = t.size and a = t.lu in
      for k = 0 to m - 1 do
        let s = ref v.(k) in
        for j = 0 to k - 1 do
          s := !s -. (a.(j).(k) *. v.(j))
        done;
        v.(k) <- !s /. a.(k).(k)
      done;
      for k = m - 1 downto 0 do
        let s = ref v.(k) in
        for i = k + 1 to m - 1 do
          s := !s -. (a.(i).(k) *. v.(i))
        done;
        v.(k) <- !s
      done;
      for k = m - 1 downto 0 do
        let p = t.piv.(k) in
        if p <> k then begin
          let x = v.(k) in
          v.(k) <- v.(p);
          v.(p) <- x
        end
      done
  end

  (* One product-form update: after the pivot B_new^-1 = E B_old^-1 where E is
     the identity with column [e_row] replaced by the eta vector derived from
     the FTRANed entering column [d] ([e_piv] = d.(e_row), off-pivot nonzeros
     in [e_idx]/[e_val]). *)
  type eta = {
    e_row : int;
    e_piv : float;
    e_idx : int array;
    e_val : float array;
  }

  let dummy_eta = { e_row = 0; e_piv = 1.; e_idx = [||]; e_val = [||] }

  let apply_eta_fwd eta v =
    let t = v.(eta.e_row) /. eta.e_piv in
    if t <> 0. then begin
      let idx = eta.e_idx and vals = eta.e_val in
      for k = 0 to Array.length idx - 1 do
        v.(idx.(k)) <- v.(idx.(k)) -. (vals.(k) *. t)
      done
    end;
    v.(eta.e_row) <- t

  let apply_eta_rev eta v =
    let idx = eta.e_idx and vals = eta.e_val in
    let acc = ref v.(eta.e_row) in
    for k = 0 to Array.length idx - 1 do
      acc := !acc -. (v.(idx.(k)) *. vals.(k))
    done;
    v.(eta.e_row) <- !acc /. eta.e_piv

  (* Each raw eta both slows FTRAN/BTRAN and compounds rounding error, so
     the file is bounded: a dense LU of the (small) basis every
     [refactor_every] pivots costs O(m^3 / refactor_every) amortized flops
     per pivot. *)
  let refactor_every = 64

  type t = {
    lu : Lu.t;
    etas : eta array;
    mutable n_etas : int;
    mutable entering : float array;  (* last FTRANed entering column *)
  }

  let factor ~size ~col =
    let lu =
      Lu.factor size (fun bmat ->
          for k = 0 to size - 1 do
            col k (fun i a -> bmat.(i).(k) <- bmat.(i).(k) +. a)
          done)
    in
    { lu; etas = Array.make refactor_every dummy_eta; n_etas = 0;
      entering = [||] }

  let ftran t v =
    Lu.ftran t.lu v;
    for k = 0 to t.n_etas - 1 do
      apply_eta_fwd t.etas.(k) v
    done

  let ftran_entering t v =
    ftran t v;
    t.entering <- Array.copy v

  let btran t v =
    for k = t.n_etas - 1 downto 0 do
      apply_eta_rev t.etas.(k) v
    done;
    Lu.btran t.lu v

  (* Append the eta of the last entering column, pivoting on row [pos]. *)
  let update t ~pos =
    let d_col = t.entering in
    let r = pos in
    let cnt = ref 0 in
    for i = 0 to Array.length d_col - 1 do
      if i <> r && Float.abs d_col.(i) > 1e-12 then incr cnt
    done;
    let idx = Array.make !cnt 0 and vals = Array.make !cnt 0. in
    let k = ref 0 in
    for i = 0 to Array.length d_col - 1 do
      if i <> r && Float.abs d_col.(i) > 1e-12 then begin
        idx.(!k) <- i;
        vals.(!k) <- d_col.(i);
        incr k
      end
    done;
    t.etas.(t.n_etas) <- { e_row = r; e_piv = d_col.(r); e_idx = idx;
                           e_val = vals };
    t.n_etas <- t.n_etas + 1;
    t.n_etas >= refactor_every

  let flops t = t.lu.Lu.flops
  let fill_in _ = 0

  (* No sparse factor to export or adopt: every install factors, and every
     canonical recompute factors the basis afresh. *)
  let export_canonical _ = None
  let adopt_canonical _ = None
end

include Lp.Simplex.Make (Factor)
