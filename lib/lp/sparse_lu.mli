(** Markowitz-ordered sparse LU factorization with Forrest–Tomlin updates.

    The factorization backend of the revised {!Simplex} (DESIGN.md §15).
    [factor] runs a right-looking sparse elimination of the m×m basis
    matrix: at each step the pivot is chosen to minimize the Markowitz
    count [(row_nnz-1)·(col_nnz-1)] among entries passing a *threshold
    partial pivoting* test within their column ([|a| ≥ τ·colmax],
    τ = 0.1), so fill-in stays near the nonzero count on the banded /
    block-structured bases the yield-probe LPs produce. L and U are stored
    sparsely (column etas for L, per-row dynamic arrays for U), and
    [ftran]/[btran] skip structural zeros end-to-end.

    A pivot replaces one basis column; [update] applies a Forrest–Tomlin
    product-form update instead of refactorizing: the spiked column moves
    to the last pivot position, the spiked row is eliminated by one
    row-eta (a sparse triangular solve), and U is patched in place. The
    factor object tracks its fill-in, update count and factorization
    flops so the caller can refactorize adaptively.

    Every operation is a pure function of the inputs — no randomness, no
    wall clock — so factors, solves and updates are bit-reproducible.
    Singularity is declared *relative to the original column scale*
    ([colmax < 1e-11·scale]), so well-conditioned but small-magnitude
    bases (e.g. row-scaled LPs) factor fine where an absolute threshold
    would reject them. *)

type t

exception Singular
(** Raised by {!factor} when some column of the basis is numerically
    dependent: its largest remaining entry is below [1e-11] times the
    column's original magnitude (or the column was identically zero). *)

exception Unstable
(** Raised by {!update} when the Forrest–Tomlin replacement diagonal is
    too small relative to the spike — the caller should refactorize. The
    factor is left unchanged. *)

val factor :
  ?tau:float -> size:int -> col:(int -> (int -> float -> unit) -> unit) ->
  unit -> t
(** [factor ~size ~col ()] factors the [size]×[size] matrix whose column
    [k] is iterated by [col k f] as [f row value] calls (distinct rows,
    ascending). [tau] (default [0.1]) is the threshold-pivoting relaxation
    factor: entries within [tau] of their column max are pivot-eligible,
    and the Markowitz count breaks the tie. Raises {!Singular}. *)

val size : t -> int

val basis_nnz : t -> int
(** Nonzeros of the factored matrix itself. *)

val nnz : t -> int
(** Current stored nonzeros of L and U, including fill from
    Forrest–Tomlin updates (eta entries and spike columns). *)

val fill_in : t -> int
(** Entries created by elimination: [nnz] right after {!factor} minus
    {!basis_nnz}. Constant over the factor's lifetime. *)

val flops : t -> int
(** Multiply–subtract operations spent by {!factor} (divisions included).
    Constant over the factor's lifetime; the dense-LU test oracle counts
    the same work, and the differential tests compare the two. *)

val updates : t -> int
(** Forrest–Tomlin updates applied since {!factor}. *)

val ftran : t -> float array -> unit
(** [ftran t v] solves [B x = v] in place: on entry [v] is indexed by
    matrix row, on exit [v.(p)] is the solution component of the column
    at basis position [p]. *)

val ftran_entering : t -> float array -> unit
(** Like {!ftran}, additionally stashing the partially-transformed column
    (the Forrest–Tomlin spike) for a subsequent {!update}. The simplex
    uses this for the entering column of a pivot and plain {!ftran}
    everywhere else. *)

val btran : t -> float array -> unit
(** [btran t v] solves [Bᵀ y = v] in place: on entry [v] is indexed by
    basis position, on exit by matrix row. *)

val update : t -> pos:int -> unit
(** [update t ~pos] replaces the basis column at position [pos] with the
    column most recently passed through {!ftran_entering}, patching the
    factorization by one Forrest–Tomlin step. Raises {!Unstable} (factor
    unchanged) when the replacement diagonal is degenerate, and
    [Invalid_argument] if no spike is stashed. *)
