(** Markowitz-ordered sparse LU factorization with Forrest–Tomlin updates.

    The factorization backend of the revised {!Simplex} (DESIGN.md §15).
    [factor] runs a right-looking sparse elimination of the m×m basis
    matrix: at each step the pivot is chosen to minimize the Markowitz
    count [(row_nnz-1)·(col_nnz-1)] among entries passing a *threshold
    partial pivoting* test within their column ([|a| ≥ τ·colmax],
    τ = 0.1), ties broken lexicographically on (cost, column, row), so
    fill-in stays near the nonzero count on the banded /
    block-structured bases the yield-probe LPs produce. L and U are stored
    sparsely (column etas for L, per-row dynamic arrays for U), and
    [ftran]/[btran] skip structural zeros end-to-end.

    Each elimination step costs in proportion to the entries it touches.
    The active submatrix is kept both as sorted rows and as a column-wise
    index (the active rows holding each column); row lengths, column
    counts and column maxima are maintained incrementally, and a column's
    count, maximum and singularity test are recomputed only when the
    column lies in the pivot row, the only columns a step changes. The
    pivot comes off a binary heap of eligible entries keyed on
    (cost, column, row), whose entries carry the step that last changed
    their row and column and are dropped when stale. So a step costs
    O((Σ merged row lengths + Σ pivot-row column counts)·log h), h the
    heap size, rather than a rescan of the whole active submatrix, and
    the output — pivot sequence, L column order, U rows, [flops],
    [fill_in], [nnz] and the {!Singular} verdict — is bit-identical to
    that rescan. The "pivot-sequence pins" of [test/test_simplex_diff.ml]
    check this: totals of pivots, refactorizations, factor flops and
    fill-in plus an MD5 of the result bits, over the LP generator corpus
    and over a 10×40 paper relaxation, computed with the rescan; the
    "factor bits pin" does the same for the factor's own output.

    The active submatrix and every other piece of working storage — row
    pairs, column lists, counts, maxima, stamps, the pivot heap, the merge
    scratch and L's buffer, plus [update]'s row-eta scratch — live in a
    workspace kept across factorizations, one per domain (a
    [Domain.DLS] key), so no signature carries it and domains of a
    [Par.Pool] never share one. [factor] resets it at the start of every
    call, so a {!Singular} raised mid-elimination leaves nothing behind,
    and its buffers grow to the largest factorization the domain has run
    and stay that size. A factor therefore allocates only the arrays it
    keeps, each once and at its final size (L, each U row and U column
    list, the pivot and slot maps, the diagonal and the solve scratch),
    plus the one closure it hands [col], and boxes no float. The "factor
    bits independent of workspace history" test checks that neither the
    order of earlier factorizations, nor a [Singular] one before, nor the
    domain moves a bit of the factor bits pin.

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

val factor : size:int -> col:(int -> (int -> float -> unit) -> unit) -> t
(** [factor ~size ~col] factors the [size]×[size] matrix whose column [k]
    is iterated by [col k f] as [f row value] calls (distinct rows,
    ascending). Entries within τ = 0.1 of their column max are
    pivot-eligible, and the Markowitz count picks among them. Raises
    {!Singular}, and [Invalid_argument] on a nonzero in a row at or past
    [size]. [col]
    runs while the calling domain's workspace is in use, so it must not
    call [factor]. *)

val copy : t -> t
(** An independent copy: the same factor, bit for bit, with its own
    storage for everything {!update} patches and {!ftran}/{!btran} write,
    so updating or solving with either leaves the other's bits unchanged.
    The simplex adopts a copy of the factor a warm basis carries instead
    of factoring that basis again. *)

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
