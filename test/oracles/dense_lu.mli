(** The revised simplex on the original dense basis-inverse backend — the
    factorization-level differential oracle.

    {!Factor} keeps the basis as a dense LU with partial pivoting plus a
    raw product-form eta file, refactorized every 64 pivots. This module
    is {!Lp.Simplex.Make} over it: the same pivoting rules as
    {!Lp.Simplex.solve}, and the same canonical recompute of the basic
    solution at phase boundaries and optimal endpoints, so whenever both
    pivot through the same bases they return bitwise-identical results.
    Only the factorization work differs ([simplex.lu_flops],
    [simplex.refactorizations]); [simplex.ft_updates] and
    [simplex.lu_fill_in] stay silent here. *)

module Factor : Lp.Simplex.FACTORIZATION

include Lp.Simplex.SOLVER
