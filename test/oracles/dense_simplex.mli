(** Two-phase dense primal simplex — the reference oracle.

    The original full-tableau solver, kept as the differential-test oracle
    for the sparse revised {!Lp.Simplex} (the differential tests call it
    directly). It favors obviousness over speed:

    - variable lower bounds are shifted out and finite upper bounds become
      explicit rows, so the working form is [min c'x, Ax {<=,>=,=} b, x >= 0];
    - phase 1 minimizes the sum of artificial variables to find a basic
      feasible solution; phase 2 optimizes the real objective;
    - Dantzig pricing with a permanent switch to Bland's rule after either
      an iteration budget or [bland_after_degenerate] {e consecutive}
      degenerate pivots — the streak is the cycling signature, so
      protection engages while a cycle is tight (counted under
      [simplex.bland_switches]).

    The dense tableau is O((m+u)·(n+m)) memory for [m] constraints, [u]
    finite upper bounds and [n] variables; see DESIGN.md §12 for how this
    compares with the revised solver. *)

type solution = { objective : float; x : float array }

type result = Optimal of solution | Infeasible | Unbounded

val solve :
  ?max_iterations:int -> ?bland_after_degenerate:int -> Lp.Problem.t -> result
(** Solve the LP relaxation (integrality flags are ignored — use
    {!Lp.Branch_bound} for MILPs). [max_iterations] defaults to
    [max 20_000 (50 * (m + n))]; if exhausted the solver raises [Failure]
    (never observed on the test corpus — the bound is an anti-hang guard).
    [bland_after_degenerate] (default 16) is the consecutive-degenerate-pivot
    streak after which pricing switches permanently to Bland's rule; tests
    set it to 1 to force the switchover on a cycling LP. *)

val feasibility_tol : float
(** Tolerance used to declare phase-1 success and to clean near-zero values
    in the returned point. *)
