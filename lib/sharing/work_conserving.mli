(** Work-conserving weighted CPU scheduler (paper §6).

    Models the work-conserving mode of modern hypervisor CPU schedulers:
    each competing service initially receives a share of the resource
    proportional to its weight; any portion a service leaves unused (because
    its actual need is smaller) is pooled and redistributed among the still
    unsatisfied services, again by weight, until everyone is satisfied or
    the resource is exhausted. Allocations smaller than {!epsilon} are
    rounded away to avoid unbounded recursion (paper: 0.0001): a service
    whose share comes within {!epsilon} of what it misses counts as
    satisfied. After the rounds, such a service that is still short is
    topped up, in index order, from whatever capacity the rounds left. *)

val epsilon : float
(** 1e-4, the paper's minimum allocation. *)

val allocate :
  capacity:float -> weights:float array -> needs:float array -> float array
(** [allocate ~capacity ~weights ~needs] returns each service's actual
    consumption. Invariants (checked by the test suite): consumption never
    exceeds need; total consumption never exceeds [capacity]; the scheduler
    is work-conserving — if some service is unsatisfied, total consumption
    is within {!epsilon} x J of [capacity].

    Raises [Invalid_argument] on length mismatch, negative inputs, or an
    all-zero weight vector with non-zero total need. *)
