(** D-dimensional resource vectors.

    A vector holds one non-negative quantity per resource dimension (CPU,
    memory, network, ...). All algorithms in this library are parametric in
    the number of dimensions [D]; the paper's experiments use [D = 2]
    (CPU, memory).

    Vectors are immutable from the point of view of this interface: every
    operation returns a fresh array. The underlying representation is a
    [float array] so callers can cheaply read components with [get]. *)

type t = private float array

val dim : t -> int
(** Number of resource dimensions. *)

val get : t -> int -> float
(** [get v d] is the quantity in dimension [d]. Raises [Invalid_argument]
    if [d] is out of bounds. *)

val make : int -> float -> t
(** [make d x] is the [d]-dimensional vector with every component [x].
    Raises [Invalid_argument] if [d <= 0]. *)

val zero : int -> t
(** [zero d] is [make d 0.]. *)

val of_array : float array -> t
(** [of_array a] copies [a] into a vector. Raises [Invalid_argument] if [a]
    is empty. *)

val of_list : float list -> t
(** [of_list l] copies [l] into a vector. Raises [Invalid_argument] on []. *)

val to_array : t -> float array
(** A fresh copy of the components. *)

val to_list : t -> float list

val init : int -> (int -> float) -> t

val map : (float -> float) -> t -> t

val map2 : (float -> float -> float) -> t -> t -> t
(** Raises [Invalid_argument] if dimensions differ. *)

val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t

val axpy : float -> t -> t -> t
(** [axpy a x y] is [a*x + y]: a service's demand at yield [a] is
    [a*need + requirement]. *)

val sum : t -> float
(** Sum of all components (the SUM scalarization metric). *)

val max_component : t -> float
(** Largest component (the MAX scalarization metric). *)

val min_component : t -> float

val max_ratio : t -> float
(** Ratio of the largest to the smallest component (MAXRATIO metric). When
    the smallest component is 0 the ratio is [infinity]; the all-zero vector
    has ratio [1.] by convention so that degenerate items sort last among
    ascending orders rather than poisoning comparisons with [nan]. *)

val max_difference : t -> float
(** Largest minus smallest component (MAXDIFFERENCE metric). *)

val compare_lex : t -> t -> int
(** Lexicographic comparison in natural dimension order (LEX metric). *)

val equal : ?eps:float -> t -> t -> bool

val eps : float
(** Library-wide feasibility tolerance (1e-9): a quantity [x] fits a
    capacity [c] when [x <= c +. eps *. max 1 |c|]. *)

val dominant_dimension : t -> int
(** Index of the largest component (ties broken toward lower indices). *)

val permutation_desc : t -> int array
(** [permutation_desc v] lists dimension indices sorted by decreasing
    component (ties broken toward lower indices). Used by Permutation-Pack:
    the first entry is the dimension of largest demand. *)

val permutation_asc : t -> int array
(** Dimension indices sorted by increasing component — a bin's load
    permutation (first entry: least-loaded dimension). *)

val dot : t -> t -> float

val is_zero : t -> bool
(** True when every component is 0 (used to detect services with no fluid
    needs, whose yield is unconstrained). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
