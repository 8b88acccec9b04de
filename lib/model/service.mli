(** Hosted services (virtual machine instances).

    A service carries rigid {e requirements} [(rᵉ, rᵃ)] — the allocation
    below which placement fails — and fluid {e needs} [(nᵉ, nᵃ)] — the
    additional allocation that takes it from minimum acceptable service to
    full performance on the reference machine. Running at yield [y] consumes
    [(rᵉ + y·nᵉ, rᵃ + y·nᵃ)] (paper §2). *)

type t = { id : int; requirement : Vec.Epair.t; need : Vec.Epair.t }

val v : id:int -> requirement:Vec.Epair.t -> need:Vec.Epair.t -> t
(** Raises [Invalid_argument] on dimension mismatches or non-finite or
    negative components. *)

val cpu_dim : int
(** Dimension index of CPU ([0]) in the 2-D convenience layout shared by
    {!make_2d}, {!Node.make_cores}, and the online simulator's admission
    path. *)

val mem_dim : int
(** Dimension index of memory ([1]) in the same layout. *)

val make_2d :
  id:int ->
  ?cpu_req:float * float ->
  ?mem_req:float ->
  ?cpu_need:float * float ->
  ?mem_need:float ->
  unit ->
  t
(** Convenience for the paper's 2-D experiments. [cpu_req] and [cpu_need]
    are [(elementary, aggregate)] CPU pairs; memory is poolable so a single
    scalar sets both elementary and aggregate components. All default to
    zero. Dimension 0 is CPU, dimension 1 is memory. *)

val dim : t -> int

val demand_at_yield : t -> float -> Vec.Epair.t
(** [demand_at_yield s y] is [(rᵉ + y·nᵉ, rᵃ + y·nᵃ)]. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
