(** (x, y) data series with per-x aggregation — the data behind the paper's
    figures. *)

type point = { x : float; mean : float; count : int }

val aggregate : (float * float) list -> point list
(** Group samples by x (exact match) and average; points sorted by x. *)

val to_csv : header:string * string -> point list -> string
(** Two-column CSV ["x,<name>"] of the aggregated means. *)

val render : label:string -> (float * float) list -> string
(** Crude 72 x 16 ASCII dot-plot of raw samples (x on the horizontal axis),
    good enough to eyeball a trend in a terminal; the experiments emit CSV
    alongside for real plotting. *)
