type t = Pool.t

let create ~pool = pool
