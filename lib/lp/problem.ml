type relation = Le | Ge | Eq

type linear_constraint = {
  name : string;
  coeffs : (int * float) list;
  relation : relation;
  rhs : float;
}

type sense = Maximize | Minimize

type t = {
  n_vars : int;
  sense : sense;
  objective : float array;
  constraints : linear_constraint list;
  lower : float array;
  upper : float array;
  integer : bool array;
}

let check_constraint n_vars cstr =
  List.iter
    (fun (v, a) ->
      if v < 0 || v >= n_vars then
        invalid_arg
          (Printf.sprintf "Lp.Problem: constraint %S references variable %d"
             cstr.name v);
      if not (Float.is_finite a) then
        invalid_arg
          (Printf.sprintf
             "Lp.Problem: constraint %S has coefficient %g on variable %d"
             cstr.name a v))
    cstr.coeffs;
  if Float.is_nan cstr.rhs then
    invalid_arg (Printf.sprintf "Lp.Problem: constraint %S has rhs nan" cstr.name)

let create ?(sense = Maximize) ?lower ?upper ?(integer = []) ~n_vars
    ~objective ~constraints () =
  if n_vars <= 0 then invalid_arg "Lp.Problem.create: n_vars must be positive";
  if Array.length objective <> n_vars then
    invalid_arg "Lp.Problem.create: objective length mismatch";
  Array.iteri
    (fun i a ->
      if not (Float.is_finite a) then
        invalid_arg
          (Printf.sprintf
             "Lp.Problem.create: variable %d has objective coefficient %g" i a))
    objective;
  let lower = match lower with Some l -> l | None -> Array.make n_vars 0. in
  let upper =
    match upper with Some u -> u | None -> Array.make n_vars infinity
  in
  if Array.length lower <> n_vars || Array.length upper <> n_vars then
    invalid_arg "Lp.Problem.create: bounds length mismatch";
  Array.iteri
    (fun i l ->
      if l < 0. || not (Float.is_finite l) then
        invalid_arg
          (Printf.sprintf
             "Lp.Problem.create: variable %d has unsupported lower bound %g" i
             l);
      if Float.is_nan upper.(i) then
        invalid_arg
          (Printf.sprintf "Lp.Problem.create: variable %d has upper bound nan"
             i);
      if upper.(i) < l then
        invalid_arg
          (Printf.sprintf "Lp.Problem.create: variable %d has upper < lower" i))
    lower;
  let integer_flags = Array.make n_vars false in
  List.iter
    (fun v ->
      if v < 0 || v >= n_vars then
        invalid_arg "Lp.Problem.create: integer variable out of range";
      integer_flags.(v) <- true)
    integer;
  List.iter (check_constraint n_vars) constraints;
  {
    n_vars;
    sense;
    objective = Array.copy objective;
    constraints;
    lower = Array.copy lower;
    upper = Array.copy upper;
    integer = integer_flags;
  }

let c ?(name = "") coeffs relation rhs = { name; coeffs; relation; rhs }

let relax p = { p with integer = Array.make p.n_vars false }

let eval_constraint x cstr =
  List.fold_left (fun acc (v, a) -> acc +. (a *. x.(v))) 0. cstr.coeffs

let is_feasible ?(tol = 1e-6) p x =
  Array.length x = p.n_vars
  && (let ok = ref true in
      for i = 0 to p.n_vars - 1 do
        if x.(i) < p.lower.(i) -. tol || x.(i) > p.upper.(i) +. tol then
          ok := false;
        if p.integer.(i) && Float.abs (x.(i) -. Float.round x.(i)) > tol then
          ok := false
      done;
      !ok)
  && List.for_all
       (fun cstr ->
         let lhs = eval_constraint x cstr in
         match cstr.relation with
         | Le -> lhs <= cstr.rhs +. tol
         | Ge -> lhs >= cstr.rhs -. tol
         | Eq -> Float.abs (lhs -. cstr.rhs) <= tol)
       p.constraints

let objective_value p x =
  let acc = ref 0. in
  for i = 0 to p.n_vars - 1 do
    acc := !acc +. (p.objective.(i) *. x.(i))
  done;
  !acc

module Csc = struct
  type matrix = {
    n_rows : int;
    n_cols : int;
    col_ptr : int array;
    row_idx : int array;
    values : float array;
  }

  let of_problem p =
    let n_rows = List.length p.constraints in
    let n_cols = p.n_vars in
    (* Gather (row, coef) terms per column; duplicate variable mentions in a
       constraint are summed, exactly as the dense solver's [prepare] does. *)
    let cols = Array.make n_cols [] in
    List.iteri
      (fun i (cstr : linear_constraint) ->
        List.iter (fun (v, a) -> cols.(v) <- (i, a) :: cols.(v)) cstr.coeffs)
      p.constraints;
    let merged =
      Array.map
        (fun terms ->
          let sorted =
            List.sort (fun (r1, _) (r2, _) -> compare r1 r2) terms
          in
          let rec merge = function
            | (r1, a1) :: (r2, a2) :: rest when r1 = r2 ->
                merge ((r1, a1 +. a2) :: rest)
            | (r, a) :: rest ->
                if a = 0. then merge rest else (r, a) :: merge rest
            | [] -> []
          in
          merge sorted)
        cols
    in
    let nnz = Array.fold_left (fun acc l -> acc + List.length l) 0 merged in
    let col_ptr = Array.make (n_cols + 1) 0 in
    let row_idx = Array.make nnz 0 in
    let values = Array.make nnz 0. in
    let k = ref 0 in
    Array.iteri
      (fun j terms ->
        col_ptr.(j) <- !k;
        List.iter
          (fun (r, a) ->
            row_idx.(!k) <- r;
            values.(!k) <- a;
            incr k)
          terms)
      merged;
    col_ptr.(n_cols) <- !k;
    { n_rows; n_cols; col_ptr; row_idx; values }

  let iter_col m j f =
    for k = m.col_ptr.(j) to m.col_ptr.(j + 1) - 1 do
      f m.row_idx.(k) m.values.(k)
    done
end
