type lu = {
  lu_mat : Mat.t; (* L below diagonal (unit diag implicit), U on and above *)
  perm : int array; (* row permutation *)
  swaps : int; (* number of row swaps, for the determinant sign *)
  singular : bool; (* some |U_kk| <= pivot_tol; checked once, at factoring *)
}

let pivot_tol = 1e-13

(* Every kernel below walks the row-major array of [lu_mat] directly
   (entry (i, j) at [i * n + j]); the arithmetic, its order and the pivot
   choice are those of the textbook per-entry loops, so results are
   bit-identical to them. *)
let lu m =
  let n = Mat.rows m in
  if Mat.cols m <> n then invalid_arg "Solve.lu: not square";
  let lu_mat = Mat.copy m in
  let a = Mat.data lu_mat in
  let perm = Array.init n (fun i -> i) in
  let swaps = ref 0 in
  for k = 0 to n - 1 do
    (* Partial pivoting: pick the largest magnitude in column k at/below k. *)
    let best = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs a.((i * n) + k) > Float.abs a.((!best * n) + k) then best := i
    done;
    if !best <> k then begin
      let rk = k * n and rb = !best * n in
      for j = 0 to n - 1 do
        let tmp = a.(rk + j) in
        a.(rk + j) <- a.(rb + j);
        a.(rb + j) <- tmp
      done;
      let tmp = perm.(k) in
      perm.(k) <- perm.(!best);
      perm.(!best) <- tmp;
      incr swaps
    end;
    let rk = k * n in
    let pivot = a.(rk + k) in
    if Float.abs pivot > pivot_tol then
      for i = k + 1 to n - 1 do
        let ri = i * n in
        let factor = a.(ri + k) /. pivot in
        a.(ri + k) <- factor;
        for j = k + 1 to n - 1 do
          a.(ri + j) <- a.(ri + j) -. (factor *. a.(rk + j))
        done
      done
  done;
  let rec singular k =
    k < n && (Float.abs a.((k * n) + k) <= pivot_tol || singular (k + 1))
  in
  { lu_mat; perm; swaps = !swaps; singular = singular 0 }

let check_solvable f ~rhs_len =
  if rhs_len <> Mat.rows f.lu_mat then
    invalid_arg "Solve.lu_solve: dimension mismatch";
  if f.singular then failwith "Solve.lu_solve: singular matrix"

(* Overwrite [y] with the solution x of L U x = y: forward substitution
   with the unit lower-triangular L, then back substitution with U. Forward substitution
   starts at row [from]: when [y] is a unit vector at [from] (an identity
   column), every skipped term is [+0.0 -. l *. +0.0 = +0.0], so the
   structurally zero prefix is left out without changing a bit. *)
let substitute f y ~from =
  let a = Mat.data f.lu_mat and n = Mat.rows f.lu_mat in
  for i = from + 1 to n - 1 do
    let ri = i * n in
    let acc = ref y.(i) in
    for j = from to i - 1 do
      acc := !acc -. (a.(ri + j) *. y.(j))
    done;
    y.(i) <- !acc
  done;
  for i = n - 1 downto 0 do
    let ri = i * n in
    let acc = ref y.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (a.(ri + j) *. y.(j))
    done;
    y.(i) <- !acc /. a.(ri + i)
  done

let lu_solve f b =
  check_solvable f ~rhs_len:(Array.length b);
  let y = Array.init (Array.length b) (fun i -> b.(f.perm.(i))) in
  substitute f y ~from:0;
  y

let solve m b = lu_solve (lu m) b

(* The LU factorisation is sequential (loop-carried pivoting), but the [k]
   right-hand sides are independent: each column solve reads the shared
   factors and writes only its own column of the result, so large systems
   fan the column loop out over the engine with bit-identical results. *)
let solve_columns f ~rhs_rows ~k column =
  check_solvable f ~rhs_len:rhs_rows;
  let n = rhs_rows in
  let out = Mat.create ~rows:n ~cols:k 0.0 in
  let od = Mat.data out in
  let solve_col j =
    let y = column j in
    for i = 0 to n - 1 do
      od.((i * k) + j) <- y.(i)
    done
  in
  let engine = Cc_engine.get () in
  if n * n * k >= Mat.par_threshold && Cc_engine.is_parallel engine then
    Cc_engine.parallel_for engine ~lo:0 ~hi:k solve_col
  else
    for j = 0 to k - 1 do
      solve_col j
    done;
  out

let solve_mat m b =
  let f = lu m in
  let n = Mat.rows b and k = Mat.cols b in
  let bd = Mat.data b in
  solve_columns f ~rhs_rows:n ~k (fun j ->
      let y = Array.init n (fun i -> bd.((f.perm.(i) * k) + j)) in
      substitute f y ~from:0;
      y)

(* Column j of the identity, permuted, is the unit vector at [row_of.(j)]
   (the row that [perm] maps to j). *)
let inverse m =
  let f = lu m in
  let n = Mat.rows m in
  let row_of = Array.make n 0 in
  Array.iteri (fun i p -> row_of.(p) <- i) f.perm;
  solve_columns f ~rhs_rows:n ~k:n (fun j ->
      let y = Array.make n 0.0 in
      y.(row_of.(j)) <- 1.0;
      substitute f y ~from:row_of.(j);
      y)

let log_determinant m =
  let f = lu m in
  let n = Mat.rows f.lu_mat in
  let sign = ref (if f.swaps land 1 = 1 then -1 else 1) in
  let acc = ref 0.0 in
  (try
     for k = 0 to n - 1 do
       let d = Mat.get f.lu_mat k k in
       if Float.abs d <= pivot_tol then begin
         sign := 0;
         raise Exit
       end;
       if d < 0.0 then sign := - !sign;
       acc := !acc +. Float.log (Float.abs d)
     done
   with Exit -> ());
  if !sign = 0 then (0, neg_infinity) else (!sign, !acc)

let determinant m =
  match log_determinant m with
  | 0, _ -> 0.0
  | sign, logdet -> float_of_int sign *. Float.exp logdet

let schur_complement m ~keep =
  let n = Mat.rows m in
  if Mat.cols m <> n then invalid_arg "Solve.schur_complement: not square";
  let in_keep = Array.make n false in
  Array.iter
    (fun i ->
      if i < 0 || i >= n then invalid_arg "Solve.schur_complement: bad index";
      if in_keep.(i) then invalid_arg "Solve.schur_complement: duplicate index";
      in_keep.(i) <- true)
    keep;
  let elim =
    Array.of_list
      (List.filter (fun i -> not in_keep.(i)) (List.init n (fun i -> i)))
  in
  if Array.length elim = 0 then Mat.submatrix m ~row_idx:keep ~col_idx:keep
  else begin
    let m_ss = Mat.submatrix m ~row_idx:keep ~col_idx:keep in
    let m_se = Mat.submatrix m ~row_idx:keep ~col_idx:elim in
    let m_es = Mat.submatrix m ~row_idx:elim ~col_idx:keep in
    let m_ee = Mat.submatrix m ~row_idx:elim ~col_idx:elim in
    (* M_SS - M_S,E (M_EE)^{-1} M_E,S, via a solve rather than an explicit
       inverse for stability. *)
    let x = solve_mat m_ee m_es in
    Mat.sub m_ss (Mat.mul m_se x)
  end
