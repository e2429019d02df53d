(* Tests for Cc_linalg: matrix algebra, LU solves, determinants, Schur
   complements, and the Lemma 3 fixed-point rounding machinery. *)

module Mat = Cc_linalg.Mat
module Solve = Cc_linalg.Solve
module Fixed = Cc_linalg.Fixed
module Prng = Cc_util.Prng

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_float ?(eps = 1e-9) msg expected actual =
  if not (feq ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let random_matrix prng ~rows ~cols =
  Mat.init ~rows ~cols (fun _ _ -> Prng.float prng 2.0 -. 1.0)

let random_stochastic prng n =
  Mat.normalize_rows (Mat.init ~rows:n ~cols:n (fun _ _ -> Prng.float prng 1.0 +. 0.01))

(* --- Mat --- *)

let test_identity_mul () =
  let prng = Prng.create ~seed:1 in
  let a = random_matrix prng ~rows:5 ~cols:5 in
  let i = Mat.identity 5 in
  Alcotest.(check bool) "I*A = A" true (Mat.equal (Mat.mul i a) a);
  Alcotest.(check bool) "A*I = A" true (Mat.equal (Mat.mul a i) a)

let test_mul_known () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Mat.of_arrays [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let c = Mat.mul a b in
  check_float "c00" 19.0 (Mat.get c 0 0);
  check_float "c01" 22.0 (Mat.get c 0 1);
  check_float "c10" 43.0 (Mat.get c 1 0);
  check_float "c11" 50.0 (Mat.get c 1 1)

let test_transpose_involution () =
  let prng = Prng.create ~seed:2 in
  let a = random_matrix prng ~rows:4 ~cols:7 in
  Alcotest.(check bool) "(A^T)^T = A" true (Mat.equal (Mat.transpose (Mat.transpose a)) a)

let test_power_matches_repeated_mul () =
  let prng = Prng.create ~seed:3 in
  let a = random_stochastic prng 5 in
  let direct = Mat.mul (Mat.mul a a) (Mat.mul a a) in
  Alcotest.(check bool) "A^4" true (Mat.equal ~tol:1e-9 (Mat.power a 4) direct)

let test_power_zero_and_one () =
  let prng = Prng.create ~seed:4 in
  let a = random_stochastic prng 4 in
  Alcotest.(check bool) "A^0 = I" true (Mat.equal (Mat.power a 0) (Mat.identity 4));
  Alcotest.(check bool) "A^1 = A" true (Mat.equal (Mat.power a 1) a)

let test_power_table () =
  let prng = Prng.create ~seed:5 in
  let a = random_stochastic prng 4 in
  let table = Mat.power_table a ~max_exp:4 in
  Alcotest.(check int) "table length" 5 (Array.length table);
  Array.iteri
    (fun i m ->
      Alcotest.(check bool)
        (Printf.sprintf "table entry 2^%d" i)
        true
        (Mat.equal ~tol:1e-8 m (Mat.power a (1 lsl i))))
    table

let test_mul_vec () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let y = Mat.mul_vec a [| 1.0; 1.0 |] in
  check_float "y0" 3.0 y.(0);
  check_float "y1" 7.0 y.(1);
  let z = Mat.vec_mul [| 1.0; 1.0 |] a in
  check_float "z0" 4.0 z.(0);
  check_float "z1" 6.0 z.(1)

let test_submatrix () =
  let a = Mat.init ~rows:4 ~cols:4 (fun i j -> float_of_int ((10 * i) + j)) in
  let s = Mat.submatrix a ~row_idx:[| 3; 1 |] ~col_idx:[| 0; 2 |] in
  check_float "s00" 30.0 (Mat.get s 0 0);
  check_float "s01" 32.0 (Mat.get s 0 1);
  check_float "s10" 10.0 (Mat.get s 1 0);
  check_float "s11" 12.0 (Mat.get s 1 1)

let test_row_stochastic_checks () =
  let prng = Prng.create ~seed:6 in
  let a = random_stochastic prng 6 in
  Alcotest.(check bool) "stochastic" true (Mat.is_row_stochastic a);
  let b = Mat.copy a in
  Mat.set b 0 0 (Mat.get b 0 0 +. 0.5);
  Alcotest.(check bool) "broken" false (Mat.is_row_stochastic b)

let test_max_subtractive_error () =
  let exact = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let approx = Mat.of_arrays [| [| 0.9; 2.0 |]; [| 3.2; 3.5 |] |] in
  (* Largest under-approximation: 4.0 - 3.5 = 0.5; the over-approximation at
     (1,0) must not count. *)
  check_float "subtractive" 0.5 (Mat.max_subtractive_error ~exact ~approx)

(* --- Solve --- *)

let test_solve_known_system () =
  let a = Mat.of_arrays [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = Solve.solve a [| 5.0; 10.0 |] in
  check_float "x0" 1.0 x.(0);
  check_float "x1" 3.0 x.(1)

let test_inverse () =
  let prng = Prng.create ~seed:7 in
  let a = Mat.add (random_matrix prng ~rows:6 ~cols:6) (Mat.scale 6.0 (Mat.identity 6)) in
  let inv = Solve.inverse a in
  Alcotest.(check bool) "A * A^-1 = I" true
    (Mat.equal ~tol:1e-8 (Mat.mul a inv) (Mat.identity 6))

let test_determinant_known () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  check_float "det" (-2.0) (Solve.determinant a);
  check_float "det I" 1.0 (Solve.determinant (Mat.identity 5))

let test_determinant_singular () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  check_float "det singular" 0.0 (Solve.determinant a)

let test_determinant_product_rule () =
  let prng = Prng.create ~seed:8 in
  let a = Mat.add (random_matrix prng ~rows:4 ~cols:4) (Mat.scale 2.0 (Mat.identity 4)) in
  let b = Mat.add (random_matrix prng ~rows:4 ~cols:4) (Mat.scale 2.0 (Mat.identity 4)) in
  check_float ~eps:1e-6 "det(AB) = det A det B"
    (Solve.determinant a *. Solve.determinant b)
    (Solve.determinant (Mat.mul a b))

let test_log_determinant_sign () =
  let a = Mat.of_arrays [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let sign, logdet = Solve.log_determinant a in
  Alcotest.(check int) "sign" (-1) sign;
  check_float "log |det|" 0.0 logdet

let test_singular_solve_raises () =
  let a = Mat.of_arrays [| [| 1.0; 1.0 |]; [| 1.0; 1.0 |] |] in
  Alcotest.check_raises "singular" (Failure "Solve.lu_solve: singular matrix")
    (fun () -> ignore (Solve.solve a [| 1.0; 2.0 |]))

(* --- Schur complement (matrix level) --- *)

let test_schur_block_identity () =
  (* For M = [[A, B], [C, D]] with S = last block indexes,
     SCHUR(M,S) = D - C A^{-1} B. 2x2 blocks chosen by hand. *)
  let m =
    Mat.of_arrays
      [|
        [| 4.0; 0.0; 1.0; 0.0 |];
        [| 0.0; 4.0; 0.0; 1.0 |];
        [| 1.0; 0.0; 3.0; 1.0 |];
        [| 0.0; 1.0; 1.0; 3.0 |];
      |]
  in
  let s = Solve.schur_complement m ~keep:[| 2; 3 |] in
  (* D - C A^{-1} B = [[3,1],[1,3]] - (1/4) I = [[2.75, 1], [1, 2.75]] *)
  check_float "s00" 2.75 (Mat.get s 0 0);
  check_float "s01" 1.0 (Mat.get s 0 1);
  check_float "s11" 2.75 (Mat.get s 1 1)

let test_schur_full_keep_is_identity_op () =
  let prng = Prng.create ~seed:9 in
  let m = random_matrix prng ~rows:4 ~cols:4 in
  let s = Solve.schur_complement m ~keep:[| 0; 1; 2; 3 |] in
  Alcotest.(check bool) "keep all = same" true (Mat.equal s m)

let test_schur_quotient_property () =
  (* Schur complements compose: eliminating {0} then {1} equals eliminating
     {0,1} (quotient property). *)
  let prng = Prng.create ~seed:10 in
  let m = Mat.add (random_matrix prng ~rows:5 ~cols:5) (Mat.scale 5.0 (Mat.identity 5)) in
  let direct = Solve.schur_complement m ~keep:[| 2; 3; 4 |] in
  let step1 = Solve.schur_complement m ~keep:[| 1; 2; 3; 4 |] in
  let step2 = Solve.schur_complement step1 ~keep:[| 1; 2; 3 |] in
  Alcotest.(check bool) "quotient property" true (Mat.equal ~tol:1e-8 direct step2)

let test_schur_determinant_identity () =
  (* det M = det(M_EE) * det(SCHUR(M, S)). *)
  let prng = Prng.create ~seed:11 in
  let m = Mat.add (random_matrix prng ~rows:5 ~cols:5) (Mat.scale 5.0 (Mat.identity 5)) in
  let keep = [| 2; 3; 4 |] in
  let elim = [| 0; 1 |] in
  let m_ee = Mat.submatrix m ~row_idx:elim ~col_idx:elim in
  let schur = Solve.schur_complement m ~keep in
  check_float ~eps:1e-6 "det factorization" (Solve.determinant m)
    (Solve.determinant m_ee *. Solve.determinant schur)

(* --- Fixed --- *)

let test_round_down_basic () =
  check_float "1/3 at 2 bits" 0.25 (Fixed.round_down ~bits:2 (1.0 /. 3.0));
  check_float "exact dyadic" 0.5 (Fixed.round_down ~bits:4 0.5);
  check_float "zero" 0.0 (Fixed.round_down ~bits:8 0.0)

let test_round_down_subtractive () =
  let prng = Prng.create ~seed:12 in
  for _ = 1 to 1000 do
    let x = Prng.float prng 1.0 in
    let r = Fixed.round_down ~bits:10 x in
    if r > x || x -. r >= Float.pow 2.0 (-10.0) then
      Alcotest.failf "round_down not subtractive at %.17g -> %.17g" x r
  done

let test_rounded_power_error_within_lemma3 () =
  let prng = Prng.create ~seed:13 in
  let n = 8 in
  let m = random_stochastic prng n in
  let bits = 20 in
  List.iter
    (fun k ->
      let exact = Mat.power m k in
      let approx = Fixed.rounded_power ~bits m k in
      let err = Mat.max_subtractive_error ~exact ~approx in
      let bound = Fixed.lemma3_error_bound ~n ~k ~bits in
      if err > bound then
        Alcotest.failf "k=%d: error %.3e exceeds Lemma 3 bound %.3e" k err bound;
      (* One-sided: approx never exceeds exact by more than float dust. *)
      let over = Mat.max_subtractive_error ~exact:approx ~approx:exact in
      if over > 1e-12 then Alcotest.failf "k=%d: approximation overshoots" k)
    [ 1; 2; 4; 8; 16 ]

let test_lemma3_bits_sufficient () =
  let n = 16 and k = 64 and beta = 1e-6 in
  let bits = Fixed.lemma3_bits ~n ~k ~beta in
  let bound = Fixed.lemma3_error_bound ~n ~k ~bits in
  Alcotest.(check bool)
    (Printf.sprintf "bits=%d gives bound %.3e <= beta" bits bound)
    true (bound <= beta)

let test_rounded_power_rejects_non_power_of_two () =
  let m = Mat.identity 2 in
  Alcotest.check_raises "k=3"
    (Invalid_argument "Fixed.rounded_power: k must be a positive power of two")
    (fun () -> ignore (Fixed.rounded_power ~bits:10 m 3))

(* --- qcheck properties --- *)

let qcheck_tests =
  let open QCheck in
  let dim = Gen.int_range 2 7 in
  let seeded = make Gen.(pair dim (int_range 0 10_000)) in
  [
    Test.make ~name:"mul is associative" ~count:50 seeded (fun (n, seed) ->
        let prng = Prng.create ~seed in
        let a = random_matrix prng ~rows:n ~cols:n in
        let b = random_matrix prng ~rows:n ~cols:n in
        let c = random_matrix prng ~rows:n ~cols:n in
        Mat.equal ~tol:1e-8 (Mat.mul (Mat.mul a b) c) (Mat.mul a (Mat.mul b c)));
    Test.make ~name:"transpose reverses products" ~count:50 seeded
      (fun (n, seed) ->
        let prng = Prng.create ~seed in
        let a = random_matrix prng ~rows:n ~cols:n in
        let b = random_matrix prng ~rows:n ~cols:n in
        Mat.equal ~tol:1e-9
          (Mat.transpose (Mat.mul a b))
          (Mat.mul (Mat.transpose b) (Mat.transpose a)));
    Test.make ~name:"stochastic matrices are closed under product" ~count:50
      seeded (fun (n, seed) ->
        let prng = Prng.create ~seed in
        let a = random_stochastic prng n and b = random_stochastic prng n in
        Mat.is_row_stochastic ~tol:1e-7 (Mat.mul a b));
    Test.make ~name:"solve then multiply recovers rhs" ~count:50 seeded
      (fun (n, seed) ->
        let prng = Prng.create ~seed in
        let a =
          Mat.add (random_matrix prng ~rows:n ~cols:n)
            (Mat.scale (2.0 *. float_of_int n) (Mat.identity n))
        in
        let b = Array.init n (fun _ -> Prng.float prng 1.0) in
        let x = Solve.solve a b in
        let back = Mat.mul_vec a x in
        Array.for_all2 (fun u v -> Float.abs (u -. v) < 1e-7) back b);
    Test.make ~name:"rounded_power stays within Lemma 3 budget" ~count:30
      (make Gen.(pair (int_range 3 8) (int_range 0 10_000)))
      (fun (n, seed) ->
        let prng = Prng.create ~seed in
        let m = random_stochastic prng n in
        let bits = 24 and k = 8 in
        let err =
          Mat.max_subtractive_error ~exact:(Mat.power m k)
            ~approx:(Fixed.rounded_power ~bits m k)
        in
        err <= Fixed.lemma3_error_bound ~n ~k ~bits);
  ]

(* --- Bit-identity of the flat kernels ---

   The references below are the accessor-based kernels the flat rewrites
   replaced, kept here only as oracles: every entry goes through
   [Mat.get]/[Mat.set], LU re-checks singularity per right-hand side and
   copies each column. The rewrites must agree with them bit for bit
   ([Int64.bits_of_float], so the sign of every zero counts too). *)

module Ref = struct
  let pivot_tol = 1e-13

  let lu m =
    let n = Mat.rows m in
    let a = Mat.copy m in
    let perm = Array.init n (fun i -> i) in
    let swaps = ref 0 in
    for k = 0 to n - 1 do
      let best = ref k in
      for i = k + 1 to n - 1 do
        if Float.abs (Mat.get a i k) > Float.abs (Mat.get a !best k) then best := i
      done;
      if !best <> k then begin
        for j = 0 to n - 1 do
          let tmp = Mat.get a k j in
          Mat.set a k j (Mat.get a !best j);
          Mat.set a !best j tmp
        done;
        let tmp = perm.(k) in
        perm.(k) <- perm.(!best);
        perm.(!best) <- tmp;
        incr swaps
      end;
      let pivot = Mat.get a k k in
      if Float.abs pivot > pivot_tol then
        for i = k + 1 to n - 1 do
          let factor = Mat.get a i k /. pivot in
          Mat.set a i k factor;
          for j = k + 1 to n - 1 do
            Mat.set a i j (Mat.get a i j -. (factor *. Mat.get a k j))
          done
        done
    done;
    (a, perm, !swaps)

  let is_singular (a, _, _) =
    let n = Mat.rows a in
    let rec go k = k < n && (Float.abs (Mat.get a k k) <= pivot_tol || go (k + 1)) in
    go 0

  let lu_solve ((a, perm, _) as f) b =
    let n = Mat.rows a in
    if Array.length b <> n then invalid_arg "Solve.lu_solve: dimension mismatch";
    if is_singular f then failwith "Solve.lu_solve: singular matrix";
    let y = Array.init n (fun i -> b.(perm.(i))) in
    for i = 1 to n - 1 do
      for j = 0 to i - 1 do
        y.(i) <- y.(i) -. (Mat.get a i j *. y.(j))
      done
    done;
    for i = n - 1 downto 0 do
      for j = i + 1 to n - 1 do
        y.(i) <- y.(i) -. (Mat.get a i j *. y.(j))
      done;
      y.(i) <- y.(i) /. Mat.get a i i
    done;
    y

  let solve_mat m b =
    let f = lu m in
    let n = Mat.rows b and k = Mat.cols b in
    let out = Mat.create ~rows:n ~cols:k 0.0 in
    for j = 0 to k - 1 do
      let x = lu_solve f (Mat.col b j) in
      for i = 0 to n - 1 do
        Mat.set out i j x.(i)
      done
    done;
    out

  let inverse m = solve_mat m (Mat.identity (Mat.rows m))

  let log_determinant m =
    let ((a, _, swaps) as f) = lu m in
    if is_singular f then (0, neg_infinity)
    else begin
      let sign = ref (if swaps land 1 = 1 then -1 else 1) and acc = ref 0.0 in
      for k = 0 to Mat.rows a - 1 do
        let d = Mat.get a k k in
        if d < 0.0 then sign := - !sign;
        acc := !acc +. Float.log (Float.abs d)
      done;
      (!sign, !acc)
    end

  let mul a b =
    let out = Mat.create ~rows:(Mat.rows a) ~cols:(Mat.cols b) 0.0 in
    for i = 0 to Mat.rows a - 1 do
      for k = 0 to Mat.cols a - 1 do
        let aik = Mat.get a i k in
        if aik <> 0.0 then
          for j = 0 to Mat.cols b - 1 do
            Mat.set out i j (Mat.get out i j +. (aik *. Mat.get b k j))
          done
      done
    done;
    out
end

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let check_bits_vec msg expected actual =
  Alcotest.(check int) (msg ^ " length") (Array.length expected) (Array.length actual);
  Array.iteri
    (fun i x ->
      if not (same_bits x actual.(i)) then
        Alcotest.failf "%s: entry %d differs: %h vs %h" msg i x actual.(i))
    expected

let check_bits_mat msg expected actual =
  Alcotest.(check (pair int int)) (msg ^ " dims")
    (Mat.rows expected, Mat.cols expected)
    (Mat.rows actual, Mat.cols actual);
  let actual = Mat.to_arrays actual in
  Array.iteri
    (fun i row -> check_bits_vec (Printf.sprintf "%s row %d" msg i) row actual.(i))
    (Mat.to_arrays expected)

(* Seeded square inputs: dense signed (pivot swaps on almost every column),
   small integers (magnitude ties, where only the first maximum may win the
   pivot), sparse with exact zeros and negative entries (signs of zero),
   diagonally dominant (no swaps), and I - T for a substochastic T (the
   shortcut kernel's own shape). *)
let kernel_inputs () =
  let prng = Prng.create ~seed:1501 in
  List.concat_map
    (fun n ->
      let dense = random_matrix prng ~rows:n ~cols:n in
      let rec ties () =
        let m = Mat.init ~rows:n ~cols:n (fun _ _ -> Float.of_int (Prng.int prng 5 - 2)) in
        if Ref.is_singular (Ref.lu m) then ties () else m
      in
      let ties = ties () in
      let sparse =
        Mat.init ~rows:n ~cols:n (fun i j ->
            if i = j then 0.5 +. Prng.float prng 1.0
            else if Prng.int prng 3 = 0 then Prng.float prng 2.0 -. 1.0
            else 0.0)
      in
      let dominant =
        Mat.init ~rows:n ~cols:n (fun i j ->
            if i = j then Float.of_int n +. 1.0 else Prng.float prng 1.0)
      in
      let t = random_stochastic prng n in
      let i_minus_t =
        Mat.init ~rows:n ~cols:n (fun i j ->
            (if i = j then 1.0 else 0.0) -. if j mod 3 = 0 then 0.0 else Mat.get t i j)
      in
      [ (n, "dense", dense); (n, "ties", ties); (n, "sparse", sparse); (n, "dominant", dominant);
        (n, "I-T", i_minus_t) ])
    [ 2; 3; 5; 8; 13; 21; 33; 48; 64 ]

let test_lu_solve_bit_identical () =
  let prng = Prng.create ~seed:1502 in
  List.iter
    (fun (n, kind, m) ->
      let msg = Printf.sprintf "%s n=%d" kind n in
      let b = Array.init n (fun _ -> Prng.float prng 2.0 -. 1.0) in
      check_bits_vec (msg ^ " solve") (Ref.lu_solve (Ref.lu m) b) (Solve.solve m b);
      let f = Solve.lu m in
      let b2 = Array.init n (fun i -> if i mod 2 = 0 then 0.0 else -1.0) in
      check_bits_vec (msg ^ " lu_solve reuse") (Ref.lu_solve (Ref.lu m) b2)
        (Solve.lu_solve f b2);
      let sign, logdet = Solve.log_determinant m in
      let rsign, rlogdet = Ref.log_determinant m in
      Alcotest.(check int) (msg ^ " det sign") rsign sign;
      if not (same_bits rlogdet logdet) then Alcotest.failf "%s: log det differs" msg)
    (kernel_inputs ())

let test_solve_mat_inverse_bit_identical () =
  let prng = Prng.create ~seed:1503 in
  List.iter
    (fun (n, kind, m) ->
      let msg = Printf.sprintf "%s n=%d" kind n in
      check_bits_mat (msg ^ " inverse") (Ref.inverse m) (Solve.inverse m);
      let b = random_matrix prng ~rows:n ~cols:(1 + Prng.int prng n) in
      check_bits_mat (msg ^ " solve_mat") (Ref.solve_mat m b) (Solve.solve_mat m b);
      (* The identity as a general right-hand side takes the unskipped path. *)
      check_bits_mat (msg ^ " solve_mat I") (Ref.inverse m)
        (Solve.solve_mat m (Mat.identity n)))
    (kernel_inputs ())

let test_singular_kernels_raise () =
  let singular =
    [
      Mat.of_arrays [| [| 1.0; 1.0 |]; [| 1.0; 1.0 |] |];
      Mat.of_arrays [| [| 0.0; 0.0; 0.0 |]; [| 1.0; 2.0; 3.0 |]; [| 2.0; 1.0; 0.0 |] |];
      (* Row of an isolated state outside S: I - T with T = 1 on the diagonal. *)
      Mat.of_arrays [| [| 0.0; 0.0 |]; [| -0.5; 1.0 |] |];
    ]
  in
  let fail = Failure "Solve.lu_solve: singular matrix" in
  List.iter
    (fun m ->
      let n = Mat.rows m in
      Alcotest.check_raises "reference raises" fail (fun () ->
          ignore (Ref.inverse m));
      Alcotest.check_raises "solve" fail (fun () ->
          ignore (Solve.solve m (Array.make n 1.0)));
      Alcotest.check_raises "solve_mat" fail (fun () ->
          ignore (Solve.solve_mat m (Mat.identity n)));
      Alcotest.check_raises "inverse" fail (fun () -> ignore (Solve.inverse m));
      Alcotest.(check (pair int (float 0.0))) "log det" (0, neg_infinity)
        (Solve.log_determinant m))
    singular;
  Alcotest.check_raises "dimension checked before singularity"
    (Invalid_argument "Solve.lu_solve: dimension mismatch") (fun () ->
      ignore (Solve.solve_mat (List.hd singular) (Mat.identity 3)))

let test_mul_bit_identical () =
  let prng = Prng.create ~seed:1504 in
  List.iter
    (fun (r, k, c) ->
      let sparse rows cols =
        Mat.init ~rows ~cols (fun _ _ ->
            if Prng.int prng 3 = 0 then 0.0 else Prng.float prng 2.0 -. 1.0)
      in
      let a = sparse r k and b = random_matrix prng ~rows:k ~cols:c in
      check_bits_mat (Printf.sprintf "%dx%d * %dx%d" r k k c) (Ref.mul a b) (Mat.mul a b))
    [ (1, 1, 1); (2, 3, 4); (7, 5, 3); (16, 16, 16); (33, 17, 40); (64, 64, 64) ];
  Alcotest.check_raises "dimension mismatch"
    (Invalid_argument "Mat.mul: dimension mismatch") (fun () ->
      ignore (Mat.mul (Mat.identity 2) (Mat.identity 3)))

let test_rounded_power_bit_identical () =
  (* Reference: round the input, then square-and-round k times — the loop
     both [Fixed.rounded_power] and [Shortcut.approx] run. *)
  let prng = Prng.create ~seed:1505 in
  let m = random_stochastic prng 12 in
  List.iter
    (fun bits ->
      let round x = match bits with None -> x | Some bits -> Fixed.round_mat ~bits x in
      let rec go acc k = if k = 1 then acc else go (round (Ref.mul acc acc)) (k / 2) in
      List.iter
        (fun k ->
          check_bits_mat (Printf.sprintf "k=%d" k) (go (round m) k)
            (Fixed.rounded_power ?bits m k))
        [ 1; 2; 16; 256 ])
    [ None; Some 40; Some 12 ]

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest qcheck_tests in
  Alcotest.run "cc_linalg"
    [
      ( "mat",
        [
          Alcotest.test_case "identity mul" `Quick test_identity_mul;
          Alcotest.test_case "known product" `Quick test_mul_known;
          Alcotest.test_case "transpose involution" `Quick test_transpose_involution;
          Alcotest.test_case "power" `Quick test_power_matches_repeated_mul;
          Alcotest.test_case "power 0/1" `Quick test_power_zero_and_one;
          Alcotest.test_case "power table" `Quick test_power_table;
          Alcotest.test_case "mat-vec" `Quick test_mul_vec;
          Alcotest.test_case "submatrix" `Quick test_submatrix;
          Alcotest.test_case "stochastic checks" `Quick test_row_stochastic_checks;
          Alcotest.test_case "subtractive error" `Quick test_max_subtractive_error;
        ] );
      ( "solve",
        [
          Alcotest.test_case "known system" `Quick test_solve_known_system;
          Alcotest.test_case "inverse" `Quick test_inverse;
          Alcotest.test_case "determinant" `Quick test_determinant_known;
          Alcotest.test_case "singular determinant" `Quick test_determinant_singular;
          Alcotest.test_case "det product rule" `Quick test_determinant_product_rule;
          Alcotest.test_case "logdet sign" `Quick test_log_determinant_sign;
          Alcotest.test_case "singular solve raises" `Quick test_singular_solve_raises;
        ] );
      ( "schur",
        [
          Alcotest.test_case "block identity" `Quick test_schur_block_identity;
          Alcotest.test_case "keep all" `Quick test_schur_full_keep_is_identity_op;
          Alcotest.test_case "quotient property" `Quick test_schur_quotient_property;
          Alcotest.test_case "determinant identity" `Quick test_schur_determinant_identity;
        ] );
      ( "fixed",
        [
          Alcotest.test_case "round_down basic" `Quick test_round_down_basic;
          Alcotest.test_case "round_down subtractive" `Quick test_round_down_subtractive;
          Alcotest.test_case "Lemma 3 error budget" `Quick test_rounded_power_error_within_lemma3;
          Alcotest.test_case "Lemma 3 bits" `Quick test_lemma3_bits_sufficient;
          Alcotest.test_case "rejects k=3" `Quick test_rounded_power_rejects_non_power_of_two;
        ] );
      ( "bitwise",
        [
          Alcotest.test_case "lu_solve and log det" `Quick test_lu_solve_bit_identical;
          Alcotest.test_case "solve_mat and inverse" `Quick test_solve_mat_inverse_bit_identical;
          Alcotest.test_case "singular input raises" `Quick test_singular_kernels_raise;
          Alcotest.test_case "Mat.mul" `Quick test_mul_bit_identical;
          Alcotest.test_case "rounded_power" `Quick test_rounded_power_bit_identical;
        ] );
      ("properties", qsuite);
    ]
