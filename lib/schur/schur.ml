module Graph = Cc_graph.Graph
module Mat = Cc_linalg.Mat
module Solve = Cc_linalg.Solve
module Net = Cc_clique.Net
module Matmul = Cc_clique.Matmul

let members ~n ~s =
  let in_s = Array.make n false in
  Array.iter
    (fun v ->
      if v < 0 || v >= n then invalid_arg "Schur.members: vertex out of range";
      if in_s.(v) then invalid_arg "Schur.members: duplicate vertex";
      in_s.(v) <- true)
    s;
  in_s

let graph_exact g ~s =
  if Array.length s = 0 then invalid_arg "Schur.graph_exact: empty S";
  ignore (members ~n:(Graph.n g) ~s);
  Cc_obs.Trace.with_span "schur.exact"
    ~args:
      [
        ("n", string_of_int (Graph.n g));
        ("keep", string_of_int (Array.length s));
      ]
  @@ fun () ->
  let l = Graph.laplacian g in
  let schur_l = Solve.schur_complement l ~keep:s in
  (* The Schur complement of a Laplacian is a Laplacian (Fact 2.3.6 in Kyng);
     clamp numeric dust so tiny positive off-diagonals do not create edges. *)
  Graph.of_laplacian ~tol:1e-9 schur_l

let transition_exact g ~s = Graph.transition_matrix (graph_exact g ~s)

let transition_via_shortcut g q ~s =
  let n = Graph.n g in
  let in_s = members ~n ~s in
  let k = Array.length s in
  (* R[u,v] = w(u,v)/w_S(u) for edges u~v with v in S (Corollary 4,
     generalized to weights; = 1/deg_S(u) when unweighted). A row with no
     weight into S keeps its self-loop. Filled from the adjacency lists:
     O(n + m) past the zero fill. *)
  let r = Mat.create ~rows:n ~cols:n 0.0 in
  let rd = Mat.data r in
  for u = 0 to n - 1 do
    let ws = Shortcut.s_weight g ~in_s u in
    if ws = 0.0 then rd.((u * n) + u) <- 1.0
    else
      Array.iter
        (fun (v, w) -> if in_s.(v) then rd.((u * n) + v) <- w /. ws)
        (Graph.neighbors g u)
  done;
  let m = Mat.mul q r in
  Mat.init ~rows:k ~cols:k (fun i j ->
      if i = j then 0.0
      else
        let u = s.(i) and v = s.(j) in
        let diag = Mat.get m u u in
        let denom = 1.0 -. diag in
        if denom <= 0.0 then 0.0 else Mat.get m u v /. denom)

let approx ?bits g ~s ~k =
  let in_s = members ~n:(Graph.n g) ~s in
  Cc_obs.Trace.with_span "schur.approx"
    ~args:
      [
        ("n", string_of_int (Graph.n g));
        ("keep", string_of_int (Array.length s));
        ("k", string_of_int k);
      ]
  @@ fun () ->
  transition_via_shortcut g (Shortcut.approx ?bits g ~in_s ~k) ~s

(* Rounds for computing SHORTCUT + SCHUR via the paper's powering pipeline:
   log2 k squarings of the 2n x 2n auxiliary chain plus the QR product. *)
let book_pipeline net backend ~k =
  let n = Net.n net in
  let rec log2_ceil p e = if p >= k then e else log2_ceil (2 * p) (e + 1) in
  Net.charge net ~label:"shortcut powering"
    (Float.of_int (log2_ceil 1 0) *. Matmul.mul_cost net backend ~dim:(2 * n));
  Net.charge net ~label:"schur normalize" (Matmul.mul_cost net backend ~dim:n)
