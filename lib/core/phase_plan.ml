module Graph = Cc_graph.Graph
module Mat = Cc_linalg.Mat
module Matmul = Cc_clique.Matmul
module Schur = Cc_schur.Schur
module Topdown = Cc_walks.Topdown

type entry = { q : Mat.t; powers : Mat.t array Lazy.t }

type t = {
  graph : Graph.t;
  rho : int;
  target_len : int;
  levels : int;
  lazy_walk : bool;
  bits : int option;
  shortcut : Graph.t -> in_s:bool array -> Mat.t;
  powers1 : Mat.t array;
  memo : (string, entry) Hashtbl.t;
}

(* Later-phase vertex sets are seed-dependent, so the memo is bounded:
   beyond [memo_cap] distinct sets, fresh entries are computed but not
   retained (replaying one seed stays fully memoized; a cap overflow only
   costs recompute, never correctness). *)
let memo_cap = 128

let next_pow2 x = 1 lsl Topdown.levels_for ~len:x

(* Lazy mixing (I + P) / 2 kills the periodicity of bipartite (sub)graphs so
   that coarse-level truncation can fire; self-loop steps never produce
   first-visit edges, and the embedded non-lazy walk is exactly the original
   walk, so the sampled tree's law is unchanged. *)
let mix ~lazy_walk m = if lazy_walk then Mat.half_lazy m else m

let prepare ?rho ?target_len ?bits ~lazy_walk ~shortcut g =
  let n = Graph.n g in
  let rho =
    match rho with
    | Some r -> max 2 (min r n)
    | None -> max 2 (int_of_float (Float.ceil (sqrt (Float.of_int n))))
  in
  let target_len =
    match target_len with
    | Some l -> next_pow2 (max 2 l)
    | None ->
        let lg = max 1 (int_of_float (Float.ceil (Float.log2 (Float.of_int n)))) in
        next_pow2 (max 2 (n * n * n * lg))
  in
  let levels = Topdown.levels_for ~len:target_len in
  let trans1 = mix ~lazy_walk (Graph.transition_matrix g) in
  {
    graph = g;
    rho;
    target_len;
    levels;
    lazy_walk;
    bits;
    shortcut;
    powers1 = Matmul.power_table ?bits trans1 ~levels;
    memo = Hashtbl.create 32;
  }

let memo_key s =
  let buf = Buffer.create (4 * Array.length s) in
  Array.iter
    (fun v ->
      Buffer.add_string buf (string_of_int v);
      Buffer.add_char buf ',')
    s;
  Buffer.contents buf

(* Numeric cleanup: clamp dust and renormalize rows so the walk receives a
   proper stochastic matrix. *)
let sanitize m =
  Mat.normalize_rows
    (Mat.init ~rows:(Mat.rows m) ~cols:(Mat.cols m) (fun i j ->
         Float.max 0.0 (Mat.get m i j)))

let phase t ~s =
  let key = memo_key s in
  match Hashtbl.find_opt t.memo key with
  | Some e -> (e, true)
  | None ->
      let g = t.graph in
      let q = t.shortcut g ~in_s:(Schur.members ~n:(Graph.n g) ~s) in
      let powers =
        lazy
          (let trans = sanitize (Schur.transition_via_shortcut g q ~s) in
           Matmul.power_table ?bits:t.bits
             (mix ~lazy_walk:t.lazy_walk trans)
             ~levels:t.levels)
      in
      let e = { q; powers } in
      if Hashtbl.length t.memo < memo_cap then Hashtbl.add t.memo key e;
      (e, false)

let vertex_set ~visited ~current =
  let s =
    Array.of_list
      (List.filter
         (fun v -> v = current || not visited.(v))
         (List.init (Array.length visited) Fun.id))
  in
  let rec index i = if s.(i) = current then i else index (i + 1) in
  (s, index 0)
