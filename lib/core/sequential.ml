module Graph = Cc_graph.Graph
module Tree = Cc_graph.Tree
module Prng = Cc_util.Prng
module Dist = Cc_util.Dist
module Schur = Cc_schur.Schur
module Shortcut = Cc_schur.Shortcut
module Topdown = Cc_walks.Topdown

type result = { tree : Tree.t; phases : int; walk_total : int }

(* A plan is the shared phase plan with an exact-solve shortcut and exact
   arithmetic; everything in it is pure compute, so memo hits and misses are
   indistinguishable to the caller except in time. *)
type plan = Phase_plan.t

let prepare ?rho ?target_len ?(lazy_walk = true) g =
  if not (Graph.is_connected g) then
    invalid_arg "Sequential.prepare: graph must be connected";
  Phase_plan.prepare ?rho ?target_len ~lazy_walk ~shortcut:Shortcut.exact g

let draw (plan : plan) prng =
  let g = plan.graph in
  let n = Graph.n g in
  let rho = plan.rho in
  let target_len = plan.target_len in
  let visited = Array.make n false in
  visited.(0) <- true;
  let remaining = ref (n - 1) in
  let tree_edges = ref [] in
  let current = ref 0 in
  let phases = ref 0 in
  let walk_total = ref 0 in
  let claim u v =
    visited.(v) <- true;
    decr remaining;
    tree_edges := (u, v) :: !tree_edges
  in
  (* Top-down filling of a truncated walk from a power table. *)
  let walk powers ~start ~rho =
    Topdown.sample_truncated_matrix prng ~powers ~start ~target_len ~rho ()
  in
  while !remaining > 0 do
    incr phases;
    if !phases = 1 then begin
      let walk = walk plan.powers1 ~start:0 ~rho:(min rho n) in
      walk_total := !walk_total + Array.length walk - 1;
      Array.iteri
        (fun idx v -> if idx > 0 && not visited.(v) then claim walk.(idx - 1) v)
        walk;
      current := walk.(Array.length walk - 1)
    end
    else begin
      let s, start = Phase_plan.vertex_set ~visited ~current:!current in
      let in_s = Schur.members ~n ~s in
      let entry, _ = Phase_plan.phase plan ~s in
      let claim_via_shortcut prev v =
        let weights =
          Shortcut.first_visit_weights g entry.q ~in_s ~prev ~target:v
        in
        let idx = Dist.sample_weights (Array.map snd weights) prng in
        claim (fst weights.(idx)) v
      in
      if Array.length s = 2 then begin
        let v = s.(1 - start) in
        claim_via_shortcut !current v;
        walk_total := !walk_total + 1;
        current := v
      end
      else begin
        let walk_local =
          walk (Lazy.force entry.powers) ~start ~rho:(min rho (Array.length s))
        in
        walk_total := !walk_total + Array.length walk_local - 1;
        let walk = Array.map (fun i -> s.(i)) walk_local in
        Array.iteri
          (fun idx v ->
            if idx > 0 && not visited.(v) then claim_via_shortcut walk.(idx - 1) v)
          walk;
        current := walk.(Array.length walk - 1)
      end
    end
  done;
  let tree = Tree.of_edges ~n !tree_edges in
  assert (Tree.is_spanning_tree g tree);
  Cc_audit.Audit.observe_sink g tree;
  { tree; phases = !phases; walk_total = !walk_total }

let sample ?rho ?target_len ?(lazy_walk = true) g prng =
  if not (Graph.is_connected g) then
    invalid_arg "Sequential.sample: graph must be connected";
  draw (prepare ?rho ?target_len ~lazy_walk g) prng

let sample_tree g prng = (sample g prng).tree
