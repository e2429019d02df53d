(** The prepared phase plan shared by both phased samplers.

    The sublinear sampler ({!Sampler}, Section 3) and its sequential
    reference ({!Sequential}, Section 1.2) run the same phase structure:
    phase 1 walks on G from the Algorithm 1 power table, and each later
    phase walks on SCHUR(G, S) for S = the current vertex plus the
    unvisited ones, built from the shortcut matrix Q (Corollary 4). Only the
    walk filling differs — top-down locally or {!Phase_walk} on the clique.
    Everything that depends on the graph alone lives here, computed once
    and shared across draws:

    - rho, the per-phase target length and its level count;
    - the phase-1 power table of the (lazy-mixed) transition matrix of G;
    - a bounded memo, per vertex set S, of Q and the power table of the
      (sanitized, lazy-mixed) Schur transition, filled lazily on first use.

    The plan is pure compute: it draws no randomness and books nothing on
    any clique. A sampler that runs on a clique books the tables' rounds
    itself ({!Cc_clique.Matmul.book_power_table}) on every draw, hit or
    miss, so a reused plan changes time, never trees or recorder digests.
    Plans are not thread-safe. *)

type entry = {
  q : Cc_linalg.Mat.t;  (** the shortcut matrix Q of S (n x n). *)
  powers : Cc_linalg.Mat.t array Lazy.t;
      (** power table of the |S| x |S| Schur transition; entry 0 is the
          transition itself. Forced by the first walk that needs it (the
          two-vertex phase never does). *)
}

type t = private {
  graph : Cc_graph.Graph.t;
  rho : int;  (** distinct-vertex budget per phase, in [2, n]. *)
  target_len : int;  (** per-phase target walk length, a power of two. *)
  levels : int;  (** [log2 target_len]: each power table has [levels + 1] entries. *)
  lazy_walk : bool;
  bits : int option;  (** fixed-point fractional bits of every power table. *)
  shortcut : Cc_graph.Graph.t -> in_s:bool array -> Cc_linalg.Mat.t;
  powers1 : Cc_linalg.Mat.t array;
      (** phase-1 power table; entry 0 is the transition matrix of G. *)
  memo : (string, entry) Hashtbl.t;
}

(** [prepare ?rho ?target_len ?bits ~lazy_walk ~shortcut g] resolves the
    phase parameters — rho defaults to ceil(sqrt n) and is clamped to
    [2, n]; target_len defaults to next_pow2(n^3 log2 n) and is rounded up
    to a power of two — and computes the phase-1 power table. [shortcut]
    computes Q for a vertex set (exact solve, or powering); [bits], when
    given, truncates every power-table entry (Lemma 3). The caller checks
    that [g] is connected. *)
val prepare :
  ?rho:int ->
  ?target_len:int ->
  ?bits:int ->
  lazy_walk:bool ->
  shortcut:(Cc_graph.Graph.t -> in_s:bool array -> Cc_linalg.Mat.t) ->
  Cc_graph.Graph.t ->
  t

(** [phase t ~s] is the memo entry of vertex set [s] (sorted vertex ids),
    computing Q on a miss; the flag is [true] on a memo hit. *)
val phase : t -> s:int array -> entry * bool

(** [vertex_set ~visited ~current] is the vertex set S of a later phase —
    [current] and every unvisited vertex, in increasing order — paired with
    the index of [current] in it. *)
val vertex_set : visited:bool array -> current:int -> int array * int
