(** Matrix multiplication in the Congested Clique.

    Input/output convention follows Censor-Hillel et al. [14] as used by the
    paper: each machine i holds row i of each operand and learns row i of the
    product. Two cost backends:

    - [Charged]: the product is computed locally and
      [coeff * n^alpha * entry_words] rounds are booked — the paper's
      accounting, with alpha = 0.158 by default (their Theorem for semiring-
      free matrix exponent in the clique). This is the backend the
      sublinear-sampler benches use.
    - [Routed_broadcast]: a fully metered naive algorithm in which every
      machine broadcasts its row of the right operand so each machine can
      form its product row locally — Θ(n · entry_words) rounds. Included as
      the baseline exhibiting why fast matmul matters (and to show that the
      simulator can route everything explicitly).
    - [Routed_semiring]: the 3D semiring algorithm of [14] at
      Θ(n^(1/3) · entry_words) rounds, metered by its real per-machine block
      loads — the best exponent achievable without fast (ring) matrix
      multiplication.

    The Initialization Step of Algorithm 1 — compute P, P^2, P^4, ...,
    P^(2^levels) and transpose-distribute so each machine also holds its
    column of every power ("Every Machine i sends P^k[i,j] to machine j") —
    is split in two: [power_table] is the arithmetic and
    [book_power_table] the communication, so a prepared plan computes a
    table once and every draw pays its rounds. *)

type backend =
  | Charged of { alpha : float; coeff : float }
  | Routed_broadcast
  | Routed_semiring
      (** the semiring algorithm of Censor-Hillel et al. [14]: machines are
          arranged in an n^(1/3) x n^(1/3) x n^(1/3) cube, every machine
          receives two n^(2/3) x n^(2/3) operand blocks and sends n^(4/3)
          partial products for combining — O(n^(1/3)) rounds per entry word,
          metered as per-machine block loads. (The paper's O(n^0.158) needs
          Strassen-style ring algorithms; that cost is available through
          [Charged].) *)

(** The current Congested Clique matrix-multiplication exponent,
    [1 - 2/omega] with omega ~ 2.372: 0.158. *)
val default_alpha : float

(** [charged ()] is [Charged { alpha = default_alpha; coeff = 1.0 }]. *)
val charged : ?alpha:float -> ?coeff:float -> unit -> backend

(** [backend_name b] is a short stable name (["charged"],
    ["routed-broadcast"], ["routed-semiring"]) for traces and reports. *)
val backend_name : backend -> string

(** [mul net backend a b] returns the product and books its rounds under
    label ["matmul"]. Operands need not be n x n: off-size products (the
    |S| x |S| Schur matrices of later phases, the 2n x 2n auxiliary chain)
    are booked at [mul_cost ~dim]. *)
val mul : Net.t -> backend -> Cc_linalg.Mat.t -> Cc_linalg.Mat.t -> Cc_linalg.Mat.t

(** [rounds_estimate net backend] is the round cost a single multiplication
    will book — used by benches to display the analytic charge. *)
val rounds_estimate : Net.t -> backend -> float

(** [mul_cost net backend ~dim] is the round cost of multiplying [dim x dim]
    matrices on this clique (dim may exceed n, e.g. the 2n-vertex auxiliary
    graph G' of Corollary 3 — each machine then simulates O(dim/n) rows). *)
val mul_cost : Net.t -> backend -> dim:int -> float

(** [power_table ?bits m ~levels] returns
    [[| m; m^2; m^4; ...; m^(2^levels) |]] (length [levels + 1]),
    optionally truncating [m] and every square to [bits] fractional bits
    (Lemma 3's rounded powering). Pure arithmetic: it books nothing, so a
    table can be computed once (a prepared plan) and booked on every draw
    with {!book_power_table}.
    @raise Invalid_argument if [m] is not square or [levels < 0]. *)
val power_table : ?bits:int -> Cc_linalg.Mat.t -> levels:int -> Cc_linalg.Mat.t array

(** [book_power_table net backend ~dim ~levels] books what computing a
    [dim x dim] power table with [levels] squarings costs the clique
    (Algorithm 1 lines 2–3): one column-redistribution [all_to_all], then
    per level the Net events {!mul} books for one [dim x dim] product and
    another [all_to_all]. *)
val book_power_table : Net.t -> backend -> dim:int -> levels:int -> unit
