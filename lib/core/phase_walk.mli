(** The distributed truncated random walk of one phase (Section 3.1.3).

    Given the transition matrix of the phase graph (G in phase 1, a Schur
    complement in later phases), this module runs the full Congested Clique
    pipeline on the simulator:

    - {b Initialization} (Algorithm 1): distributed power table
      P, P^2, ..., P^l and sampling of the endpoint w_l from P^l[w_0, *].
    - {b Midpoint Request and Generation} (Algorithm 2): count (start,end)
      pairs, route requests to per-pair machines, acquire the Formula 1
      distribution, sample midpoint sequences.
    - {b Check / distributed binary search} (Algorithm 3): find the
      truncation point t — the first index at which the rho-th distinct
      vertex appears in the "magical" filled walk — by binary search with
      each probe exchanging real packets.
    - {b Midpoint Placement}: collect only the multiset of midpoints, place
      the final midpoint exactly, and re-place the rest by sampling a
      weighted perfect matching between midpoint identities and
      (start,end)-pair positions (class-compressed exact DP with MCMC
      fallback, or the "magical" assignment for the ablation mode — by
      Theorem 3 both induce the same walk law).

    All data movement is metered through the [Net] ledger; the power table's
    squarings are booked at the configured [Matmul] backend's cost. *)

type matching_mode =
  | Resample of { mcmc_steps : int option }
      (** the paper's pipeline: multiset + perfect matching; [mcmc_steps]
          overrides the fallback chain length. *)
  | Magical
      (** ablation: keep the original per-pair ordering (never communicated
          in the real algorithm; same distribution by Theorem 3). *)

type stats = {
  levels : int;
  checks : int;  (** total binary-search probes across levels *)
  midpoints_placed : int;
  matchings_exact : int;  (** placements solved by the exact DP *)
  matchings_mcmc : int;  (** placements that fell back to the swap chain *)
}

(** [run net prng ~backend ~powers ~machine_of ~start ~rho ~matching ()]
    returns the walk (as indices into the phase graph) ending at time
    tau = min(2^levels, first occurrence of the rho-th distinct vertex),
    together with statistics.

    [powers] is the phase graph's power table
    [[| P; P^2; ...; P^(2^levels) |]] ({!Cc_clique.Matmul.power_table},
    usually from a prepared {!Phase_plan}). [run] does no arithmetic on it
    beyond reading entries; it books the table's communication through
    {!Cc_clique.Matmul.book_power_table}, so a table reused across draws
    costs the clique the same rounds as a fresh one.

    [machine_of i] is the clique machine hosting phase-vertex [i] (identity
    in phase 1, the S-array in later phases).
    @raise Invalid_argument if [powers] has fewer than two entries,
    [rho < 2], or [start] is out of range. *)
val run :
  Cc_clique.Net.t ->
  Cc_util.Prng.t ->
  backend:Cc_clique.Matmul.backend ->
  powers:Cc_linalg.Mat.t array ->
  machine_of:(int -> int) ->
  start:int ->
  rho:int ->
  matching:matching_mode ->
  unit ->
  int array * stats
