(** Midpoint-placement instances and a class-compressed exact sampler.

    In the Midpoint Placement step (Section 3.1.3), the leader machine M
    receives only a {e multiset} of midpoints and must place them into walk
    positions identified by (start,end) pairs, sampling a perfect matching
    with probability proportional to the product of edge weights
    [P^(d/2)[p,v] * P^(d/2)[v,q]].

    The crucial structure: the weight of edge (instance, position) depends
    only on the instance's {e identity} v and the position's {e pair} (p,q).
    Instances with equal identity are exchangeable, as are positions with
    equal pair, so a matching is determined (up to a uniform relabeling) by
    its {e contingency table} N(v, t) = how many class-v instances land on
    class-t positions, and

      P(N)  proportional to  prod_{v,t} a(v,t)^N(v,t) / N(v,t)!

    subject to the row/column margins. [sample_exact] draws N by dynamic
    programming over row classes (state = remaining column capacities) and
    then assigns labeled instances/positions uniformly within classes. This
    is {e exact} and handles instances with thousands of midpoints as long as
    the class structure is small. The state count {!dp_states} is the only
    size limit and is known before any work: callers compare it against
    their cap and fall back to the generic samplers in {!Sampler} beyond
    it. *)

type t = {
  identities : int array;  (** identity class of each instance *)
  positions : (int * int) array;  (** (start,end) pair of each position *)
  weights : float array array;
      (** [weights.(i).(j)]: instance i at position j; derived from classes *)
}

(** [build ~identities ~positions ~weight] constructs the dense instance;
    lengths must agree; weights must be nonnegative (zeros mark unreachable
    identity/position combinations). *)
val build :
  identities:int array ->
  positions:(int * int) array ->
  weight:(v:int -> p:int -> q:int -> float) ->
  t

(** [dp_states t] is the size of the DP state space, the product over
    position classes of (count + 1), saturating at [max_int] instead of
    wrapping. It is exactly the length of [sample_exact]'s memo (a flat
    [float array]; the all-empty state is the unmemoized base case), so it
    predicts the DP's memory and time before any work is done. *)
val dp_states : t -> int

(** [sample_exact prng t] draws a matching sigma (position j -> instance
    sigma.(j)) exactly proportional to weight, via the contingency-table DP.
    [max_states] (default 1_000_000) is the only limit; there is no hidden
    work budget behind it.
    @raise Invalid_argument if [dp_states t] exceeds [max_states], before
    running the DP or drawing from [prng]. *)
val sample_exact : ?max_states:int -> Cc_util.Prng.t -> t -> int array

(** [sample ?mcmc_steps ?init prng t] uses [sample_exact] when
    [dp_states t] is within the default [max_states], otherwise
    {!Sampler.mcmc} on the dense weights, started from [init] (which must
    be a positive-weight matching when given — callers with a witness
    assignment should pass it so the chain starts feasible even when the
    support is sparse). *)
val sample :
  ?mcmc_steps:int -> ?init:int array -> Cc_util.Prng.t -> t -> int array

(** [matching_weight t sigma] is the product weight of an assignment. *)
val matching_weight : t -> int array -> float
