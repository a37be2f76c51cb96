(** Protocol 4 — secure computation of link influence probabilities
    (Sec. 5.1, exclusive case).

    The host owns the social graph; each provider owns a private
    counter set derived from his action log (or, in the non-exclusive
    case, from the Protocol 5 preprocessing).  The host ends up with
    [p_(i,j)] for every real arc; the providers never learn which pairs
    are real, the host never sees raw counters.

    Pipeline:
    + the host publishes the obfuscated pair set [Omega_E'] of size
      [q >= c * |E|] ({!publish_pairs}, Steps 1-2);
    + the providers run the batched Protocol 2 over all counters — the
      [n] activity counters [a_i] plus, per published pair, either the
      [q] window counters [b^h] (Eq. 1) or the [q*h] lag counters [c^l]
      (Eq. 2) — ending with integer additive shares at players 1 and 2
      (Steps 3-4);
    + players 1 and 2 run the batched Protocol 3 ([Spe_mpc.Protocol3]):
      one joint mask [r_i] per user (Steps 5-6), multiplying the
      activity share [a_i] and the numerator share of every pair
      sourced at [i] — for Eq. 2 each lag share enters the local
      weighted combination first — and send the masked shares to the
      host (Steps 7-8);
    + the host sums share pairs, divides, and keeps the real arcs
      (Step 9). *)

type estimator =
  | Eq1  (** [p = b^h / a]. *)
  | Eq2 of Spe_influence.Link_strength.weights
      (** [p = sum_l w_l c^l / a] — temporal decay. *)

type config = {
  c_factor : float;  (** Obfuscation blow-up [c >= 1] for [E']. *)
  modulus : int;  (** The share modulus [S >> A]. *)
  h : int;  (** Memory-window width. *)
  estimator : estimator;
}

val default_config : h:int -> config
(** [c = 2], [S = 2^40], Eq. 1. *)

val publish_pairs :
  Spe_rng.State.t ->
  wire:Spe_mpc.Wire.t ->
  graph:Spe_graph.Digraph.t ->
  m:int ->
  c_factor:float ->
  (int * int) array
(** Steps 1-2: the host draws [E' ⊇ E] with [|E'| >= c_factor * |E|]
    and broadcasts [Omega_E'] to the [m] providers (one wire round). *)

type provider_input = {
  a : int array;  (** Local activity counters [a_(i,k)], length [n]. *)
  c : int array array;
      (** Local lag counters: [c.(k).(l-1)] is [c^l] of the k-th
          published pair.  [b^h] is recovered as the row sum. *)
}

val provider_input_of_log :
  Spe_actionlog.Log.t -> h:int -> pairs:(int * int) array -> provider_input
(** What each provider computes locally once [Omega_E'] is known. *)

val flatten_input : estimator -> provider_input -> int array
(** The counters one provider feeds the batched Protocol 2, flattened
    as [a_0..a_(n-1)] followed by the per-pair numerator counters — the
    window counters [b^h] under Eq. 1, the [h] lag counters per pair
    under Eq. 2.  Shared with [Shard] and [Delta]. *)

val strengths_of_estimates :
  graph:Spe_graph.Digraph.t ->
  pairs:(int * int) array ->
  float array ->
  ((int * int) * float) list
(** Restriction of the per-pair estimates to the real arcs, in
    published-pair order. *)

type result = {
  strengths : ((int * int) * float) list;
      (** Final output: [p_(i,j)] for the real arcs only. *)
  pairs : (int * int) array;  (** The published [Omega_E']. *)
  pair_estimates : float array;
      (** The host's quotient for every published pair (including
          decoys) — inputs to the cost/privacy analyses. *)
  p2_leaks : Spe_mpc.Protocol2.leak array;
      (** Protocol 2 leakage to player 2, one entry per shared
          counter. *)
  p3_leaks : Spe_mpc.Protocol2.leak array;
      (** Leakage to the third party, in its (permuted) view order. *)
}

type masked_shares = {
  masked : Spe_mpc.Protocol3.outcome;
      (** The per-user joint masks and both players' masked shares:
          activity shares as the denominators, one numerator per
          published pair in the group of its source user. *)
  share_p2_leaks : Spe_mpc.Protocol2.leak array;
  share_p3_leaks : Spe_mpc.Protocol2.leak array;
}

val share_and_mask :
  Spe_rng.State.t ->
  wire:Spe_mpc.Wire.t ->
  n:int ->
  num_actions:int ->
  pairs:(int * int) array ->
  inputs:provider_input array ->
  config ->
  masked_shares
(** Steps 3-6 of Protocol 4 (batched Protocol 2, then the central
    [Spe_mpc.Protocol3.run] with one group per user), without the
    host-directed sends — the shared building block of {!run} and
    [Protocol4_multi_host].  The host's estimate for pair [k] is
    [Spe_mpc.Protocol3.quotients ~groups:(Array.map fst pairs)]. *)

val run :
  Spe_rng.State.t ->
  wire:Spe_mpc.Wire.t ->
  graph:Spe_graph.Digraph.t ->
  num_actions:int ->
  pairs:(int * int) array ->
  inputs:provider_input array ->
  config ->
  result
(** Steps 3-9, given a previously published pair set and the providers'
    counter sets built against it.  [m = Array.length inputs >= 2]; the
    third party for Protocol 2 is provider 3 when [m > 2], else the
    host.  Raises [Invalid_argument] on shape or parameter
    violations. *)

val run_with_logs :
  Spe_rng.State.t ->
  wire:Spe_mpc.Wire.t ->
  graph:Spe_graph.Digraph.t ->
  logs:Spe_actionlog.Log.t array ->
  config ->
  result
(** End-to-end exclusive case: {!publish_pairs}, local counter
    extraction from each provider's log, then {!run}. *)
