(** Protocol 3 — secure division, batched, in the form every pipeline
    runs.

    The host must learn real quotients [num / den] (zero if
    [den = 0]) of values that players 1 and 2 hold as additive shares,
    and as little as possible beyond them.  The two players jointly
    draw [M ~ Z] (pdf [mu^-2] on [[1, inf)]) and [r ~ U(0, M)], multiply
    their shares of numerator and denominator by the {e same} [r], and
    send the host the masked reals; the host sums the two players'
    values and divides — the mask cancels:
    [(r*s1_num + r*s2_num) / (r*s1_den + r*s2_den) = num / den].

    A batch has one mask per {e group}: a group is one denominator and
    every numerator divided by it — Protocol 4's user [i] with its
    activity counter [a_i] and the window counters of every published
    pair sourced at [i].  This module is the central form, charging the
    simulated {!Wire}; [Protocol3_distributed] is the session form that
    the distributed pipelines run.

    Because [Z] is heavy-tailed, Theorem 4.3 shows every positive value
    remains a possible pre-image of a masked observation; Theorem 4.4
    gives the exact posterior (implemented in [Spe_privacy.Posterior]).
    A zero observation does reveal a zero input — which the paper
    argues is the insensitive direction (not having acted). *)

type shares = {
  den : float array;  (** One denominator share per group. *)
  num : float array;  (** Numerator shares, each with its group given separately. *)
}
(** One player's inputs, or the same shares once masked. *)

type outcome = {
  masks : float array;  (** The joint masks, one per group (players 1-2 only). *)
  masked1 : shares;  (** Player 1's masked shares, as the host receives them. *)
  masked2 : shares;
}

val run :
  Spe_rng.State.t ->
  wire:Wire.t ->
  p1:Wire.party ->
  p2:Wire.party ->
  groups:int array ->
  shares ->
  shares ->
  outcome
(** [run st ~wire ~p1 ~p2 ~groups s1 s2] draws one joint mask per group
    ([Array.length s1.den] of them, each [Spe_rng.Dist.mask_pair]),
    charges the two mask-agreement rounds ([p1 <-> p2], one float per
    group each way), and masks both players' shares: numerator [k]
    under the mask of group [groups.(k)].  The sends to the host are
    left to the caller, whose pipelines ship different subsets of the
    masked values.  Raises [Invalid_argument] if the share vectors'
    shapes differ from each other or from [groups], or if
    [p1 = p2]. *)

val quotients : groups:int array -> shares -> shares -> float array
(** The host's side: [quotients ~groups m1 m2] is, for every numerator
    [k] of group [g = groups.(k)],
    [(m1.num.(k) + m2.num.(k)) / (m1.den.(g) + m2.den.(g))], and zero
    when the denominator is zero. *)
