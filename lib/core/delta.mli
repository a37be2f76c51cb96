(** Epoch-delta recomputation for the exclusive-links pipeline.

    A streaming deployment re-releases the pair estimates every epoch,
    but most counters do not change between consecutive epochs.  This
    module re-runs Protocols 1–3 only over the {e dirty} counter
    groups — reusing the prior epoch's masked-share state for clean
    ones — and proves the optimisation is invisible: a Delta-mode run
    and a Full-mode run (every group recomputed every epoch) release
    {e bit-identical} estimates at every epoch, on any engine.

    {2 Counter groups}

    The unit of recomputation is the counter group of user [i]: the
    activity counter [a_i] together with every published pair sourced
    at [i].  The Protocol 3 mask [r_i] multiplies both the denominator
    [a_i] shares and the numerators of exactly those pairs, so the
    group must be re-shared and re-masked as a whole for the host's
    quotients to keep cancelling.  A group is dirty in an epoch when
    the window accumulator ({!Spe_influence.Stream}) reports its user
    or any of its sourced pairs changed; the dirty indices must refer
    to {e this} instance's published order ({!pairs}), so streaming
    callers build their accumulators over that array.

    {2 Keyed randomness and bit-identity}

    Each group's randomness (Protocol 1/2 pieces, wrap masks, batch
    permutation, Protocol 3 mask) is drawn from a private generator
    seeded by [(group_seed, group, version)], where a group's version
    counts the epochs that dirtied it.  Versions advance identically
    in both modes, so a Full-mode recomputation of a clean group
    replays its previous draws — and its previous inputs, since clean
    means unchanged counters — producing the same masked floats the
    caches already hold.  That, plus IEEE sign symmetry for the
    never-touched all-zero groups, is the whole bit-identity argument;
    the test suite pins it per epoch via the release {!release.digest}.

    {2 One session per epoch}

    An epoch's recomputed groups run as one session of the same rounds
    a single group would take: the groups' separately drawn Protocol 2
    batches are joined block-diagonally
    ({!Spe_mpc.Protocol2_distributed.concat}), one verdict-less core and
    one verdict cover the joined batch, and one 3-round mask phase
    ({!Spe_mpc.Protocol3_distributed.mask_phase}, one mask per group)
    carries every group's masked shares.  Batching changes no draw and
    no released bit; the third party still sees each group's block
    under that group's own permutation.

    This per-group keying is a different randomness architecture from
    the batch pipeline ([Shard]), so delta releases are {e not}
    bit-comparable to [Shard.links_exclusive] — the invariant is
    Delta ≡ Full at every epoch, with both within mask tolerance of
    the plaintext estimates.

    Privacy: each (group, version) is one independent execution of the
    Theorem 4.1 protocol; [Spe_privacy.Composition] bounds what the
    sequence of releases leaks. *)

type mode =
  | Delta  (** Recompute only the epoch's dirty groups. *)
  | Full  (** Recompute every group — the reference the delta must match. *)

type release = {
  epoch : int;
  estimates : float array;  (** Per published pair, the [p_ij] estimate. *)
  strengths : ((int * int) * float) list;  (** Estimates restricted to true arcs. *)
  digest : int;
      (** 61-bit FNV-1a over the estimate bit patterns, broadcast to
          every provider in the release round — the quantity the
          delta≡full check compares. *)
  recomputed : int;  (** Groups re-run this epoch (= dirty groups in Delta mode). *)
}

type epoch_input = {
  epoch : int;  (** Must be consecutive from 0. *)
  dirty_users : int list;  (** From {!Spe_influence.Stream.dirty_users}. *)
  dirty_pairs : int list;  (** From {!Spe_influence.Stream.dirty_pairs}. *)
  inputs : Protocol4.provider_input array;
      (** Per provider, the full windowed counters against {!pairs}.
          {!epoch_stages} reads them during the call only and copies
          what it needs, so a caller may pass an accumulator's live
          arrays ({!Spe_influence.Stream.activity},
          {!Spe_influence.Stream.lag_counters}) and keep ingesting while
          the epoch's stages wait to run. *)
}

type t

val create :
  Spe_rng.State.t ->
  graph:Spe_graph.Digraph.t ->
  m:int ->
  num_actions:int ->
  group_seed:int ->
  Protocol4.config ->
  t
(** Draw the pair obfuscation from [st] and set up empty caches.
    [group_seed] keys the per-(group, version) randomness; a Delta and
    a Full instance meant to be compared must share both the seed of
    [st] and [group_seed].  Validation as in [Shard.links]. *)

val pairs : t -> (int * int) array
(** The published pair order every dirty index refers to. *)

val epoch_stages : t -> mode:mode -> epoch_input -> Plan.stage list
(** Plan one epoch: a publish stage (epoch 0 only), a
    ["delta-groups"] stage holding one session that recomputes every
    group of the epoch (absent when nothing is dirty in Delta mode),
    and the release stage.  Stages carry the epoch in
    {!Plan.stage.epoch} and phase labels are prefixed [e<epoch>/].
    Mutates the instance (versions, epoch cursor), so feed each epoch
    exactly once, in order; the returned stages must be executed
    before the next epoch's stages are {e run} (building ahead is fine
    — the inputs are not read after the call returns).  Raises
    [Invalid_argument] on a non-consecutive epoch or malformed
    inputs. *)

val releases : t -> release list
(** Every release produced so far, ascending by epoch. *)

val digest_of_estimates : float array -> int
(** The release digest function (61-bit FNV-1a over IEEE bit
    patterns), exposed for verifiers. *)
