(** The distributed pipelines: Protocol 4 over exclusive logs (Sec.
    5.1), Protocols 5 then 4 over non-exclusive logs (Sec. 5.2), and
    Protocol 6 plus the score unmasking (Sec. 6), each cut into [k]
    per-shard sessions organised as a {!Plan}.  This is the one
    distributed form of each pipeline: the in-process engines run it
    through {!Plan.execute} (on sim, lowered with {!Plan.to_session}),
    and every [spe serve] daemon seats its party's sessions of the same
    plan.  From an equal-positioned generator the merged result is {e
    bit-identical} to the central [Driver]'s for every [k >= 1] and on
    every engine, and the charged rounds and messages at [k = 1] equal
    the central [NR]/[NM] statistics; message {e sizes} differ only by
    the typed payload encodings (DESIGN.md, "central vs distributed
    wire sizes").

    {2 Phases}

    The link pipelines run:
    + {e publish} — the host ships the obfuscated pair set [Omega_E']
      to every provider (Steps 1-2), one slice per shard
      ({!Protocol4_distributed.publish_slice_session});
    + {e share} — the batched Protocol 2 over every counter (Steps
      3-4): each provider builds its flat counter vector against the
      published pair list, and each shard runs a verdict-less Protocol
      2 core ({!Spe_mpc.Protocol2_distributed.make_core}) over its
      slice; one full-batch verdict session ([p2-verdict]) then
      announces all wraps in a single [Bits] message, byte-identical to
      the unsharded announcement;
    + {e mask} — players 1 and 2 exchange the two joint-mask agreement
      rounds, combine and mask their shares and ship the masked reals;
      the host reconstructs the quotients (Steps 5-9).  Per-shard
      masking sessions scatter into the host's masked arrays.

    The non-exclusive pipeline first runs one Protocol 5 session per
    action class ([p5-classes]), built in class order with the central
    driver's trusted-party seating ({!Driver.pick_trusted}); each class
    representative's Protocol 4 input reads the class counters those
    sessions delivered.

    The score pipeline runs Protocol 6 ({!Protocol6_distributed}):
    pair publication and the key broadcast ([p6-setup]), then the
    encrypted bundle relay with the {e action} range cut into shards
    ([p6-bundles]); then the batched Protocol 2 over the activity
    counters and the five-round unmasking ([scores-share]): mask
    agreement, masked denominators to the host, and the blinded
    round-trip host -> player 1 -> host, the host dividing out its
    blinds at the finishing call.

    {2 Draw order and permute-then-shard}

    Sharding must not change what any party learns.  All randomness —
    the pair obfuscation, the batched Protocol 2 secrets and {e the
    secret permutation}, the per-user masks and blinds, the Protocol 5
    class draws, the Protocol 6 keygen and encryptions — is drawn at
    plan-build time in exactly the central order; shards are then
    contiguous chunks of the {e already-permuted} published order.  The
    shard boundary is therefore a public function of published sizes
    and [k] alone, and leaks nothing about which counters landed in
    which shard; and because no draw depends on [k], every shard count
    merges to bit-identical results (DESIGN.md, "Sharded execution").
    Per-shard payload bytes sum exactly to the [k = 1] totals ([MS]
    invariant), while rounds and message counts grow with [k] by the
    closed forms in DESIGN.md. *)

val links_exclusive :
  Spe_rng.State.t ->
  graph:Spe_graph.Digraph.t ->
  logs:Spe_actionlog.Log.t array ->
  shards:int ->
  Protocol4.config ->
  Protocol4.result Plan.t
(** The Sec. 5.1 pipeline cut into [min shards (n + q)] shards (the
    [n] user counters, then the [q] published pair groups).  Each
    provider's input is extracted from its own log against the
    published pair set ({!Protocol4.provider_input_of_log}).  The plan
    result equals {!Driver.link_strengths_exclusive}'s [detail] from an
    equal-positioned generator.  Raises [Invalid_argument] on fewer
    than two providers, a log over another user universe, or the
    parameter violations {!Protocol4.run} rejects. *)

val links_non_exclusive :
  Spe_rng.State.t ->
  graph:Spe_graph.Digraph.t ->
  logs:Spe_actionlog.Log.t array ->
  spec:Spe_actionlog.Partition.class_spec ->
  obfuscation:Protocol5.obfuscation ->
  shards:int ->
  Protocol4.config ->
  Protocol4.result Plan.t
(** The Sec. 5.2 pipeline: the Protocol 5 class sessions run as one
    concurrent pre-stage, then the sharded Protocol 4 core.  The plan
    result equals {!Driver.link_strengths_non_exclusive}'s [detail]. *)

type scores = {
  scores : float array;  (** [score(v_i)] per user (Def. 3.3). *)
  graphs : Spe_influence.Propagation.t array;
      (** The propagation graphs the host reconstructed. *)
}

val user_scores_exclusive :
  Spe_rng.State.t ->
  graph:Spe_graph.Digraph.t ->
  logs:Spe_actionlog.Log.t array ->
  tau:int ->
  modulus:int ->
  shards:int ->
  Protocol6.config ->
  scores Plan.t
(** The Sec. 6 pipeline with the bundle relay cut into
    [min shards num_actions] action-range shards.  The plan result's
    scores and graphs equal {!Driver.user_scores_exclusive}'s. *)
