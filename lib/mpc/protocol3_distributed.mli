(** Protocol 3 as a {!Session}: the batched secure division of
    [Protocol3] in the form the distributed pipelines run — [Shard]'s
    links [p4-mask] phase and the first three rounds of its
    [scores-final] phase, and [Delta]'s per-epoch [p4-mask] phase.

    The joint masks are drawn at plan-build time ({!draw}, the central
    draw order), so every engine sends the host bit-identical masked
    values. *)

val draw : Spe_rng.State.t -> groups:int -> float array
(** Steps 1-2's randomness: one joint mask per group, each
    [Spe_rng.Dist.mask_pair]. *)

val mask_phase :
  p1:Wire.party ->
  p2:Wire.party ->
  host:Wire.party ->
  masks:float array ->
  agree:int ->
  shares1:(unit -> float array * int array) ->
  shares2:(unit -> float array * int array) ->
  deliver:(float array -> float array -> unit) ->
  unit Session.t
(** The 3-round mask phase of [p1], [p2] and [host], in that party
    order.  In rounds 1 and 2 the players agree their masks: each sends
    the other [agree] floats, the size of [agree] masks' random
    contributions.  ([Shard] cuts one batch's masks across shards; each
    shard agrees its own users' masks, while its numerators may use
    any.)  In round 3 each player sends the host one masked vector:
    [sharesN] runs at player N's round 3 and returns a fresh vector of
    its values with each value's group; the phase masks that vector in
    place, entry [e] becoming [masks.(groups.(e)) *. values.(e)], and
    sends it, so a caller lays out denominators and numerators in
    whatever order its host expects.  The phase only reads the group
    vector, so the two players may return the same one.  At its
    finishing call the host hands the two vectors it received, player
    1's first, to [deliver].  The phase is labelled [p3-mask];
    pipelines relabel it.  Raises [Invalid_argument] unless the three
    parties are distinct. *)
