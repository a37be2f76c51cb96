(** Protocol 1 on the message-passing {!Runtime} — each player is an
    isolated state machine that sees only its own input and inbox.

    Functionally identical to {!Protocol1.run}; exists as a mechanised
    cross-check that the central implementation's data flow is honest
    (no party touches a value it was never sent).  The share randomness
    is drawn off the supplied generator in exactly the central draw
    order, so a session built from an equal-positioned generator
    computes {e bit-identical} shares to {!Protocol1.run} on any
    engine; the tests assert result equality and wire-total agreement
    up to byte rounding.

    The party programs are exposed as a {!Session.t} so that any engine
    can host them: the in-process {!Session.run} or the [Spe_net]
    transport endpoints, which carry the same closures over real byte
    streams. *)

val make :
  Spe_rng.State.t ->
  parties:Wire.party array ->
  modulus:int ->
  inputs:int array array ->
  Protocol1.result Session.t
(** Build the party programs without running them; [Session.run (make
    ...)] has {!Protocol1.run}'s contract. *)
