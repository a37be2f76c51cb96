(** Protocol 3 on the message-passing {!Runtime}, completing the
    distributed-twin validation set (Protocols 1-3).

    Players 1 and 2 hold the private integers; the host receives the
    masked reals and divides.  The joint mask (Steps 1-2) is consumed
    off the supplied generator in the central draw order, so the
    quotient is bit-identical to [Protocol3.run] on any engine. *)

val make :
  Spe_rng.State.t ->
  p1:Wire.party ->
  p2:Wire.party ->
  host:Wire.party ->
  a1:int ->
  a2:int ->
  float Session.t
(** Build the three party programs without running them; the session
    result is the quotient the host computed (zero on a zero
    denominator, as in [Protocol3.run]). *)
