(** Protocol 5 as a {!Spe_mpc.Session}: one action class's secure
    aggregation with every party an isolated state machine.

    Round 1: each class provider ships its obfuscated class log to the
    trusted party as typed [(user, action, time)] tuples.  Round 2: the
    trusted party unifies the logs, computes the non-zero counters on
    the obfuscated ids ({!Protocol5.trusted_count}), and returns the
    [a]/[c] tables to the representative (the first provider) as a
    batch of two tuple tables.  At its finishing call the
    representative inverts the obfuscation.

    The joint secrets (renaming permutations, shift cipher, fake-user
    padding) come from {!Protocol5.prepare}, consumed off the supplied
    generator in the central draw order — the session result is
    bit-identical to {!Protocol5.run}, and the round/message counts
    ([2] rounds, [d + 1] messages) match the central wire statistics
    exactly. *)

val make :
  Spe_rng.State.t ->
  h:int ->
  providers:Spe_mpc.Wire.party array ->
  trusted:Spe_mpc.Wire.party ->
  logs:Spe_actionlog.Log.t array ->
  obfuscation:Protocol5.obfuscation ->
  Protocol5.class_counters Spe_mpc.Session.t
(** Same contract as {!Protocol5.run}: [logs.(k)] is the class-filtered
    log of [providers.(k)] (equal universes), [trusted] lies outside
    the providers, the representative is [providers.(0)].  The session
    result raises [Failure] if read before the counters arrived. *)
