(** End-to-end drivers: what a deployment actually calls.

    Each driver builds a fresh wire, runs the complete protocol stack,
    and returns the host-side outputs together with the wire statistics
    that the Sec. 7.1 evaluation reports.

    {2 The score-unmasking step}

    Sec. 6 states that the host obtains the score denominators [a_i]
    "as covered by Protocol 4", but the masked values [r_i * a_i] alone
    do not let the host finish the division because it does not know
    [r_i].  We complete the protocol with a blinded round-trip, noted
    in DESIGN.md: the host computes the numerators
    [N_i = sum_alpha |Inf_tau(v_i, alpha)|] from the Protocol 6 output,
    blinds [sigma_i = N_i / (r_i * a_i)] with its own fresh mask
    [rho_i] (drawn from the same heavy-tailed family), and sends
    [rho_i * sigma_i] to player 1; player 1 — who knows [r_i] —
    multiplies and returns [rho_i * N_i / a_i]; the host strips
    [rho_i].  Player 1 observes only [rho_i * score_i], a masked value
    carrying no more information than Protocol 3's masked
    observations; the host learns [score_i] and hence (for [N_i > 0])
    [a_i = N_i / score_i], which is implied by its legitimate output
    anyway. *)

type link_result = {
  strengths : ((int * int) * float) list;
      (** [p_(i,j)] per real arc, as the host computed them. *)
  wire : Spe_mpc.Wire.stats;
  transcript : Spe_mpc.Wire.message list;
      (** Full message transcript, for tracing and audits. *)
  detail : Protocol4.result;
}

val link_strengths_exclusive :
  ?trace:Spe_obs.Trace.t ->
  Spe_rng.State.t ->
  graph:Spe_graph.Digraph.t ->
  logs:Spe_actionlog.Log.t array ->
  Protocol4.config ->
  link_result
(** The Sec. 5.1 pipeline over exclusive provider logs.

    When [trace] is recording, the run is wrapped in a [Session] span
    and the simulated transcript is replayed into the trace's
    [Messages]/[Payload_bytes] counters (bytes round up per message),
    so {!Spe_obs.Metrics.of_trace} works identically on central and
    engine-hosted runs.  The central pipelines expose coarser phase
    maps than the composed sessions — here a single ["p4"] segment. *)

val pick_trusted : m:int -> class_members:int array -> Spe_mpc.Wire.party
(** The trusted third party for one action class: a provider outside
    the class when one exists, the host otherwise.  Shared with
    [Shard.links_non_exclusive] so the central and distributed
    pipelines seat the same parties. *)

val link_strengths_non_exclusive :
  ?trace:Spe_obs.Trace.t ->
  Spe_rng.State.t ->
  graph:Spe_graph.Digraph.t ->
  logs:Spe_actionlog.Log.t array ->
  spec:Spe_actionlog.Partition.class_spec ->
  obfuscation:Protocol5.obfuscation ->
  Protocol4.config ->
  link_result
(** The Sec. 5.2 pipeline: Protocol 5 per action class (the trusted
    third party is a provider outside the class when one exists, the
    host otherwise; the class representative is its first provider),
    then Protocol 4 over the representatives' aggregated counters.
    [trace] as in {!link_strengths_exclusive}; the phase map derives
    from the wire's round deltas between stages
    (["p5-class"]/["p4-publish"]/["p4"]). *)

type score_result = {
  scores : float array;  (** [score(v_i)] per user (Def. 3.3). *)
  wire : Spe_mpc.Wire.stats;
  transcript : Spe_mpc.Wire.message list;
  graphs : Spe_influence.Propagation.t array;
      (** The propagation graphs the host reconstructed. *)
}

val user_scores_exclusive :
  ?trace:Spe_obs.Trace.t ->
  Spe_rng.State.t ->
  graph:Spe_graph.Digraph.t ->
  logs:Spe_actionlog.Log.t array ->
  tau:int ->
  modulus:int ->
  Protocol6.config ->
  score_result
(** The Sec. 6 pipeline: Protocol 6 for the propagation graphs, the
    Protocol 2/3 machinery for the masked denominators, and the blinded
    unmasking round-trip described above.  [modulus] is the share
    modulus for the denominator sharing.  [trace] as in
    {!link_strengths_exclusive}; phases
    ["p6"]/["p2-shares"]/["scores-final"]. *)
