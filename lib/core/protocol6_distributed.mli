(** Protocol 6 as per-party {!Spe_mpc.Session}s: the Sec. 6.1
    propagation-graph pipeline with every party an isolated state
    machine, runnable on any engine, cut at its natural shard seam.
    [Shard.user_scores_exclusive] stages it.

    Four charged rounds, as in Table 2 and {!Protocol6.run}: pair
    publication ({!Protocol4_distributed.publish_pairs_phase}) and the
    key broadcast ([setup_session]), then encrypted Delta
    bundles to provider 1 and the forward to the host
    ([bundle_session]) — who decrypts and rebuilds the
    propagation graphs at its finishing call.

    Two modelling notes, mirrored from the central implementation's
    semi-honest shorthand (DESIGN.md):
    - [Spe_crypto.Cipher] hides the key material behind closures, so
      the key broadcast carries a placeholder natural of the key's
      exact wire width; the providers encrypt through the shared
      [public] closure.
    - The Delta bundles are prepared at {!prepare} time, in provider
      order, against the published pair set (the same array each
      provider receives in the publish phase) — this keeps the
      probabilistic Paillier encryption stream on a single draw order,
      making plaintexts and wire sizes engine- and shard-independent.

    All randomness is consumed in the central draw order, so the merged
    result is bit-identical to {!Protocol6.run}, and the charged
    round/message counts of the unsharded relay match the central
    statistics exactly. *)

type prepared = {
  setup_session : unit Spe_mpc.Session.t;
      (** Pair publication followed by the key broadcast (phases
          [p6-publish] and [p6-key], two charged rounds). *)
  pairs : (int * int) array;  (** The published pair set. *)
  num_actions : int;  (** The joint action universe [A]. *)
  bundle_session : lo:int -> hi:int -> unit Spe_mpc.Session.t;
      (** One two-round bundle relay over the actions in [lo, hi):
          every provider contributes only its in-range bundles; the
          host decrypts at its finishing call and fills the shared
          per-action graph array.  Distinct calls must cover disjoint
          ranges; bundle payloads are per-action, so shard payload
          bytes sum exactly to the [lo = 0, hi = num_actions] relay.
          Raises [Invalid_argument] on an out-of-range window. *)
  result : unit -> Protocol6.result;
      (** The merged result; raises [Failure] until every bundle
          session built from this value has been driven through its
          host finishing call. *)
}
(** The pipeline cut at its natural shard seam.  All randomness — the
    pair obfuscation, the keygen, every Paillier encryption — is drawn
    at [prepare] time in the central order, so the merged result is
    bit-identical to {!Protocol6.run} for {e any} partition of the
    action range. *)

val prepare :
  Spe_rng.State.t ->
  graph:Spe_graph.Digraph.t ->
  logs:Spe_actionlog.Log.t array ->
  Protocol6.config ->
  prepared
(** Same contract as {!Protocol6.run}: [m >= 2] exclusive provider
    logs over the graph's user universe.  Raises [Invalid_argument]
    otherwise. *)
