(** Hosting {!Spe_mpc.Runtime.program}s over a real transport.

    {!Spe_mpc.Runtime.run} routes party closures through an in-process
    hash table; this module runs each party as a resumable state
    machine on a {!Reactor} and moves the same programs over byte
    streams — every party of every session a process hosts shares one
    loop thread.  The round discipline is kept by an [End_of_round]
    barrier: after stepping, a party tells every peer how many data
    frames it sent that round (in total, and to that peer
    specifically), and a party steps round [r + 1] only once it holds
    the barrier frame and the promised data from all peers.  A round
    in which no party sent anything is globally visible through the
    barrier counts, so every endpoint terminates on the same round —
    exactly the engine's quiescence rule, and like the engine the
    quiescent round is not charged.

    Loss is handled by receiver-driven retransmission: a party whose
    round fails to complete within [round_timeout] Nacks the incomplete
    peers, who replay their cached frames for that round; after
    [max_retries] fruitless timeouts the party raises {!Round_timeout}
    instead of hanging, and the whole group is torn down.

    The memory and socket engines differ only in the group they build
    ({!Transport.Memory} or {!Transport.Socket}); the simulated
    {!Spe_mpc.Session.run} and the central [Spe_core.Driver] are the
    independent oracles the cross-engine suites hold both to. *)

type config = {
  round_timeout : float;
      (** Seconds to wait for a round barrier before Nacking. *)
  max_retries : int;  (** Nack rounds before giving up. *)
  linger : float;
      (** Seconds a quiescent endpoint stays around to serve
          retransmissions of its final barrier (it leaves early once
          every peer has confirmed termination). *)
}

val default_config : config
(** 2 s round timeout, 3 retries, 5 s linger (the linger exceeds a
    round timeout so a quiescent endpoint outlives a lossy peer's first
    Nack). *)

val reliable_config : config
(** For reliable local transports: 300 s round timeout, 310 s linger.
    A full pipeline has long compute rounds (H decrypting every
    Protocol 6 bundle under a 1024-bit key), during which a busy party
    looks exactly like a dead one, so a run waits out the compute
    instead of Nacking it; a dead connection shows as EOF instead.  The
    CLI, the bench and [spe serve] daemons run on it. *)

exception Round_timeout of {
  party : Spe_mpc.Wire.party;
  round : int;
  phase : string option;
      (** The pipeline phase owning [round], read from the trace's
          phase map — so a stuck socket run reports ["p4-mask"] rather
          than a bare round number.  [None] when the trace carries no
          phase map. *)
  missing : Spe_mpc.Wire.party list;  (** Peers that never completed the round. *)
}
(** A registered [Printexc] printer renders the full context:
    ["Endpoint.Round_timeout: P1 timed out in round 3 (phase p4-mask)
    waiting on Host"]. *)

type outcome = {
  rounds : int;  (** Non-quiescent rounds executed — the NR statistic. *)
  sent : Net_wire.record list;
      (** This endpoint's first-transmission log, in send order. *)
}

type result = {
  outcomes : outcome array;  (** One per endpoint, in party order. *)
  transport_bytes : int;
      (** Total framed bytes actually transmitted by the group —
          payloads, framing, barriers, handshakes, retransmissions. *)
}

val run_party_async :
  ?config:config ->
  ?trace:Spe_obs.Trace.t ->
  reactor:Reactor.t ->
  transport:Transport.t ->
  session:'r Spe_mpc.Session.t ->
  index:int ->
  on_done:((outcome, exn) Stdlib.result -> unit) ->
  unit ->
  unit
(** Drive exactly one seat of a session as a resumable state machine
    on [reactor], over a caller-supplied transport whose group indices
    match the session's party order — the building block for
    deployments where the other seats live in other processes
    ([Spe_serve] daemons over a session-multiplexed connection mesh,
    {!Mux}).  The seat parks between events, woken by the transport's
    delivery hook, its round deadlines kept by reactor timers, so a
    host runs every seat of every concurrent session on one loop
    thread.  Installs the session's phase map on [trace].  Must be
    called from the reactor thread; [on_done] fires exactly once, on
    the reactor thread, with the outcome or with the failure: a
    [Failure] when the executed round count differs from the declared
    one, {!Round_timeout}, [Transport.Closed], or the contract
    violations {!run_sessions_memory} lists.  The session's result thunk is
    {e not} called: only the seat that owns the result state can read
    it. *)

exception Shard_failed of {
  shard : int;  (** Index of the failed session in the pool's array. *)
  phase : string option;
      (** The phase a {!Round_timeout} named, when that was the cause. *)
  exn : exn;  (** The underlying failure. *)
}
(** Raised by the shard pool when one of its sessions fails; the pool
    closes every sibling connection group before re-raising, and the
    surfaced shard is the {e root cause} (a shard that died of
    [Transport.Closed] because the pool tore it down is only reported
    when nothing better is known).  A registered [Printexc] printer
    renders ["Endpoint.Shard_failed: shard 2 (phase p4-mask) failed:
    ..."]. *)

exception Worker_killed
(** The injected worker-death fault: a pool session whose [kills] flag
    is set raises this as soon as its connection group exists,
    surfacing as {!Shard_failed} with this exception inside.  In
    root-cause selection a killed worker outranks any {!Round_timeout}:
    the sibling that starved while the pool tore down is the echo, not
    the cause.  Only the chaos harness sets kill flags; production
    pools never see this exception. *)

val run_sessions_memory :
  ?config:config ->
  ?workers:int ->
  ?faults:Fault.t option array ->
  ?kills:bool array ->
  ?traces:Spe_obs.Trace.t array ->
  'r Spe_mpc.Session.t array ->
  ('r * result) array
(** Drive an array of mutually independent sessions — one {!Plan}
    stage's shards — each on its own fresh {!Transport.Memory} group
    until global quiescence, and read their results.  Every session is
    a set of machines on one reactor that the calling thread drives;
    [workers] (default: one per session) bounds how many are in
    flight, not a thread count.  Results are in session order.
    [faults], [kills] and [traces], when given, must have one entry per
    session ([Invalid_argument] otherwise).

    Each session keeps the engine's contract, and any breach fails it:
    [Failure "Endpoint.run: protocol did not terminate"] past its
    declared rounds + 1, [Failure] when it executes a round count other
    than its declared {!Spe_mpc.Session.rounds}, [Invalid_argument] on a
    forged source or a message to an unknown party, {!Round_timeout}
    when a peer stays silent.  A failed session closes its whole group,
    and its error is the root cause, not the [Transport.Closed] cascade
    it triggered (among timeouts, the earliest round).  The pool then
    cancels the remaining work, closes all open sibling groups, and
    raises {!Shard_failed} naming the root-cause shard — it never hangs
    on a stalled shard.  A session whose kill flag is set raises
    {!Worker_killed} instead of running (the chaos harness's
    worker-death fault).

    A session's fault and trace are shared with its transports, so
    fault decisions and transport bytes land in the same event stream.
    Its {!Spe_mpc.Session.phases} map is installed on its trace (even a
    non-recording one — {!Round_timeout} reads it for its [phase]
    field), and when the trace is recording it holds a [Session] span,
    a [Round] span per charged round (local step in a nested [Compute]
    span), [Messages]/[Payload_bytes]/[Framed_bytes] counts per data
    frame first transmitted — byte-for-byte what lands in
    {!Net_wire.record}s — plus [Retransmits], [Nacks] and [Timeouts] as
    the loss recovery machinery fires. *)

val run_sessions_socket :
  ?config:config ->
  ?workers:int ->
  ?faults:Fault.t option array ->
  ?kills:bool array ->
  ?traces:Spe_obs.Trace.t array ->
  'r Spe_mpc.Session.t array ->
  ('r * result) array
(** The {!run_sessions_memory} contract over fresh
    {!Transport.Socket.reactor_group_local} groups.  A session whose
    descriptors would not fit the reactor's [select] waits until an
    earlier session has closed; if none is in flight, the pool fails
    with {!Shard_failed} wrapping {!Transport.Descriptor_limit}. *)
