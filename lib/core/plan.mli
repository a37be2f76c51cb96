(** An execution plan: a pipeline cut into {e stages}, each stage a set
    of sessions with no mutual dataflow, so any engine may drive a
    stage's sessions concurrently (the [Spe_net.Endpoint] worker pool
    does) — while dataflow {e between} stages still travels through the
    party closures, exactly as {!Spe_mpc.Session.seq} phases do.

    A plan is engine-agnostic data.  {!to_session} lowers it to one
    ordinary session (stage sessions multiplexed with
    {!Spe_mpc.Session.all}, stages sequenced with
    {!Spe_mpc.Session.seq}) for the simulated engine; on the transport
    engines {!execute} instead walks {!field-stages} in order and hands
    each stage's array to the [Spe_net.Endpoint] shard pool, one
    connection group per session.  Both executions drive the same party
    closures, so {!field-result} reads the same answer either way — the
    sharded pipelines in [Shard] rely on this to stay bit-identical
    across engines and shard counts. *)

type stage = {
  label : string;  (** Stage name for progress/observability. *)
  epoch : int option;
      (** For epoch-delta plans ([Delta]): which release epoch this
          stage belongs to, so engines and daemons can attribute
          progress per epoch.  [None] for batch pipelines. *)
  sessions : unit Spe_mpc.Session.t array;
      (** Mutually independent sessions; for sharded pipelines, one per
          shard. *)
}

type 'r t = {
  shards : int;  (** The effective shard count [k] the plan was cut into. *)
  stages : stage list;  (** Executed strictly in order. *)
  result : unit -> 'r;
      (** Read the merged result out of the party closures; call only
          after every stage has been driven to quiescence. *)
}

val stage : ?epoch:int -> label:string -> unit Spe_mpc.Session.t array -> stage
(** Stage constructor; [epoch] (>= 0 when given) tags the stage with
    its release epoch. *)

val make : shards:int -> stages:stage list -> result:(unit -> 'r) -> 'r t
(** Raises [Invalid_argument] on a non-positive shard count, an empty
    stage list, or a stage with no sessions. *)

val map : ('a -> 'b) -> 'a t -> 'b t
(** Post-compose the result thunk. *)

val of_session : label:string -> 'r Spe_mpc.Session.t -> 'r t
(** One session as a one-stage plan: how {!execute} runs a single
    session. *)

val total_rounds : 'r t -> int
(** The sum of every stage session's declared rounds — the charged
    round count {!to_session} executes, and what the transport engines
    report as the plan's [NR]. *)

val to_session : 'r t -> 'r Spe_mpc.Session.t
(** Lower the plan to a single session for serial engines: each
    stage's sessions are multiplexed with {!Spe_mpc.Session.all}
    (single-session stages are taken as-is, keeping their own phase
    labels), and stages are sequenced with {!Spe_mpc.Session.seq}. *)

type run = {
  stage : string;  (** Label of the session's stage. *)
  index : int;  (** The session's position within its stage. *)
  parties : int;  (** The session's party count. *)
  trace : Spe_obs.Trace.t;  (** The trace the session ran under. *)
  endpoint : Spe_net.Endpoint.result;
      (** The session's per-endpoint logs and transport bytes. *)
}
(** What one session of a plan executed on a transport leaves behind. *)

type net = {
  transport_bytes : int;
      (** Framed bytes every session's group transmitted: data frames,
          barriers, Fins and retransmissions. *)
  totals : Spe_net.Net_wire.totals;  (** Every session's {!Spe_net.Net_wire} log, summed. *)
  runs : run list;  (** One per session, in plan order. *)
}
(** What only a real transport can measure. *)

type accounting = {
  stats : Spe_mpc.Wire.stats;
      (** NR, NM and MS.  On [`Sim], the wire's.  On [`Memory] and
          [`Socket], NR is {!total_rounds} and NM and MS sum every
          session's {!Spe_net.Net_wire} log — the same three numbers. *)
  transcript : Spe_mpc.Wire.message list;
      (** On [`Sim], the wire's transcript; on [`Memory] and [`Socket],
          each session's merged {!Spe_net.Net_wire} log, in plan order. *)
  traces : (string option * Spe_obs.Trace.t * int) list;
      (** One [(label, trace, parties)] per executed session: on [`Sim]
          the one lowered session, unlabelled; on [`Memory] and
          [`Socket] every pool session, labelled
          ["<stage label>[<index>]"]. *)
  net : net option;  (** [None] on [`Sim]. *)
}
(** The cost accounting of one execution, the same on every engine. *)

val execute :
  ?config:Spe_net.Endpoint.config ->
  ?workers:int ->
  ?faults:(int -> Spe_net.Fault.t option) ->
  ?kills:(int -> bool) ->
  ?traces:(int -> Spe_obs.Trace.t) ->
  engine:[< `Sim | `Memory | `Socket ] ->
  'r t ->
  'r * accounting
(** Drive every stage in order on [engine] and read the result and the
    accounting.  This is the one way to run a session: wrap it in a
    one-stage plan.

    On [`Sim] the plan is lowered with {!to_session} and run under
    {!Spe_mpc.Session.run} on a fresh wire with trace [traces 0];
    [config], [workers], [faults] and [kills] do not apply.

    On [`Memory] and [`Socket] each stage goes to
    [Spe_net.Endpoint.run_sessions_memory] / [run_sessions_socket] with
    [config] and [workers] (see there for the defaults and for the
    failures, each a [Spe_net.Endpoint.Shard_failed]).  A session's
    position in plan order is its index for [faults], [kills] and
    [traces] (defaults: no fault, no kill, a disabled trace), and the
    [shard] a [Shard_failed] names. *)
