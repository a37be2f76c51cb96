(** Session-multiplexed transports over a persistent connection mesh.

    The [Spe_serve] daemons keep exactly one connection per peer daemon
    and run many concurrent pipeline sessions over it, each frame
    tagged with its session id.  A [Mux.t] is the routing table that
    turns that mesh back into ordinary per-session {!Transport.t}
    values: the connection layer registers a {e writer} per peer and
    feeds every inbound [(sid, body)] pair to {!deliver};
    {!open_session} hands one seat of one session to
    {!Endpoint.run_party_async}, which then runs the standard barrier /
    Nack / timeout machinery unchanged — the rendezvous and Hello exchange
    happened once, when the mesh came up, not per session.

    Frames for a session the local seat has not opened yet are
    buffered; frames for a session already closed or aborted are
    dropped (late retransmits after quiescence).  When a peer's
    connection dies, {!fail_peer} closes every open session seated with
    it, so the seats fail promptly with [Transport.Closed]
    instead of waiting out their round timeouts — the daemon turns that
    into a typed job failure.

    Every function except {!open_sessions} runs on the daemon's reactor
    thread, the one that also drives the mesh links and the seats. *)

type t

val create : self:int -> t
(** A mux for the daemon with id [self] (0 = host, [k+1] = provider
    [k], matching the frame codec's party order). *)

val set_writer : t -> peer:int -> (sid:int -> bytes -> unit) -> unit
(** Register (or replace, on reconnect) the frame writer for [peer].
    Seats call it on the reactor thread; it should queue the frame on
    the peer's link rather than block. *)

val fail_peer : t -> peer:int -> unit
(** The peer's connection died: drop its writer and close the inbox
    of every open session seated with it. *)

val deliver : t -> sid:int -> bytes -> unit
(** Route one inbound frame body to its session's inbox, buffering
    for sessions not yet opened here and dropping frames for finished
    sessions. *)

val abort : t -> sid:int -> unit
(** Cancel a session: close its (possibly only buffered) inbox and
    mark it finished, so a later {!open_session} raises
    [Transport.Closed] immediately and late frames are dropped. *)

val open_session : t -> sid:int -> peers:int array -> Transport.t * int
(** [open_session t ~sid ~peers] opens the local seat of session [sid],
    where [peers.(j)] is the daemon id seated at group index [j]; the
    returned index is the local seat ([peers.(j) = self]).  Sends route
    through the per-peer writers ([Transport.Closed] if the peer's
    writer is gone), receives pop the session inbox, and closing the
    transport retires the sid into the finished set.  Raises
    [Transport.Closed] if the sid was already aborted,
    [Invalid_argument] if [self] is not seated or the sid is already
    open.  [sent_bytes] counts the inner frame bodies plus the standard
    length prefix — the same unit as the group transports — not the
    mesh's session-tag overhead. *)

val open_sessions : t -> int
(** Number of live (open or buffering) session entries — a daemon
    gauge, readable from any thread. *)

val forget : t -> sid:int -> unit
(** Trim a sid from the finished set once late traffic is impossible
    (the daemon reaps it after the job's reply is sent). *)
