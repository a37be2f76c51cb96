(** The transport interface: what an {!Endpoint} needs from the world.

    A transport value is one endpoint's view of a fully-connected group
    of [peers] endpoints indexed [0 .. peers - 1]: it can push a frame
    body to any peer and take the next inbound frame body without
    blocking, with a delivery hook that says when to look.  Two
    backends implement it, both owned by one {!Reactor} — {!Memory}
    (deterministic in-process channels with optional fault injection)
    and {!Socket} (kernel stream sockets, one length-prefixed frame
    stream per connection).

    Both backends account [sent_bytes] identically — every frame costs
    [Frame.length_prefix_bytes + body length], which on the socket
    backend is literally the bytes written — so byte measurements are
    comparable across backends. *)

exception Closed
(** Raised by {!send} once the transport is closed — the group is
    tearing down (a peer failed or the run ended) — and by {!try_recv}
    once it is closed and drained. *)

exception Descriptor_limit
(** Raised by {!Socket.reactor_group_local} when the group's
    descriptors would not fit: a descriptor number at or past
    [select]'s [FD_SETSIZE], or the process out of descriptors.
    Nothing is left open; the group can be retried once other groups
    have closed. *)

type t = {
  self : int;  (** This endpoint's index in the group. *)
  peers : int;  (** Group size [m]; valid destinations are [0 .. m-1]. *)
  send : int -> bytes -> unit;
      (** [send dst body] transmits a frame body to peer [dst].
          Raises [Closed] after {!close}; raises [Invalid_argument] on
          a bad destination. *)
  send_many : int -> bytes list -> unit;
      (** [send_many dst bodies] transmits the frame bodies in order to
          peer [dst], equivalent to [List.iter (send dst) bodies] —
          same per-frame byte accounting, same per-frame fault
          decisions on both backends — but batched into one transport
          operation (one buffered write on {!Socket}, one wake-up on
          {!Memory}).  [send_many dst []] is a no-op. *)
  try_recv : unit -> bytes option;
      (** The next inbound frame body, from any peer, if one is already
          queued; [None] otherwise.  Raises [Closed] once the transport
          is closed and every queued frame has been taken.  The
          endpoint machines pair it with {!set_notify} so they only
          look when there is something to see. *)
  set_notify : (unit -> unit) -> unit;
      (** Install the delivery hook (replacing any previous one): it
          fires after every delivery into this endpoint's queue and
          once on close.  Every backend, {!Mux} sessions included,
          fires it on the reactor thread that owns the transport; the
          endpoint machines install a hook that queues one wake task. *)
  close : unit -> unit;  (** Idempotent. *)
  sent_bytes : unit -> int;
      (** Framed bytes this endpoint has transmitted so far, length
          prefixes included (retransmissions count; faults do not
          refund). *)
}

(** The single-threaded inbound queue behind every transport: the
    reactor thread is its only reader and writer. *)
module Inbox : sig
  type t

  val create : unit -> t

  val set_notify : t -> (unit -> unit) -> unit
  (** The delivery hook {!notify} runs (replacing any previous one). *)

  val push : t -> bytes -> unit
  (** Enqueue without waking; a no-op once closed.  Callers {!notify}
      once per burst. *)

  val notify : t -> unit

  val try_pop : t -> bytes option
  (** The oldest queued frame; raises {!Closed} once closed and empty. *)

  val close : t -> unit
  (** Refuse further pushes and notify; queued frames stay poppable. *)
end

module Memory : sig
  val create_group :
    ?fault:Fault.t -> ?trace:Spe_obs.Trace.t -> reactor:Reactor.t -> m:int -> unit -> t array
  (** A fully-connected group of [m] in-memory endpoints on [reactor]:
      a send appends to the receiver's queue and fires its delivery
      hook.  Frames pass through [fault] (default {!Fault.none}); a
      {!Fault.Delay} holds its frame on a reactor timer.  Closing any
      member closes the whole group.  All operations must run on the
      reactor thread.

      When [trace] is recording, every send increments the
      [Transport_bytes] counter by its full framed cost and every fault
      decision records a [Faults_dropped]/[Faults_delayed] count plus a
      note — endpoints are labelled ["#i"] by group index, the only
      identity this layer has.  A {!Fault.Duplicate} decision charges
      and delivers the frame twice; drops and delays charge the frame
      once {e before} the decision, so the framing closed form holds on
      faulted paths too. *)
end

module Socket : sig
  type address =
    | Unix_domain of string  (** Socket file path (created, not unlinked). *)
    | Tcp of string * int  (** Host, port: a daemon mesh over TCP. *)

  val reactor_group_local :
    ?fault:Fault.t -> ?trace:Spe_obs.Trace.t -> reactor:Reactor.t -> m:int -> unit -> t array
  (** A fully-connected group over kernel stream sockets, every pair
      joined by a [socketpair] — no listener, no handshake and no
      rendezvous path, so [sent_bytes] starts at zero and a socket run
      transmits exactly the bytes a memory run does.  Every descriptor
      is owned by [reactor]: each pair's two ends are {!Link}s.  [fault]
      and [trace] apply exactly as in {!Memory.create_group}.  Raises
      {!Descriptor_limit} when the group's descriptors would not fit
      the reactor.  All operations (including [close]) must run on the
      reactor thread. *)

  (** {2 Connections on a reactor}

      The one socket-connection implementation: the socket group above
      and every [Spe_serve] daemon socket, accepted or dialed, run
      through it from their first byte, with one flush policy. *)

  module Link : sig
    type stats = {
      mutable frames_sent : int;  (** Frames queued by {!queue}. *)
      mutable writes : int;  (** [write] calls that moved bytes. *)
      mutable frames_received : int;  (** Complete frames sliced. *)
      mutable reads : int;  (** [read] calls that returned data or EOF. *)
    }
    (** Cumulative counters, written on the reactor thread only.  Links
        may share one record. *)

    val stats : unit -> stats
    (** A zeroed record. *)

    type t
    (** One non-blocking stream descriptor owned by a reactor: inbound
        bytes land in a reused slab and every complete length-prefixed
        frame is sliced in place; outbound frames are appended straight
        into a pending-output slab and leave when the loop next polls,
        so every frame queued in one loop turn goes out in one [write]. *)

    val create :
      reactor:Reactor.t ->
      ?on_burst:(unit -> unit) ->
      on_frame:(bytes -> int -> int -> bool) ->
      on_close:(unit -> unit) ->
      Unix.file_descr ->
      t
    (** Hand [fd] to [reactor] (it becomes non-blocking).  Each frame
        body arrives as [on_frame buf off len], valid only during the
        call; returning [false] marks it malformed and kills the link.
        [on_burst] runs once after a read delivered any frame.  EOF, a
        socket error, a negative length prefix or one past {!bound}, or
        a malformed frame closes the link, and [on_close] runs exactly
        once.  Reactor-thread only, like every function below. *)

    val bound : t -> int -> unit
    (** [bound l n]: a later length prefix announcing more than [n]
        bytes closes the link at once.  Links start unbounded. *)

    val count_into : t -> stats -> unit
    (** Count the link's later traffic into [stats], not its own record. *)

    val queue : t -> int -> (bytes -> int -> unit) -> unit
    (** [queue l n write] appends one frame of [n] body bytes: the
        length prefix, then [write buf pos], which must fill
        [buf.[pos .. pos + n - 1]].  It leaves when the loop next polls.
        Raises {!Closed} once the link is dead. *)

    val flush : t -> unit
    (** Write the pending output now, as far as the kernel takes it;
        the rest leaves when the descriptor is writable. *)

    val alive : t -> bool

    val pending : t -> int
    (** Queued bytes the kernel has not taken yet. *)

    val close : t -> unit
    (** Idempotent; drops pending output.  Runs [on_close] the first
        time. *)
  end

  (** {2 Blocking frame I/O}

      The same length-prefixed frames, for a connection that is not on
      a reactor: [Spe_serve.Client]'s, the one library caller. *)

  val sockaddr_of : address -> Unix.sockaddr
  (** The [Unix] address for {!address}.  Raises [Failure] on a TCP
      host that is not a literal IP address. *)

  val write_frame : Unix.file_descr -> bytes -> unit
  (** Write one frame body with its length prefix, atomically with
      respect to other [write_frame] calls on the same descriptor only
      if the caller serialises them. *)

  val read_frame : ?deadline:float -> Unix.file_descr -> bytes option
  (** Read one length-prefixed frame body; [None] on clean EOF before
      the first byte, [Failure] on a torn stream or a negative length.
      The body buffer grows only as bytes arrive, never to the claimed
      length up front.  With [deadline] ([Unix.gettimeofday] time)
      every read waits at most until then and [Failure] reports a
      missed deadline; on success the descriptor's receive timeout is
      cleared again. *)
end
