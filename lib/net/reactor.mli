(** A single-threaded event loop: registered descriptors, a timer
    wheel and a FIFO ready queue, all driven by one [Unix.select].

    This is the execution core the event-driven endpoints run on.  One
    reactor multiplexes every shard session of a pool run — k shards
    cost k resumable state machines on one loop, not k×parties blocked
    threads — and one reactor per [spe serve] daemon runs every job's
    seats.  It compiles identically on OCaml 4.14 and 5.2: no effects,
    just explicit continuations enqueued as tasks.

    {b Threading.}  Exactly one thread may call {!run}; every callback
    (task, timer, descriptor) fires on that thread, so state touched
    only from callbacks needs no locks.  {!post} alone is thread-safe:
    other threads (a daemon's acceptor and handshake threads, its
    client readers and its shutdown thread) hand work to the loop with
    it, and a self-pipe wakes the loop if it is parked in [select].

    {b Determinism.}  Scheduling order is a function of the event
    sequence alone: the ready queue is strictly FIFO, due timers fire
    in (deadline, registration order), and each loop iteration runs
    due timers, then one snapshot of the ready queue, then descriptor
    callbacks.  The qcheck suite pins this. *)

type t

type timer
(** A cancellable handle returned by {!at}. *)

val create : unit -> t

val post : t -> (unit -> unit) -> unit
(** Enqueue a task on the ready queue.  Thread-safe; tasks run in
    enqueue order on the loop thread. *)

val at : t -> float -> (unit -> unit) -> timer
(** [at t deadline k] runs [k] once the wall clock
    ([Unix.gettimeofday]) reaches [deadline].  Timers sharing a
    deadline fire in registration order.  Loop-thread only. *)

val cancel : t -> timer -> unit
(** Cancel a pending timer; cancelling a fired or already-cancelled
    timer is a no-op.  The task closure is released at once, not when
    the timer's deadline would have come.  Loop-thread only. *)

val on_readable : t -> Unix.file_descr -> (unit -> unit) -> unit
(** Install the read-readiness callback for a descriptor (replacing
    any previous one).  The callback stays installed until
    {!clear_readable} — level-triggered, so it must consume the
    readable data.  Loop-thread only. *)

val on_writable : t -> Unix.file_descr -> (unit -> unit) -> unit
(** Same, for write readiness.  Typically installed only while a
    send-flush continuation has buffered output and cleared once the
    buffer drains, since a connected socket is writable almost
    always. *)

val clear_readable : t -> Unix.file_descr -> unit
val clear_writable : t -> Unix.file_descr -> unit

val forget_fd : t -> Unix.file_descr -> unit
(** Drop both interests — required before closing a descriptor the
    reactor watches. *)

val selectable : Unix.file_descr list -> bool
(** Whether {!run}'s [select] can watch every one of these
    descriptors: [false] once a descriptor number reaches
    [FD_SETSIZE] (1024 on Linux), where registering it would make
    every later loop iteration fail. *)

val run : t -> until:(unit -> bool) -> unit
(** Drive the loop until [until ()] holds (checked between dispatch
    steps).  With nothing ready, no timer pending and no descriptor
    registered, the loop parks on its self-pipe — only an external
    {!post} can then make progress.  Callback exceptions propagate out
    of [run]; the endpoint machines never let one escape. *)

val destroy : t -> unit
(** Release the reactor's self-pipe.  Call once the loop has returned
    for good; idempotent.  A late {!post} from a straggling thread is
    harmless: its task is dropped, and since {!post} writes its wake
    byte under the same lock [destroy] closes the pipe under, the byte
    can never land on a descriptor number reused after the close. *)

(** {2 Gauges}

    Live introspection for the [spe scrape] endpoint and the stress
    tests; all loop-thread-safe to read from anywhere. *)

val iterations : t -> int
(** Cumulative loop iterations. *)

val timer_fires : t -> int
(** Cumulative timers fired (cancelled timers never count). *)

val ready_depth : t -> int
(** Tasks currently queued. *)

val pending_timers : t -> int
(** Timers armed and not yet fired or cancelled. *)

val watched_fds : t -> int
(** Descriptors with a read or write interest installed. *)
