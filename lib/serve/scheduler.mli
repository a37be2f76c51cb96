(** The host daemon's job scheduler: a bounded FIFO with typed
    admission control, driven from H's reactor loop.

    At most [max_active] jobs hold an active slot at once ({!take_opt}
    claims one, {!finish} releases it); up to [max_queue] more wait in
    FIFO order; past that, {!submit} refuses with {!admission.Busy} —
    which the daemon turns into the protocol's typed [Busy] reply, the
    backpressure signal clients act on.  Every operation belongs to the
    loop thread; the scrape gauges read {!depth}, {!active} and
    {!stats} from another thread and may see them lag.  The module is
    deliberately free of I/O so admission behaviour is unit-testable
    without a daemon. *)

type 'a t

type admission = Accepted | Busy of { queued : int; max_queue : int }

val create : max_queue:int -> max_active:int -> 'a t
(** [Invalid_argument] if either bound is below 1. *)

val submit : 'a t -> 'a -> admission
(** Enqueue, or refuse when the queue is full or the scheduler has
    stopped (both count toward the [rejected] statistic). *)

val take_opt : 'a t -> 'a option
(** A job only when one is queued {e and} an active slot is free,
    claiming that slot until the matching {!finish}; [None] otherwise
    (including when stopped).  The host's pump calls this until it
    returns [None], so [max_active] bounds the jobs in flight. *)

val finish : 'a t -> unit
(** Release the active slot claimed by the matching {!take_opt}. *)

val stop : 'a t -> 'a list
(** Stop admitting and claiming, and return the still-queued jobs so
    each can be refused with a typed reply. *)

val depth : 'a t -> int
(** Jobs currently queued (the [queue_depth] gauge). *)

val active : 'a t -> int
(** Jobs currently holding a slot (part of the [active_jobs] gauge). *)

type stats = { submitted : int; rejected : int; completed : int }

val stats : 'a t -> stats
(** Monotone counters: admitted, refused, finished. *)
