(** Incremental counter maintenance over a live record stream.

    Providers accumulate activity continuously; rebuilding every
    counter from scratch before each protocol run costs
    O(|A| * q) (see {!Counters.compute}).  This accumulator ingests
    records one at a time and keeps the full counter set current, so a
    provider's cost per new record is proportional to the published
    pairs touching that user — after which {!snapshot} is O(q).

    {2 Sliding window}

    With [?window:w], only records whose time lies in
    [(now - w, now]] count, where [now] is the high-water mark set by
    {!advance}: advancing the clock {e retracts} expired records from
    [a_i] and from every pair episode they completed — no history
    replay, because the per-lag counters [c^l] carry enough state to
    subtract an episode exactly as it was added.  Eq. 2's temporal
    decay needs no replay either: the weights [w_l] are applied to the
    maintained lag counters at masking time, so re-weighting a window
    is free.  A record that arrives {e after} its own expiry
    ([time <= now - w]) is skipped and counted in {!late}.  Without a
    window the accumulator behaves as before: nothing ever expires.

    The invariant the test suite pins (on random out-of-order arrival
    streams): {!snapshot} equals [Counters.compute] over the log
    filtered to the records currently in the window.

    {2 Dirty sets}

    The accumulator records which users' [a_i] and which published
    pairs' [b^h]/[c^l]/[both] counters changed since the last
    {!clear_dirty} — exactly what the epoch-delta protocols
    ([Spe_core.Delta]) need to re-share only touched counter groups.

    Records may arrive in any time order; the at-most-once-per
    (user, action) rule of the log model is enforced with the typed
    {!Duplicate_record} error (silently keeping the earlier record
    would require retracting already-counted episodes), and it
    outlives window expiry: a user cannot re-perform an action whose
    record expired. *)

exception Duplicate_record of { user : int; action : int }
(** Raised by {!add} on a second record for the same (user, action),
    in or out of the window. *)

type t

val create :
  ?window:int ->
  num_users:int ->
  num_actions:int ->
  h:int ->
  pairs:(int * int) array ->
  unit ->
  t
(** An empty accumulator over the published pair set.  [h] is the
    episode memory width of Eq. 1/2; [window] (>= 1, in record-time
    units) enables the sliding temporal window. *)

val add : t -> Spe_actionlog.Log.record -> unit
(** Ingest one record, updating every affected counter and the dirty
    sets.  Raises {!Duplicate_record} on a repeated (user, action). *)

val add_log : t -> Spe_actionlog.Log.t -> unit
(** Ingest a whole log (e.g. a day's batch). *)

val advance : t -> now:int -> unit
(** Move the window's high-water mark to [now] (monotone; raises
    [Invalid_argument] on a backwards move), expiring and retracting
    every record with [time <= now - window].  A no-op without a
    window, except for tracking [now]. *)

val records : t -> int
(** Records currently counted (in the window, when one is set). *)

val late : t -> int
(** Records skipped because they arrived after their own expiry. *)

val now : t -> int
(** The high-water mark of {!advance}. *)

val window : t -> int option

val dirty_users : t -> int list
(** Users whose [a_i] changed since the last {!clear_dirty},
    ascending. *)

val dirty_pairs : t -> int list
(** Published-pair indices whose episode counters changed since the
    last {!clear_dirty}, ascending. *)

val clear_dirty : t -> unit
(** Forget the dirty sets — call after an epoch snapshot was taken. *)

val snapshot : t -> Counters.t
(** The current counters (fresh arrays; the accumulator can keep
    ingesting).  Equal to [Counters.compute] over the same records
    restricted to the window — asserted by the test suite on random
    out-of-order streams. *)

val activity : t -> int array
(** The live activity counters [a], by user: the accumulator's own
    array, not a copy.  Read it, never write it; the next {!add} or
    {!advance} changes it.  Equal to [(snapshot t).a] when read. *)

val lag_counters : t -> int array array
(** The live per-pair lag counters [c], with the same contract as
    {!activity}.  Equal to [(snapshot t).c] when read. *)
