(** A fault schedule: the reproducible script one chaos run executes.

    A schedule pins everything a run needs to be replayed bit-for-bit:
    the workload generator parameters, which pipeline and transport
    engine to drive, the shard/worker cut, and a list of {!event}s.
    Per-frame events key on the {e n-th frame of one directed link
    within one shard session} — each sender emits its frames to a given
    link in program order, so that index is deterministic where a
    global transmission index (which depends on how the sessions in
    flight interleave) would not be.  {!fault_for} compiles the per-frame events into a
    {!Spe_net.Fault} policy for one session; worker kills and timeout
    skew are applied by the harness itself.

    Schedules serialize as versioned [spe-schedule/1] JSON (strict
    reader, like the [spe-metrics] documents) so a shrunk reproducer
    from CI replays exactly via [spe chaos --replay FILE]. *)

type pipeline =
  | Links  (** The Sec. 5.1 link-strength pipeline (Protocol 4, exclusive). *)
  | Scores  (** The Sec. 6 user-scores pipeline (Protocol 6, exclusive). *)

type engine =
  | Memory  (** {!Spe_net.Transport.Memory} shard groups. *)
  | Socket  (** Socketpair {!Spe_net.Transport.Socket} shard groups. *)

type workload = {
  wseed : int;  (** Seed for the graph/log generators (and, +1, the pipeline). *)
  users : int;
  edges : int;
  actions : int;
  providers : int;
}
(** Everything needed to regenerate the run's inputs from scratch. *)

type event =
  | Drop of { session : int; src : int; dst : int; nth : int }
      (** Lose the [nth] frame (0-based) on the [src -> dst] link of
          shard session [session] (global index across plan stages). *)
  | Delay of { session : int; src : int; dst : int; nth : int; seconds : float }
      (** Hold that frame for [seconds] before delivering it. *)
  | Duplicate of { session : int; src : int; dst : int; nth : int }
      (** Deliver that frame twice. *)
  | Blackhole of { session : int; src : int; dst : int; from_nth : int }
      (** Drop every frame on the link from index [from_nth] on — a
          link that dies mid-run.  Fatal: the run is expected to end in
          a typed [Round_timeout]. *)
  | Kill of { session : int }
      (** Kill the pool worker right after it claims this session.
          Fatal: the run is expected to end in [Shard_failed] wrapping
          [Worker_killed]. *)
  | Skew of { factor : float }
      (** Multiply the endpoint round timeout (and linger) by [factor]
          for the whole run. *)

type t = {
  seed : int;  (** The seed {!Harness.generate} drew this schedule from. *)
  pipeline : pipeline;
  engine : engine;
  shards : int;  (** The plan cut passed to [Spe_core.Shard]. *)
  workers : int;  (** Shard sessions in flight per stage. *)
  workload : workload;
  events : event list;
}

val schema : string
(** The schedule document schema tag: ["spe-schedule/1"]. *)

val pipeline_name : pipeline -> string
(** ["links"] / ["scores"] — also the metrics [protocol] label. *)

val engine_name : engine -> string
(** ["memory"] / ["socket"]. *)

val check_replay_target : t -> requested:pipeline option -> (unit, string) result
(** Refuse to replay a schedule under a mismatched [--target]: the
    error names both the schedule's pipeline and the requested one.
    [requested = None] (i.e. [--target both]) always passes. *)

val skew : t -> float
(** The product of every {!Skew} factor (1.0 when there are none). *)

val fatal : t -> event option
(** The first {!Kill} or {!Blackhole}, if any: the event that entitles
    the run to fail (with correct attribution).  A schedule without a
    fatal event must complete and match the central oracle. *)

val kills_session : t -> int -> bool
(** Whether some {!Kill} names this global session index. *)

val fault_for : t -> session:int -> Spe_net.Fault.t option
(** Compile the per-frame events targeting [session] into a transport
    fault policy ([None] when the session has none).  The policy keeps
    one frame counter per directed link; when several events hit the
    same frame, a blackhole wins over a drop, a drop over a delay, a
    delay over a duplicate. *)

val id : t -> string
(** A short content digest of the serialized schedule — the stable name
    used in metrics reports ([Metrics.report.schedule]), shrunk-file
    names and log lines. *)

val to_json : t -> Spe_obs.Obs_io.Json.t
(** The schedule as a [spe-schedule/1] object. *)

val of_json : Spe_obs.Obs_io.Json.t -> t
(** Inverse of {!to_json}.  Raises [Failure] on a missing or unsupported
    schema tag, an unknown event kind, any missing/ill-typed field, or a
    workload the harness cannot build: [shards < 1], [providers < 2],
    [users < 2], [actions < 1], or [edges] outside [0, users(users-1)].
    The message names the field. *)

val to_string : t -> string
(** Pretty-printed [spe-schedule/1] JSON, newline-terminated. *)

val of_string : string -> t
(** Parse + {!of_json}. *)
