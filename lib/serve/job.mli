(** Turning a wire {!Serve_proto.spec} into per-daemon work.

    Every daemon rebuilds the {e identical} plan from [(spec,
    workload)] — the sharded pipelines draw all joint randomness at
    plan-build time in a deterministic order — and executes only its
    own party's {!seat}s over the connection mesh.  The merged result
    is read at H exactly as the in-process pool reads it. *)

type workload = { graph : Spe_graph.Digraph.t; logs : Spe_actionlog.Log.t array }

val digest : workload -> int
(** Deterministic content digest (FNV-1a over the canonical graph and
    log record streams) carried in the mesh {!Serve_proto.t.Hello}:
    daemons loaded with different workloads could never agree on a
    plan, so they refuse each other at connection time. *)

type planned =
  | Links_plan of Spe_core.Protocol4.result Spe_core.Plan.t
  | Scores_plan of Spe_core.Shard.scores Spe_core.Plan.t
  | Stream_plan of { delta : Spe_core.Delta.t; stages : Spe_core.Plan.stage list }
      (** All epochs of a stream job, built ahead of execution: every
          daemon replays the identical seeded ingestion
          ({!build_stream}).  The reply is read from the instance's
          accumulated releases. *)
  | Rank_plan of {
      fbits : int;
      plan : Spe_rank.Protocol_rank.result Spe_core.Plan.t;
    }  (** The rank pipeline, with its fixed-point precision carried
          along so the {!Serve_proto.reply.Rank_summary} can tell
          clients how to rescale. *)

val check : Serve_proto.spec -> (unit, string) result
(** The spec-field checks alone, which need no workload: what a client
    can run before it submits.  The error is the typed rejection
    detail. *)

val validate : Serve_proto.spec -> workload -> (unit, string) result
(** Cheap sanity before any plan is built: the workload has at least
    two providers, then {!check}. *)

val build : Serve_proto.spec -> workload -> planned
(** Build the full plan — identical in every daemon. *)

val build_stream :
  mode:Spe_core.Delta.mode -> Serve_proto.spec -> workload -> planned * int array
(** The one stream ingestion, for a [Stream] spec: per-provider seeded
    {!Spe_actionlog.Source}s (seed [spec.seed + 101 + k]) feed windowed
    {!Spe_influence.Stream} accumulators over the {!Spe_core.Delta}
    instance's published pair order, and each epoch's snapshot becomes
    that epoch's [Delta] stages in [mode].  Returns the [Stream_plan]
    and the records that arrived in each epoch.  {!build} is the
    [Delta]-mode plan; a [Full]-mode plan from the same spec releases
    bit-identical digests. *)

val stages : planned -> Spe_core.Plan.stage list

val reply_of : planned -> Serve_proto.reply
(** Read the merged result (host only, after every stage quiesced). *)

val daemon_of_party : Spe_mpc.Wire.party -> int
(** Host is daemon 0, provider [k] is daemon [k + 1] — the frame
    codec's party order. *)

val sid_stride : int
(** Session-id space per job; [sid = job * stride + session index]. *)

val sid : job:int -> gidx:int -> int

type seat = {
  sid : int;
  session : unit Spe_mpc.Session.t;
  peers : int array;  (** Daemon id by group index. *)
  index : int;  (** This daemon's group index. *)
}

val seats : job:int -> party:int -> planned -> seat list list * int list
(** [seats ~job ~party planned] enumerates the plan's sessions in
    (stage, index) order — the order every daemon agrees on — and
    returns this daemon's seats grouped by stage, plus every sid of the
    job (for cancellation, including sessions this daemon is not seated
    in). *)
