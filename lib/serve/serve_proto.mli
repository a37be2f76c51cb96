(** The versioned [spe-serve/4] control protocol.

    Everything a daemon-mesh or client connection carries: the opening
    {!t.Hello} handshake, session-tagged inner endpoint frames
    ({!t.Session_frame} — the body is an unmodified
    {!Spe_net.Frame} encoding, multiplexed by session id), and the job
    control frames (submit / result / busy / cancel / shutdown).
    Frames are length-prefixed on the wire with the same discipline as
    the inner protocol (on a daemon's links, and {!write}/{!read}).  The
    byte writers and the bounded reader are {!Spe_mpc.Codec}'s; this
    module holds only the frame layout.  The decoder is strict —
    unknown tags, unknown enum codes, length fields past the frame and
    trailing bytes all raise {!Spe_mpc.Codec.Malformed}, and nothing
    else does.  Tags live at 64+ so a serve frame can never be confused
    with an inner frame. *)

val version : int
(** 4 — carried in every {!t.Hello}; a daemon refuses mismatched peers.
    Bumped from 1 when the spec grew the packing and streaming fields,
    and from 2 when it grew the rank pipeline (its spec fields, the
    [Rank] code and the [Rank_summary] reply): the field list is
    fixed-layout, so old and new binaries must refuse each other
    cleanly rather than misparse.  Bumped from 3 when a stream job's
    plan moved to one recompute session per epoch: the wire format is
    unchanged, but daemons agree on session ids only by building the
    same plan, so a version-3 daemon would give a session id to a
    different session. *)

val protocol : string
(** ["spe-serve/4"]. *)

type role =
  | Party of int  (** A daemon introducing itself: 0 = H, [k] = P[k]. *)
  | Client  (** A job-submitting client (CLI, tests, bench). *)

type pipeline = Links | Scores | Stream | Rank

val pipeline_name : pipeline -> string

type spec = {
  pipeline : pipeline;
  seed : int;  (** The job's PRNG seed — with the daemons' shared
                   workload this pins the whole plan. *)
  shards : int;
  h : int;  (** Memory-window width (links, stream). *)
  c_factor : float;  (** Obfuscation blow-up (links, stream); travels as IEEE bits. *)
  modulus_bits : int;  (** Share modulus S = 2^bits. *)
  tau : int;  (** Propagation threshold (scores). *)
  key_bits : int;  (** Protocol 6 key size (scores). *)
  pack_slots : int;  (** Protocol 6 plaintext packing slots (scores). *)
  epoch_ticks : int;  (** Arrival ticks per release epoch (stream). *)
  window : int;  (** Sliding window in record-time units, 0 = none (stream). *)
  epochs : int;  (** Release epochs to run (stream). *)
  rate : float;  (** Mean arrivals per tick (stream). *)
  burstiness : float;  (** Markov gap modulation in [0, 1) (stream). *)
  jitter : int;  (** Bounded arrival reordering in ticks (stream). *)
  damping : float;  (** Power-iteration damping in [[0, 1)] (rank). *)
  iterations : int;  (** Power-iteration count (rank). *)
  fbits : int;  (** Fixed-point fractional bits (rank). *)
  rank_degree : bool;  (** Degree-centrality mode instead of PageRank (rank). *)
}
(** Everything a job needs beyond the daemons' preloaded workload.
    Every daemon rebuilds the identical plan from [(spec, workload)] —
    all joint randomness is drawn at plan-build time in a deterministic
    order (for [Stream] jobs this includes replaying the whole seeded
    event source) — and executes only its own party's seats. *)

val default_spec : spec
(** A valid-shape base record ([Links], seed 0, every optional knob at
    its neutral value: [pack_slots = 1], stream fields zeroed) — spec
    literals are built with record update on this, so adding a field
    does not touch every call site. *)

type failure_kind =
  | Rejected  (** Refused before running (shutdown drain, bad spec). *)
  | Busy_queue  (** Admission control: the bounded queue was full. *)
  | Peer_down  (** A peer daemon's connection died mid-session. *)
  | Round_timeout  (** A session starved past its Nack budget. *)
  | Shard_failed  (** A shard session failed for another typed reason. *)
  | Other

val failure_kind_name : failure_kind -> string

type reply =
  | Strengths of ((int * int) * float) list  (** Links result, real arcs. *)
  | Scores of float array  (** Scores result, by user. *)
  | Stream_summary of {
      digests : int array;  (** Per-epoch release digests, epoch order. *)
      recomputed : int array;  (** Counter groups re-shared per epoch. *)
      strengths : ((int * int) * float) list;  (** Final-epoch arcs. *)
    }  (** Stream result: the whole release sequence, compressed. *)
  | Rank_summary of {
      ranks_fx : int array;  (** The fixed-point rank vector, by user. *)
      fbits : int;  (** Its fractional bits, so clients can rescale. *)
    }  (** Rank result, bit-exact on the wire by construction. *)
  | Failed of { kind : failure_kind; detail : string }

type t =
  | Hello of {
      role : role;
      version : int;
      workload : int;
          (** Digest of the sender's loaded workload (0 for clients);
              daemons refuse peers whose digest differs — a mesh over
              different inputs could never agree on a plan. *)
    }
  | Session_frame of { sid : int; body : bytes }
  | Job_submit of { job : int; spec : spec }
      (** Client -> H: [job] is the client's own correlation id.
          H -> P: [job] is the coordinator's global job number, which
          also prefixes every session id of the job. *)
  | Job_result of { job : int; reply : reply }
  | Busy of { job : int; queued : int; max_queue : int }
      (** The typed admission-control rejection. *)
  | Job_cancel of { job : int }
      (** H -> P: abort the (global) job's sessions. *)
  | Shutdown

val encoded_length : t -> int
(** The size of {!encode}'s result, computed without encoding. *)

val encode_into : t -> bytes -> pos:int -> int
(** [encode_into t buf ~pos] writes the frame body at [pos] and returns
    [pos + encoded_length t]; the caller guarantees capacity.  The
    mesh's send path, straight into a link's outbound slab.  Raises
    [Invalid_argument] on a field its width cannot hold. *)

val encode : t -> bytes
(** An exact-size buffer filled by {!encode_into}. *)

val decode : bytes -> t

val decode_slice : bytes -> int -> int -> t
(** [decode_slice buf off len] decodes the frame body
    [buf.[off .. off + len - 1]] in place, exactly as strictly as
    {!decode} decodes a body of its own; a [Session_frame]'s body is
    the one copy made.  The daemon mesh slices frames out of its links'
    read slabs with it.  Raises [Invalid_argument] if the slice is
    outside [buf]. *)

val write : Unix.file_descr -> t -> unit
(** One length-prefixed frame, blocking: [Client]'s, as is {!read}; the
    caller serialises writes per descriptor. *)

val read : ?deadline:float -> Unix.file_descr -> t option
(** [None] on clean EOF; [Failure] on a torn stream or a missed
    [deadline] (see {!Spe_net.Transport.Socket.read_frame});
    {!Spe_mpc.Codec.Malformed} on a malformed frame. *)
