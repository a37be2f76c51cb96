(* The spe-serve control protocol: what flows on a daemon-mesh or
   client connection, around and between the inner Spe_net.Frame
   streams.

   Every connection opens with a [Hello] in each direction (the dialer
   speaks first); after that, session traffic travels as
   [Session_frame]s — an unmodified inner endpoint frame body tagged
   with its session id — multiplexed with the job-control frames.  The
   codec follows the Frame discipline exactly: length-prefixed bodies
   on the wire (a daemon's every socket is a Transport.Socket.Link,
   Hello included; the blocking write_frame / read_frame are the
   client's), encoded in place with Codec's writers and read by Codec's
   bounded reader, which rejects unknown tags and trailing bytes.  Tags
   live at 64+ so a serve frame can never be confused with an inner
   protocol frame. *)

module Codec = Spe_mpc.Codec

let version = 4
let protocol = "spe-serve/4"

type role = Party of int | Client

type pipeline = Links | Scores | Stream | Rank

let pipeline_name = function
  | Links -> "links"
  | Scores -> "scores"
  | Stream -> "stream"
  | Rank -> "rank"

type spec = {
  pipeline : pipeline;
  seed : int;
  shards : int;
  h : int;  (** Memory-window width (links, stream). *)
  c_factor : float;  (** Obfuscation blow-up (links, stream). *)
  modulus_bits : int;  (** Share modulus S = 2^bits (all pipelines). *)
  tau : int;  (** Propagation threshold (scores). *)
  key_bits : int;  (** Protocol 6 key size (scores). *)
  pack_slots : int;  (** Protocol 6 plaintext packing slots (scores). *)
  epoch_ticks : int;  (** Arrival ticks per release epoch (stream). *)
  window : int;  (** Temporal window in record-time units, 0 = none (stream). *)
  epochs : int;  (** Number of epochs to release (stream). *)
  rate : float;  (** Mean arrivals per tick (stream). *)
  burstiness : float;  (** Markov-modulated gap scaling in [0, 1) (stream). *)
  jitter : int;  (** Bounded arrival reordering in ticks (stream). *)
  damping : float;  (** Power-iteration damping in [0, 1) (rank). *)
  iterations : int;  (** Power-iteration count (rank). *)
  fbits : int;  (** Fixed-point fractional bits (rank). *)
  rank_degree : bool;  (** Degree-centrality mode instead of PageRank (rank). *)
}

let default_spec =
  {
    pipeline = Links;
    seed = 0;
    shards = 1;
    h = 1;
    c_factor = 1.;
    modulus_bits = 40;
    tau = 1;
    key_bits = 16;
    pack_slots = 1;
    epoch_ticks = 0;
    window = 0;
    epochs = 0;
    rate = 0.;
    burstiness = 0.;
    jitter = 0;
    damping = 0.85;
    iterations = 25;
    fbits = 20;
    rank_degree = false;
  }

type failure_kind = Rejected | Busy_queue | Peer_down | Round_timeout | Shard_failed | Other

let failure_kind_name = function
  | Rejected -> "rejected"
  | Busy_queue -> "busy"
  | Peer_down -> "peer-down"
  | Round_timeout -> "round-timeout"
  | Shard_failed -> "shard-failed"
  | Other -> "error"

type reply =
  | Strengths of ((int * int) * float) list
  | Scores of float array
  | Stream_summary of {
      digests : int array;
      recomputed : int array;
      strengths : ((int * int) * float) list;
    }
  | Rank_summary of { ranks_fx : int array; fbits : int }
  | Failed of { kind : failure_kind; detail : string }

type t =
  | Hello of { role : role; version : int; workload : int }
  | Session_frame of { sid : int; body : bytes }
  | Job_submit of { job : int; spec : spec }
  | Job_result of { job : int; reply : reply }
  | Busy of { job : int; queued : int; max_queue : int }
  | Job_cancel of { job : int }
  | Shutdown

(* Tags: disjoint from the inner Frame tags (0-4) by a wide margin. *)
let tag_hello = 64
let tag_session_frame = 65
let tag_job_submit = 66
let tag_job_result = 67
let tag_busy = 68
let tag_shutdown = 69
let tag_job_cancel = 70

(* An enum travels as its index in its table. *)
let pipelines = [| Links; Scores; Stream; Rank |]
let failure_kinds = [| Rejected; Busy_queue; Peer_down; Round_timeout; Shard_failed; Other |]

let code table v =
  let rec find i = if table.(i) = v then i else find (i + 1) in
  find 0

let of_code r table what k =
  if k < Array.length table then table.(k)
  else Codec.malformed r (Printf.sprintf "unknown %s %d" what k)

(* The spec's fixed layout: a u8 pipeline code, u63 seed, then the
   knobs (u16, u32 or f64 each) and a u8 flag — 70 bytes. *)
let spec_length = 70

let put_spec buf pos spec =
  let pos = Codec.put_u8 buf pos (code pipelines spec.pipeline) in
  let pos = Codec.put_u63 buf pos spec.seed in
  let pos = Codec.put_u16 buf pos spec.shards in
  let pos = Codec.put_u16 buf pos spec.h in
  let pos = Codec.put_f64 buf pos spec.c_factor in
  let pos = Codec.put_u16 buf pos spec.modulus_bits in
  let pos = Codec.put_u16 buf pos spec.tau in
  let pos = Codec.put_u16 buf pos spec.key_bits in
  let pos = Codec.put_u16 buf pos spec.pack_slots in
  let pos = Codec.put_u32 buf pos spec.epoch_ticks in
  let pos = Codec.put_u32 buf pos spec.window in
  let pos = Codec.put_u16 buf pos spec.epochs in
  let pos = Codec.put_f64 buf pos spec.rate in
  let pos = Codec.put_f64 buf pos spec.burstiness in
  let pos = Codec.put_u16 buf pos spec.jitter in
  let pos = Codec.put_f64 buf pos spec.damping in
  let pos = Codec.put_u16 buf pos spec.iterations in
  let pos = Codec.put_u16 buf pos spec.fbits in
  Codec.put_u8 buf pos (if spec.rank_degree then 1 else 0)

let get_spec r =
  let pipeline = of_code r pipelines "pipeline" (Codec.get_u8 r) in
  let seed = Codec.get_u63 r in
  let shards = Codec.get_u16 r in
  let h = Codec.get_u16 r in
  let c_factor = Codec.get_f64 r in
  let modulus_bits = Codec.get_u16 r in
  let tau = Codec.get_u16 r in
  let key_bits = Codec.get_u16 r in
  let pack_slots = Codec.get_u16 r in
  let epoch_ticks = Codec.get_u32 r in
  let window = Codec.get_u32 r in
  let epochs = Codec.get_u16 r in
  let rate = Codec.get_f64 r in
  let burstiness = Codec.get_f64 r in
  let jitter = Codec.get_u16 r in
  let damping = Codec.get_f64 r in
  let iterations = Codec.get_u16 r in
  let fbits = Codec.get_u16 r in
  let rank_degree = of_code r [| false; true |] "rank_degree" (Codec.get_u8 r) in
  {
    pipeline;
    seed;
    shards;
    h;
    c_factor;
    modulus_bits;
    tau;
    key_bits;
    pack_slots;
    epoch_ticks;
    window;
    epochs;
    rate;
    burstiness;
    jitter;
    damping;
    iterations;
    fbits;
    rank_degree;
  }

(* One strength entry: u32 source, u32 target, f64 estimate. *)
let put_strengths buf pos strengths =
  let pos = Codec.put_u32 buf pos (List.length strengths) in
  List.fold_left
    (fun pos ((u, v), p) ->
      let pos = Codec.put_u32 buf pos u in
      let pos = Codec.put_u32 buf pos v in
      Codec.put_f64 buf pos p)
    pos strengths

let get_strengths r =
  let n = Codec.get_count r Codec.get_u32 ~entry_bytes:16 in
  List.init n (fun _ ->
      let u = Codec.get_u32 r in
      let v = Codec.get_u32 r in
      let p = Codec.get_f64 r in
      ((u, v), p))

let reply_length = function
  | Strengths strengths -> 1 + 4 + (16 * List.length strengths)
  | Scores scores -> 1 + 4 + (8 * Array.length scores)
  | Failed { detail; _ } -> 1 + 1 + 4 + String.length detail
  | Stream_summary { digests; strengths; _ } ->
    1 + 2 + (12 * Array.length digests) + 4 + (16 * List.length strengths)
  | Rank_summary { ranks_fx; _ } -> 1 + 2 + 4 + (8 * Array.length ranks_fx)

let put_reply buf pos = function
  | Strengths strengths ->
    let pos = Codec.put_u8 buf pos 0 in
    put_strengths buf pos strengths
  | Scores scores ->
    let pos = Codec.put_u8 buf pos 1 in
    let pos = Codec.put_u32 buf pos (Array.length scores) in
    Codec.encode_floats_into scores buf ~pos
  | Failed { kind; detail } ->
    let pos = Codec.put_u8 buf pos 2 in
    let pos = Codec.put_u8 buf pos (code failure_kinds kind) in
    Codec.put_bytes buf pos (Bytes.of_string detail)
  | Stream_summary { digests; recomputed; strengths } ->
    if Array.length digests <> Array.length recomputed then
      invalid_arg "Serve_proto.encode: one recomputed count per epoch digest";
    let pos = Codec.put_u8 buf pos 3 in
    let pos = Codec.put_u16 buf pos (Array.length digests) in
    let pos = Array.fold_left (Codec.put_u63 buf) pos digests in
    let pos = Array.fold_left (Codec.put_u32 buf) pos recomputed in
    put_strengths buf pos strengths
  | Rank_summary { ranks_fx; fbits } ->
    let pos = Codec.put_u8 buf pos 4 in
    let pos = Codec.put_u16 buf pos fbits in
    let pos = Codec.put_u32 buf pos (Array.length ranks_fx) in
    Array.fold_left (Codec.put_u63 buf) pos ranks_fx

let get_reply r =
  match Codec.get_u8 r with
  | 0 -> Strengths (get_strengths r)
  | 1 -> Scores (Codec.get_floats r ~count:(Codec.get_u32 r))
  | 2 ->
    let kind = of_code r failure_kinds "failure kind" (Codec.get_u8 r) in
    let detail = Bytes.to_string (Codec.get_bytes r) in
    Failed { kind; detail }
  | 3 ->
    (* Each epoch is a u63 digest plus a u32 recomputed count. *)
    let epochs = Codec.get_count r Codec.get_u16 ~entry_bytes:12 in
    let digests = Array.init epochs (fun _ -> Codec.get_u63 r) in
    let recomputed = Array.init epochs (fun _ -> Codec.get_u32 r) in
    let strengths = get_strengths r in
    Stream_summary { digests; recomputed; strengths }
  | 4 ->
    let fbits = Codec.get_u16 r in
    let n = Codec.get_count r Codec.get_u32 ~entry_bytes:8 in
    Rank_summary { ranks_fx = Array.init n (fun _ -> Codec.get_u63 r); fbits }
  | k -> Codec.malformed r (Printf.sprintf "unknown reply kind %d" k)

let encoded_length = function
  | Hello _ -> 1 + 1 + 1 + 2 + 8
  | Session_frame { body; _ } -> 1 + 8 + 4 + Bytes.length body
  | Job_submit _ -> 1 + 8 + spec_length
  | Job_result { reply; _ } -> 1 + 8 + reply_length reply
  | Busy _ -> 1 + 8 + 4 + 4
  | Job_cancel _ -> 1 + 8
  | Shutdown -> 1

let encode_into t buf ~pos =
  match t with
  | Hello { role; version; workload } ->
    let pos = Codec.put_u8 buf pos tag_hello in
    let pos = Codec.put_u8 buf pos version in
    (* A client's role carries id 0. *)
    let pos = Codec.put_u8 buf pos (match role with Party _ -> 0 | Client -> 1) in
    let pos = Codec.put_u16 buf pos (match role with Party id -> id | Client -> 0) in
    Codec.put_u63 buf pos workload
  | Session_frame { sid; body } ->
    let pos = Codec.put_u8 buf pos tag_session_frame in
    let pos = Codec.put_u63 buf pos sid in
    Codec.put_bytes buf pos body
  | Job_submit { job; spec } ->
    let pos = Codec.put_u8 buf pos tag_job_submit in
    let pos = Codec.put_u63 buf pos job in
    put_spec buf pos spec
  | Job_result { job; reply } ->
    let pos = Codec.put_u8 buf pos tag_job_result in
    let pos = Codec.put_u63 buf pos job in
    put_reply buf pos reply
  | Busy { job; queued; max_queue } ->
    let pos = Codec.put_u8 buf pos tag_busy in
    let pos = Codec.put_u63 buf pos job in
    let pos = Codec.put_u32 buf pos queued in
    Codec.put_u32 buf pos max_queue
  | Job_cancel { job } ->
    let pos = Codec.put_u8 buf pos tag_job_cancel in
    Codec.put_u63 buf pos job
  | Shutdown -> Codec.put_u8 buf pos tag_shutdown

let encode t = Codec.alloc (encoded_length t) (encode_into t)

let get_frame r =
  match Codec.get_u8 r with
  | k when k = tag_hello ->
    let version = Codec.get_u8 r in
    let role =
      match Codec.get_u8 r with
      | 0 -> Party (Codec.get_u16 r)
      | 1 ->
        let _ = Codec.get_u16 r in
        Client
      | k -> Codec.malformed r (Printf.sprintf "unknown role %d" k)
    in
    let workload = Codec.get_u63 r in
    Hello { role; version; workload }
  | k when k = tag_session_frame ->
    let sid = Codec.get_u63 r in
    Session_frame { sid; body = Codec.get_bytes r }
  | k when k = tag_job_submit ->
    let job = Codec.get_u63 r in
    Job_submit { job; spec = get_spec r }
  | k when k = tag_job_result ->
    let job = Codec.get_u63 r in
    Job_result { job; reply = get_reply r }
  | k when k = tag_busy ->
    let job = Codec.get_u63 r in
    let queued = Codec.get_u32 r in
    let max_queue = Codec.get_u32 r in
    Busy { job; queued; max_queue }
  | k when k = tag_job_cancel -> Job_cancel { job = Codec.get_u63 r }
  | k when k = tag_shutdown -> Shutdown
  | k -> Codec.malformed r (Printf.sprintf "unknown tag %d" k)

let decode_slice body off len = Codec.read ~what:"Serve_proto.decode" body off len get_frame

let decode body = decode_slice body 0 (Bytes.length body)

(* Blocking connection I/O: serve frames ride the same length-prefixed
   stream discipline as the inner protocol frames. *)
let write fd t = Spe_net.Transport.Socket.write_frame fd (encode t)

let read ?deadline fd = Option.map decode (Spe_net.Transport.Socket.read_frame ?deadline fd)
