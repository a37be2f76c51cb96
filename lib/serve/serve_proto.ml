(* The spe-serve control protocol: what flows on a daemon-mesh or
   client connection, around and between the inner Spe_net.Frame
   streams.

   Every connection opens with a [Hello] in each direction (the dialer
   speaks first); after that, session traffic travels as
   [Session_frame]s — an unmodified inner endpoint frame body tagged
   with its session id — multiplexed with the job-control frames.  The
   codec follows the Frame discipline exactly: length-prefixed bodies
   on the wire (Transport.Socket write_frame / read_frame for
   handshakes and clients, Transport.Socket.Link for the mesh),
   explicit big-endian byte writers, a strict reader that rejects
   unknown tags and trailing bytes.  Tags live at 64+ so a serve frame
   can never be confused with an inner protocol frame. *)

module Frame = Spe_net.Frame

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

(* Byte writers, after Frame's. *)
let put_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xFF))

let put_u16 buf v =
  if v < 0 || v > 0xFFFF then invalid_arg "Serve_proto.encode: u16 out of range";
  put_u8 buf (v lsr 8);
  put_u8 buf v

let put_u32 buf v =
  if v < 0 || v > 0xFFFF_FFFF then invalid_arg "Serve_proto.encode: u32 out of range";
  put_u8 buf (v lsr 24);
  put_u8 buf (v lsr 16);
  put_u8 buf (v lsr 8);
  put_u8 buf v

let put_u63 buf v =
  if v < 0 then invalid_arg "Serve_proto.encode: u63 out of range";
  put_u32 buf (v lsr 32);
  put_u32 buf (v land 0xFFFF_FFFF)

(* Floats travel as their IEEE-754 bits, so results survive the wire
   bit-identically — the whole point of the oracle comparisons. *)
let put_f64 buf v =
  let bits = Int64.bits_of_float v in
  for shift = 7 downto 0 do
    put_u8 buf (Int64.to_int (Int64.shift_right_logical bits (8 * shift)))
  done

let put_string buf s =
  put_u32 buf (String.length s);
  Buffer.add_string buf s

(* A reader over the slice [body.[pos .. limit - 1]]. *)
type reader = { body : bytes; mutable pos : int; limit : int }

let get_u8 r =
  if r.pos >= r.limit then invalid_arg "Serve_proto.decode: truncated frame";
  let v = Char.code (Bytes.get r.body r.pos) in
  r.pos <- r.pos + 1;
  v

let get_u16 r =
  let hi = get_u8 r in
  (hi lsl 8) lor get_u8 r

let get_u32 r =
  let hi = get_u16 r in
  (hi lsl 16) lor get_u16 r

let get_u63 r =
  let hi = get_u32 r in
  (* The writers only emit nonnegative ints: the top two bits are 0. *)
  if hi > 0x3FFF_FFFF then invalid_arg "Serve_proto.decode: u63 out of range";
  (hi lsl 32) lor get_u32 r

let get_f64 r =
  let bits = ref 0L in
  for _ = 0 to 7 do
    bits := Int64.logor (Int64.shift_left !bits 8) (Int64.of_int (get_u8 r))
  done;
  Int64.float_of_bits !bits

let get_bytes r n =
  if n < 0 || r.pos + n > r.limit then
    invalid_arg "Serve_proto.decode: truncated frame";
  let b = Bytes.sub r.body r.pos n in
  r.pos <- r.pos + n;
  b

let get_string r =
  let n = get_u32 r in
  Bytes.to_string (get_bytes r n)

(* A list length off the frame, checked against the bytes left before
   anything is allocated for it: every entry takes at least
   [entry_bytes] on the wire, so a count the frame cannot hold is
   refused up front rather than paid for in memory. *)
let get_count r get ~entry_bytes =
  let n = get r in
  if n > (r.limit - r.pos) / entry_bytes then
    invalid_arg "Serve_proto.decode: count exceeds the frame";
  n

let put_spec buf spec =
  put_u8 buf (match spec.pipeline with Links -> 0 | Scores -> 1 | Stream -> 2 | Rank -> 3);
  put_u63 buf spec.seed;
  put_u16 buf spec.shards;
  put_u16 buf spec.h;
  put_f64 buf spec.c_factor;
  put_u16 buf spec.modulus_bits;
  put_u16 buf spec.tau;
  put_u16 buf spec.key_bits;
  put_u16 buf spec.pack_slots;
  put_u32 buf spec.epoch_ticks;
  put_u32 buf spec.window;
  put_u16 buf spec.epochs;
  put_f64 buf spec.rate;
  put_f64 buf spec.burstiness;
  put_u16 buf spec.jitter;
  put_f64 buf spec.damping;
  put_u16 buf spec.iterations;
  put_u16 buf spec.fbits;
  put_u8 buf (if spec.rank_degree then 1 else 0)

let get_spec r =
  let pipeline =
    match get_u8 r with
    | 0 -> Links
    | 1 -> Scores
    | 2 -> Stream
    | 3 -> Rank
    | k -> invalid_arg (Printf.sprintf "Serve_proto.decode: unknown pipeline %d" k)
  in
  let seed = get_u63 r in
  let shards = get_u16 r in
  let h = get_u16 r in
  let c_factor = get_f64 r in
  let modulus_bits = get_u16 r in
  let tau = get_u16 r in
  let key_bits = get_u16 r in
  let pack_slots = get_u16 r in
  let epoch_ticks = get_u32 r in
  let window = get_u32 r in
  let epochs = get_u16 r in
  let rate = get_f64 r in
  let burstiness = get_f64 r in
  let jitter = get_u16 r in
  let damping = get_f64 r in
  let iterations = get_u16 r in
  let fbits = get_u16 r in
  let rank_degree =
    match get_u8 r with
    | 0 -> false
    | 1 -> true
    | k -> invalid_arg (Printf.sprintf "Serve_proto.decode: bad rank_degree %d" k)
  in
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

let kind_code = function
  | Rejected -> 0
  | Busy_queue -> 1
  | Peer_down -> 2
  | Round_timeout -> 3
  | Shard_failed -> 4
  | Other -> 5

let kind_of_code = function
  | 0 -> Rejected
  | 1 -> Busy_queue
  | 2 -> Peer_down
  | 3 -> Round_timeout
  | 4 -> Shard_failed
  | 5 -> Other
  | k -> invalid_arg (Printf.sprintf "Serve_proto.decode: unknown failure kind %d" k)

let put_reply buf = function
  | Strengths strengths ->
    put_u8 buf 0;
    put_u32 buf (List.length strengths);
    List.iter
      (fun ((u, v), p) ->
        put_u32 buf u;
        put_u32 buf v;
        put_f64 buf p)
      strengths
  | Scores scores ->
    put_u8 buf 1;
    put_u32 buf (Array.length scores);
    Array.iter (put_f64 buf) scores
  | Failed { kind; detail } ->
    put_u8 buf 2;
    put_u8 buf (kind_code kind);
    put_string buf detail
  | Stream_summary { digests; recomputed; strengths } ->
    put_u8 buf 3;
    if Array.length digests <> Array.length recomputed then
      invalid_arg "Serve_proto.encode: one recomputed count per epoch digest";
    put_u16 buf (Array.length digests);
    Array.iter (put_u63 buf) digests;
    Array.iter (put_u32 buf) recomputed;
    put_u32 buf (List.length strengths);
    List.iter
      (fun ((u, v), p) ->
        put_u32 buf u;
        put_u32 buf v;
        put_f64 buf p)
      strengths
  | Rank_summary { ranks_fx; fbits } ->
    put_u8 buf 4;
    put_u16 buf fbits;
    put_u32 buf (Array.length ranks_fx);
    Array.iter (put_u63 buf) ranks_fx

(* One strength entry: u32 source, u32 target, f64 estimate. *)
let get_strengths r =
  let n = get_count r get_u32 ~entry_bytes:16 in
  List.init n (fun _ ->
      let u = get_u32 r in
      let v = get_u32 r in
      let p = get_f64 r in
      ((u, v), p))

let get_reply r =
  match get_u8 r with
  | 0 -> Strengths (get_strengths r)
  | 1 ->
    let n = get_count r get_u32 ~entry_bytes:8 in
    Scores (Array.init n (fun _ -> get_f64 r))
  | 2 ->
    let kind = kind_of_code (get_u8 r) in
    let detail = get_string r in
    Failed { kind; detail }
  | 3 ->
    (* Each epoch is a u63 digest plus a u32 recomputed count. *)
    let epochs = get_count r get_u16 ~entry_bytes:12 in
    let digests = Array.init epochs (fun _ -> get_u63 r) in
    let recomputed = Array.init epochs (fun _ -> get_u32 r) in
    let strengths = get_strengths r in
    Stream_summary { digests; recomputed; strengths }
  | 4 ->
    let fbits = get_u16 r in
    let n = get_count r get_u32 ~entry_bytes:8 in
    Rank_summary { ranks_fx = Array.init n (fun _ -> get_u63 r); fbits }
  | k -> invalid_arg (Printf.sprintf "Serve_proto.decode: unknown reply kind %d" k)

(* The Session_frame layout — tag, u63 sid, u32 body length, body —
   written in place: into a fresh buffer by [encode], straight into a
   link's outbound slab by the daemon mesh. *)
let session_frame_length body = 1 + 8 + 4 + Bytes.length body

let put_session_frame buf pos ~sid body =
  let n = Bytes.length body in
  if sid < 0 then invalid_arg "Serve_proto.encode: u63 out of range";
  if n > 0xFFFF_FFFF then invalid_arg "Serve_proto.encode: u32 out of range";
  Bytes.set_uint8 buf pos tag_session_frame;
  Bytes.set_int32_be buf (pos + 1) (Int32.of_int (sid lsr 32));
  Bytes.set_int32_be buf (pos + 5) (Int32.of_int (sid land 0xFFFF_FFFF));
  Bytes.set_int32_be buf (pos + 9) (Int32.of_int n);
  Bytes.blit body 0 buf (pos + 13) n

let encode t =
  let buf = Buffer.create 32 in
  (match t with
  | Hello { role; version; workload } ->
    put_u8 buf tag_hello;
    put_u8 buf version;
    (match role with
    | Party id ->
      put_u8 buf 0;
      put_u16 buf id
    | Client ->
      put_u8 buf 1;
      put_u16 buf 0);
    put_u63 buf workload
  | Session_frame { sid; body } ->
    let b = Bytes.create (session_frame_length body) in
    put_session_frame b 0 ~sid body;
    Buffer.add_bytes buf b
  | Job_submit { job; spec } ->
    put_u8 buf tag_job_submit;
    put_u63 buf job;
    put_spec buf spec
  | Job_result { job; reply } ->
    put_u8 buf tag_job_result;
    put_u63 buf job;
    put_reply buf reply
  | Busy { job; queued; max_queue } ->
    put_u8 buf tag_busy;
    put_u63 buf job;
    put_u32 buf queued;
    put_u32 buf max_queue
  | Job_cancel { job } ->
    put_u8 buf tag_job_cancel;
    put_u63 buf job
  | Shutdown -> put_u8 buf tag_shutdown);
  Buffer.to_bytes buf

let decode_slice body off len =
  if off < 0 || len < 0 || off + len > Bytes.length body then
    invalid_arg "Serve_proto.decode: slice out of bounds";
  let r = { body; pos = off; limit = off + len } in
  let t =
    match get_u8 r with
    | k when k = tag_hello ->
      let version = get_u8 r in
      let role =
        match get_u8 r with
        | 0 -> Party (get_u16 r)
        | 1 ->
          let _ = get_u16 r in
          Client
        | k -> invalid_arg (Printf.sprintf "Serve_proto.decode: unknown role %d" k)
      in
      let workload = get_u63 r in
      Hello { role; version; workload }
    | k when k = tag_session_frame ->
      let sid = get_u63 r in
      let n = get_u32 r in
      Session_frame { sid; body = get_bytes r n }
    | k when k = tag_job_submit ->
      let job = get_u63 r in
      Job_submit { job; spec = get_spec r }
    | k when k = tag_job_result ->
      let job = get_u63 r in
      Job_result { job; reply = get_reply r }
    | k when k = tag_busy ->
      let job = get_u63 r in
      let queued = get_u32 r in
      let max_queue = get_u32 r in
      Busy { job; queued; max_queue }
    | k when k = tag_job_cancel -> Job_cancel { job = get_u63 r }
    | k when k = tag_shutdown -> Shutdown
    | k -> invalid_arg (Printf.sprintf "Serve_proto.decode: unknown tag %d" k)
  in
  if r.pos <> r.limit then invalid_arg "Serve_proto.decode: trailing bytes";
  t

let decode body = decode_slice body 0 (Bytes.length body)

(* Blocking connection I/O: serve frames ride the same length-prefixed
   stream discipline as the inner protocol frames. *)
let write fd t = Spe_net.Transport.Socket.write_frame fd (encode t)

let read ?deadline fd = Option.map decode (Spe_net.Transport.Socket.read_frame ?deadline fd)
