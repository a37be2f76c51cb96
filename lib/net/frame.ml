module Wire = Spe_mpc.Wire
module Runtime = Spe_mpc.Runtime
module Codec = Spe_mpc.Codec

type t =
  | Hello of { sender : int }
  | Data of {
      round : int;
      seq : int;
      src : Wire.party;
      dst : Wire.party;
      payload : Runtime.payload;
    }
  | End_of_round of { round : int; sender : int; total : int; to_dst : int }
  | Nack of { round : int; sender : int }
  | Fin of { sender : int }

let length_prefix_bytes = 4

(* Tags. *)
let tag_hello = 0
let tag_data = 1
let tag_eor = 2
let tag_nack = 3
let tag_fin = 4

(* Payload kinds inside a Data body. *)
let kind_ints = 0
let kind_floats = 1
let kind_bits = 2
let kind_nats = 3
let kind_tuples = 4
let kind_batch = 5

(* Parties in two bytes: Host = 0, Provider k = k + 1. *)
let party_code = function
  | Wire.Host -> 0
  | Wire.Provider k ->
    if k < 0 || k > 0xFFFE then invalid_arg "Frame.encode: provider index out of range";
    k + 1

let party_of_code = function
  | 0 -> Wire.Host
  | c -> Wire.Provider (c - 1)

(* Position-threading byte writers over a caller-supplied buffer: each
   takes the write position and returns the next one.  No writer state
   record, no closures — encoding a frame with an integer payload into
   a reused buffer allocates nothing at all (the test suite pins this
   with a [Gc.minor_words] delta). *)
let put_u8 buf pos v =
  Bytes.set buf pos (Char.chr (v land 0xFF));
  pos + 1

let put_u16 buf pos v =
  if v < 0 || v > 0xFFFF then invalid_arg "Frame.encode: u16 out of range";
  let pos = put_u8 buf pos (v lsr 8) in
  put_u8 buf pos v

let put_u32 buf pos v =
  if v < 0 || v > 0xFFFF_FFFF then invalid_arg "Frame.encode: u32 out of range";
  let pos = put_u8 buf pos (v lsr 24) in
  let pos = put_u8 buf pos (v lsr 16) in
  let pos = put_u8 buf pos (v lsr 8) in
  put_u8 buf pos v

let put_u63 buf pos v =
  if v < 0 then invalid_arg "Frame.encode: u63 out of range";
  let pos = put_u32 buf pos (v lsr 32) in
  put_u32 buf pos (v land 0xFFFF_FFFF)

type reader = { body : bytes; mutable pos : int }

let get_u8 r =
  if r.pos >= Bytes.length r.body then invalid_arg "Frame.decode: truncated frame";
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
  if hi > 0x3FFF_FFFF then invalid_arg "Frame.decode: u63 out of range";
  (hi lsl 32) lor get_u32 r

let get_bytes r n =
  if n < 0 || r.pos + n > Bytes.length r.body then
    invalid_arg "Frame.decode: truncated frame";
  let b = Bytes.sub r.body r.pos n in
  r.pos <- r.pos + n;
  b

(* A u32 element count, checked against the bytes left before anything
   is allocated or multiplied for it: every element takes [entry_bytes]
   on the wire.  Zero-width elements carry no bytes, so only an empty
   count of them is accepted. *)
let get_count r ~entry_bytes =
  let count = get_u32 r in
  let left = Bytes.length r.body - r.pos in
  if (entry_bytes = 0 && count > 0) || (entry_bytes > 0 && count > left / entry_bytes) then
    invalid_arg "Frame.decode: count exceeds the frame";
  count

(* Closed-form encoded sizes, mirrored one-for-one by the writers
   below; PERFORMANCE.md ("Framing") states them and the test suite
   pins writer = length. *)
let rec payload_encoded_length = function
  | Runtime.Ints { modulus; values } ->
    1 + 8 + 4 + (Codec.residue_bytes ~modulus * Array.length values)
  | Runtime.Floats values -> 1 + 4 + (8 * Array.length values)
  | Runtime.Bits flags -> 1 + 4 + ((Array.length flags + 7) / 8)
  | Runtime.Nats { width_bits; values } ->
    1 + 8 + 4 + ((width_bits + 7) / 8 * Array.length values)
  | Runtime.Tuples { moduli; rows } ->
    let row_bytes =
      Array.fold_left (fun acc modulus -> acc + Codec.residue_bytes ~modulus) 0 moduli
    in
    1 + 2 + (8 * Array.length moduli) + 4 + (row_bytes * Array.length rows)
  | Runtime.Batch payloads ->
    List.fold_left (fun acc p -> acc + payload_encoded_length p) (1 + 2) payloads

let encoded_length = function
  | Hello _ -> 1 + 2
  | Data { payload; _ } -> 1 + 4 + 4 + 2 + 2 + payload_encoded_length payload
  | End_of_round _ -> 1 + 4 + 2 + 4 + 4
  | Nack _ -> 1 + 4 + 2
  | Fin _ -> 1 + 2

let rec put_payload buf pos = function
  | Runtime.Ints { modulus; values } ->
    let pos = put_u8 buf pos kind_ints in
    let pos = put_u63 buf pos modulus in
    let pos = put_u32 buf pos (Array.length values) in
    Codec.encode_residues_into ~modulus values buf ~pos
  | Runtime.Floats values ->
    let pos = put_u8 buf pos kind_floats in
    let pos = put_u32 buf pos (Array.length values) in
    Codec.encode_floats_into values buf ~pos
  | Runtime.Bits flags ->
    let pos = put_u8 buf pos kind_bits in
    let pos = put_u32 buf pos (Array.length flags) in
    Codec.encode_bitset_into flags buf ~pos
  | Runtime.Nats { width_bits; values } ->
    let pos = put_u8 buf pos kind_nats in
    let pos = put_u63 buf pos width_bits in
    let pos = put_u32 buf pos (Array.length values) in
    Codec.encode_nats_into ~width_bits values buf ~pos
  | Runtime.Tuples { moduli; rows } ->
    let pos = put_u8 buf pos kind_tuples in
    let pos = put_u16 buf pos (Array.length moduli) in
    let pos = ref pos in
    for j = 0 to Array.length moduli - 1 do
      pos := put_u63 buf !pos moduli.(j)
    done;
    pos := put_u32 buf !pos (Array.length rows);
    for i = 0 to Array.length rows - 1 do
      let row = rows.(i) in
      if Array.length row <> Array.length moduli then
        invalid_arg "Frame.encode: tuple row arity mismatch";
      for j = 0 to Array.length row - 1 do
        pos := Codec.encode_residue_into ~modulus:moduli.(j) row.(j) buf ~pos:!pos
      done
    done;
    !pos
  | Runtime.Batch payloads ->
    let pos = put_u8 buf pos kind_batch in
    let pos = put_u16 buf pos (List.length payloads) in
    List.fold_left (fun pos p -> put_payload buf pos p) pos payloads

let rec get_payload r =
  match get_u8 r with
  | k when k = kind_ints ->
    let modulus = get_u63 r in
    if modulus <= 1 then invalid_arg "Frame.decode: bad modulus";
    let count = get_u32 r in
    let body = get_bytes r (Codec.residue_bytes ~modulus * count) in
    Runtime.Ints { modulus; values = Codec.decode_residues ~modulus ~count body }
  | k when k = kind_floats ->
    let count = get_u32 r in
    Runtime.Floats (Codec.decode_floats ~count (get_bytes r (8 * count)))
  | k when k = kind_bits ->
    let count = get_u32 r in
    Runtime.Bits (Codec.decode_bitset ~count (get_bytes r ((count + 7) / 8)))
  | k when k = kind_nats ->
    let width_bits = get_u63 r in
    if width_bits < 1 then invalid_arg "Frame.decode: bad nat width";
    let count = get_count r ~entry_bytes:((width_bits + 7) / 8) in
    let body = get_bytes r ((width_bits + 7) / 8 * count) in
    Runtime.Nats { width_bits; values = Codec.decode_nats ~width_bits ~count body }
  | k when k = kind_tuples ->
    let arity = get_u16 r in
    let moduli = Array.init arity (fun _ -> get_u63 r) in
    Array.iter (fun m -> if m <= 1 then invalid_arg "Frame.decode: bad modulus") moduli;
    let row_bytes =
      Array.fold_left (fun acc modulus -> acc + Codec.residue_bytes ~modulus) 0 moduli
    in
    let count = get_count r ~entry_bytes:row_bytes in
    let rows =
      Array.init count (fun _ ->
          Array.map
            (fun modulus ->
              let body = get_bytes r (Codec.residue_bytes ~modulus) in
              (Codec.decode_residues ~modulus ~count:1 body).(0))
            moduli)
    in
    Runtime.Tuples { moduli; rows }
  | k when k = kind_batch ->
    let count = get_u16 r in
    Runtime.Batch (List.init count (fun _ -> get_payload r))
  | k -> invalid_arg (Printf.sprintf "Frame.decode: unknown payload kind %d" k)

let encode_into t buf ~pos =
  match t with
  | Hello { sender } ->
    let pos = put_u8 buf pos tag_hello in
    put_u16 buf pos sender
  | Data { round; seq; src; dst; payload } ->
    let pos = put_u8 buf pos tag_data in
    let pos = put_u32 buf pos round in
    let pos = put_u32 buf pos seq in
    let pos = put_u16 buf pos (party_code src) in
    let pos = put_u16 buf pos (party_code dst) in
    put_payload buf pos payload
  | End_of_round { round; sender; total; to_dst } ->
    let pos = put_u8 buf pos tag_eor in
    let pos = put_u32 buf pos round in
    let pos = put_u16 buf pos sender in
    let pos = put_u32 buf pos total in
    put_u32 buf pos to_dst
  | Nack { round; sender } ->
    let pos = put_u8 buf pos tag_nack in
    let pos = put_u32 buf pos round in
    put_u16 buf pos sender
  | Fin { sender } ->
    let pos = put_u8 buf pos tag_fin in
    put_u16 buf pos sender

let encode t =
  let buf = Bytes.create (encoded_length t) in
  let stop = encode_into t buf ~pos:0 in
  assert (stop = Bytes.length buf);
  buf

let decode body =
  let r = { body; pos = 0 } in
  let t =
    match get_u8 r with
    | k when k = tag_hello -> Hello { sender = get_u16 r }
    | k when k = tag_data ->
      let round = get_u32 r in
      let seq = get_u32 r in
      let src = party_of_code (get_u16 r) in
      let dst = party_of_code (get_u16 r) in
      Data { round; seq; src; dst; payload = get_payload r }
    | k when k = tag_eor ->
      let round = get_u32 r in
      let sender = get_u16 r in
      let total = get_u32 r in
      End_of_round { round; sender; total; to_dst = get_u32 r }
    | k when k = tag_nack ->
      let round = get_u32 r in
      Nack { round; sender = get_u16 r }
    | k when k = tag_fin -> Fin { sender = get_u16 r }
    | k -> invalid_arg (Printf.sprintf "Frame.decode: unknown tag %d" k)
  in
  if r.pos <> Bytes.length body then invalid_arg "Frame.decode: trailing bytes";
  t

let framed_length t = length_prefix_bytes + encoded_length t

let payload_length = function
  | Data { payload; _ } -> Runtime.payload_bits payload / 8
  | Hello _ | End_of_round _ | Nack _ | Fin _ -> 0
