module Wire = Spe_mpc.Wire
module Runtime = Spe_mpc.Runtime
module Codec = Spe_mpc.Codec

type t =
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

(* Tags.  0 was the retired socket rendezvous Hello; it now decodes as
   an unknown tag. *)
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
    List.fold_left
      (fun acc p -> acc + payload_encoded_length (Runtime.batch_part p))
      (1 + 2) payloads

let encoded_length = function
  | Data { payload; _ } -> 1 + 4 + 4 + 2 + 2 + payload_encoded_length payload
  | End_of_round _ -> 1 + 4 + 2 + 4 + 4
  | Nack _ -> 1 + 4 + 2
  | Fin _ -> 1 + 2

let rec put_payload buf pos = function
  | Runtime.Ints { modulus; values } ->
    let pos = Codec.put_u8 buf pos kind_ints in
    let pos = Codec.put_u63 buf pos modulus in
    let pos = Codec.put_u32 buf pos (Array.length values) in
    Codec.encode_residues_into ~modulus values buf ~pos
  | Runtime.Floats values ->
    let pos = Codec.put_u8 buf pos kind_floats in
    let pos = Codec.put_u32 buf pos (Array.length values) in
    Codec.encode_floats_into values buf ~pos
  | Runtime.Bits flags ->
    let pos = Codec.put_u8 buf pos kind_bits in
    let pos = Codec.put_u32 buf pos (Array.length flags) in
    Codec.encode_bitset_into flags buf ~pos
  | Runtime.Nats { width_bits; values } ->
    let pos = Codec.put_u8 buf pos kind_nats in
    let pos = Codec.put_u63 buf pos width_bits in
    let pos = Codec.put_u32 buf pos (Array.length values) in
    Codec.encode_nats_into ~width_bits values buf ~pos
  | Runtime.Tuples { moduli; rows } ->
    let pos = Codec.put_u8 buf pos kind_tuples in
    let pos = Codec.put_u16 buf pos (Array.length moduli) in
    let pos = ref pos in
    for j = 0 to Array.length moduli - 1 do
      pos := Codec.put_u63 buf !pos moduli.(j)
    done;
    pos := Codec.put_u32 buf !pos (Array.length rows);
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
    let pos = Codec.put_u8 buf pos kind_batch in
    let pos = Codec.put_u16 buf pos (List.length payloads) in
    List.fold_left (fun pos p -> put_payload buf pos (Runtime.batch_part p)) pos payloads

let rec get_payload ~batched r =
  match Codec.get_u8 r with
  | k when k = kind_ints ->
    let modulus = Codec.get_u63 r in
    let count = Codec.get_u32 r in
    Runtime.Ints { modulus; values = Codec.get_residues r ~modulus ~count }
  | k when k = kind_floats -> Runtime.Floats (Codec.get_floats r ~count:(Codec.get_u32 r))
  | k when k = kind_bits -> Runtime.Bits (Codec.get_bitset r ~count:(Codec.get_u32 r))
  | k when k = kind_nats ->
    let width_bits = Codec.get_u63 r in
    let count = Codec.get_u32 r in
    Runtime.Nats { width_bits; values = Codec.get_nats r ~width_bits ~count }
  | k when k = kind_tuples ->
    let arity = Codec.get_u16 r in
    let moduli = Array.init arity (fun _ -> Codec.get_modulus r) in
    let row_bytes =
      Array.fold_left (fun acc modulus -> acc + Codec.residue_bytes ~modulus) 0 moduli
    in
    let count = Codec.get_count r Codec.get_u32 ~entry_bytes:row_bytes in
    let rows =
      Array.init count (fun _ -> Array.map (fun modulus -> Codec.get_residue r ~modulus) moduli)
    in
    Runtime.Tuples { moduli; rows }
  | k when k = kind_batch ->
    if batched then Codec.malformed r "a batch inside a batch";
    (* Every part takes at least a kind byte and a u32 count. *)
    let count = Codec.get_count r Codec.get_u16 ~entry_bytes:5 in
    Runtime.Batch (List.init count (fun _ -> get_payload ~batched:true r))
  | k -> Codec.malformed r (Printf.sprintf "unknown payload kind %d" k)

let encode_into t buf ~pos =
  match t with
  | Data { round; seq; src; dst; payload } ->
    let pos = Codec.put_u8 buf pos tag_data in
    let pos = Codec.put_u32 buf pos round in
    let pos = Codec.put_u32 buf pos seq in
    let pos = Codec.put_u16 buf pos (party_code src) in
    let pos = Codec.put_u16 buf pos (party_code dst) in
    put_payload buf pos payload
  | End_of_round { round; sender; total; to_dst } ->
    let pos = Codec.put_u8 buf pos tag_eor in
    let pos = Codec.put_u32 buf pos round in
    let pos = Codec.put_u16 buf pos sender in
    let pos = Codec.put_u32 buf pos total in
    Codec.put_u32 buf pos to_dst
  | Nack { round; sender } ->
    let pos = Codec.put_u8 buf pos tag_nack in
    let pos = Codec.put_u32 buf pos round in
    Codec.put_u16 buf pos sender
  | Fin { sender } ->
    let pos = Codec.put_u8 buf pos tag_fin in
    Codec.put_u16 buf pos sender

let encode t = Codec.alloc (encoded_length t) (encode_into t)

let get_frame r =
  match Codec.get_u8 r with
  | k when k = tag_data ->
    let round = Codec.get_u32 r in
    let seq = Codec.get_u32 r in
    let src = party_of_code (Codec.get_u16 r) in
    let dst = party_of_code (Codec.get_u16 r) in
    Data { round; seq; src; dst; payload = get_payload ~batched:false r }
  | k when k = tag_eor ->
    let round = Codec.get_u32 r in
    let sender = Codec.get_u16 r in
    let total = Codec.get_u32 r in
    End_of_round { round; sender; total; to_dst = Codec.get_u32 r }
  | k when k = tag_nack ->
    let round = Codec.get_u32 r in
    Nack { round; sender = Codec.get_u16 r }
  | k when k = tag_fin -> Fin { sender = Codec.get_u16 r }
  | k -> Codec.malformed r (Printf.sprintf "unknown tag %d" k)

let decode body = Codec.read ~what:"Frame.decode" body 0 (Bytes.length body) get_frame

let framed_length t = length_prefix_bytes + encoded_length t

let payload_length = function
  | Data { payload; _ } -> Runtime.payload_bits payload / 8
  | End_of_round _ | Nack _ | Fin _ -> 0
