module Nat = Spe_bignum.Nat

exception Malformed of string

(* No writer state, no closures: encoding a frame with an integer
   payload into a reused buffer allocates nothing at all (test_net pins
   this with a [Gc.minor_words] delta). *)
let put_u8 buf pos v =
  Bytes.set buf pos (Char.chr (v land 0xFF));
  pos + 1

let put_u16 buf pos v =
  if v < 0 || v > 0xFFFF then invalid_arg "Codec.put_u16: value out of range";
  let pos = put_u8 buf pos (v lsr 8) in
  put_u8 buf pos v

let put_u32 buf pos v =
  if v < 0 || v > 0xFFFF_FFFF then invalid_arg "Codec.put_u32: value out of range";
  let pos = put_u8 buf pos (v lsr 24) in
  let pos = put_u8 buf pos (v lsr 16) in
  let pos = put_u8 buf pos (v lsr 8) in
  put_u8 buf pos v

let put_u63 buf pos v =
  if v < 0 then invalid_arg "Codec.put_u63: value out of range";
  let pos = put_u32 buf pos (v lsr 32) in
  put_u32 buf pos (v land 0xFFFF_FFFF)

let put_f64 buf pos v =
  Bytes.set_int64_be buf pos (Int64.bits_of_float v);
  pos + 8

let put_bytes buf pos b =
  let n = Bytes.length b in
  let pos = put_u32 buf pos n in
  Bytes.blit b 0 buf pos n;
  pos + n

let alloc n encode_into =
  let buf = Bytes.create n in
  let stop = encode_into buf ~pos:0 in
  assert (stop = n);
  buf

(* A reader over the slice [buf.[pos .. limit - 1]]. *)
type reader = { buf : bytes; mutable pos : int; limit : int; what : string }

let malformed r msg = raise (Malformed (r.what ^ ": " ^ msg))

let read ~what buf off len f =
  if off < 0 || len < 0 || off > Bytes.length buf - len then
    invalid_arg (what ^ ": slice out of bounds");
  let r = { buf; pos = off; limit = off + len; what } in
  let v = f r in
  if r.pos <> r.limit then malformed r "trailing bytes";
  v

(* Claim the next [n] bytes and return where they start. *)
let take r n =
  let pos = r.pos in
  if n < 0 || n > r.limit - pos then malformed r "truncated";
  r.pos <- pos + n;
  pos

let get_u8 r = Bytes.get_uint8 r.buf (take r 1)
let get_u16 r = Bytes.get_uint16_be r.buf (take r 2)

let get_u32 r =
  let pos = take r 4 in
  (Bytes.get_uint16_be r.buf pos lsl 16) lor Bytes.get_uint16_be r.buf (pos + 2)

let get_u63 r =
  let hi = get_u32 r in
  (* The writers only emit nonnegative ints: the top two bits are 0. *)
  if hi > 0x3FFF_FFFF then malformed r "u63 out of range";
  (hi lsl 32) lor get_u32 r

let get_f64 r = Int64.float_of_bits (Bytes.get_int64_be r.buf (take r 8))

let get_bytes r =
  let n = get_u32 r in
  Bytes.sub r.buf (take r n) n

(* Checked before anything is allocated or multiplied for the count. *)
let check_count r count ~entry_bytes =
  let left = r.limit - r.pos in
  if count < 0 || (entry_bytes = 0 && count > 0) || (entry_bytes > 0 && count > left / entry_bytes)
  then malformed r "count exceeds the bytes left"

let get_count r get ~entry_bytes =
  let count = get r in
  check_count r count ~entry_bytes;
  count

let residue_bytes ~modulus = (Wire.bits_for_int_mod modulus + 7) / 8

let residue_out_of_range () = invalid_arg "Codec.encode_residues: value out of range"

(* Write [v] as [width] big-endian bytes at [pos].  Plain loop, no
   closure: this runs per value on the transport send path and must not
   allocate. *)
let put_residue ~width v buf pos =
  for j = 0 to width - 1 do
    Bytes.set buf (pos + j) (Char.chr ((v lsr (8 * (width - 1 - j))) land 0xFF))
  done

let encode_residue_into ~modulus v buf ~pos =
  let width = residue_bytes ~modulus in
  if v < 0 || v >= modulus then residue_out_of_range ();
  put_residue ~width v buf pos;
  pos + width

let encode_residues_into ~modulus values buf ~pos =
  (* [residue_bytes] walks the modulus's bits: once per payload. *)
  let width = residue_bytes ~modulus in
  let n = Array.length values in
  for i = 0 to n - 1 do
    let v = values.(i) in
    if v < 0 || v >= modulus then residue_out_of_range ();
    put_residue ~width v buf (pos + (i * width))
  done;
  pos + (width * n)

let residues_length ~modulus values =
  let width = residue_bytes ~modulus in
  Array.iter (fun v -> if v < 0 || v >= modulus then residue_out_of_range ()) values;
  width * Array.length values

let encode_residues ~modulus values =
  alloc (residue_bytes ~modulus * Array.length values) (encode_residues_into ~modulus values)

let residue_width r ~modulus =
  if modulus < 2 then malformed r "bad modulus";
  residue_bytes ~modulus

let get_modulus r =
  let modulus = get_u63 r in
  if modulus < 2 then malformed r "bad modulus";
  modulus

(* Inlined, and two bytes a load: it runs once per value of a received
   residue vector. *)
let[@inline] read_residue r ~modulus ~width pos =
  (* A modulus is at most [max_int] = 2^62 - 1, so an eight-byte
     residue's top two bits are clear; the shifts below would drop or
     misread them. *)
  if width = 8 && Bytes.get_uint8 r.buf pos land 0xC0 <> 0 then malformed r "residue out of range";
  let buf = r.buf and v = ref 0 and j = ref pos and stop = pos + width in
  while !j + 2 <= stop do
    v := (!v lsl 16) lor Bytes.get_uint16_be buf !j;
    j := !j + 2
  done;
  if !j < stop then v := (!v lsl 8) lor Bytes.get_uint8 buf !j;
  if !v >= modulus then malformed r "residue out of range";
  !v

let get_residue r ~modulus =
  let width = residue_width r ~modulus in
  read_residue r ~modulus ~width (take r width)

let get_residues r ~modulus ~count =
  let width = residue_width r ~modulus in
  check_count r count ~entry_bytes:width;
  let base = take r (width * count) in
  Array.init count (fun i -> read_residue r ~modulus ~width (base + (i * width)))

let encode_floats_into values buf ~pos = Array.fold_left (put_f64 buf) pos values

let encode_floats values = alloc (8 * Array.length values) (encode_floats_into values)

let get_floats r ~count =
  check_count r count ~entry_bytes:8;
  let base = take r (8 * count) in
  Array.init count (fun i -> Int64.float_of_bits (Bytes.get_int64_be r.buf (base + (8 * i))))

(* [ceil (width_bits / 8)], without overflow at any positive width. *)
let nat_bytes width_bits = ((width_bits - 1) / 8) + 1

let check_nats ~width_bits values =
  if width_bits < 1 then invalid_arg "Codec.encode_nats: width must be positive";
  Array.iter
    (fun v -> if Nat.bit_length v > width_bits then invalid_arg "Codec.encode_nats: value exceeds width")
    values

let nats_length ~width_bits values =
  check_nats ~width_bits values;
  nat_bytes width_bits * Array.length values

let encode_nats_into ~width_bits values buf ~pos =
  check_nats ~width_bits values;
  let width = nat_bytes width_bits in
  Array.iteri (fun i v -> Nat.blit_bytes_be v buf ~pos:(pos + (i * width)) ~len:width) values;
  pos + (width * Array.length values)

let encode_nats ~width_bits values =
  alloc (nats_length ~width_bits values) (encode_nats_into ~width_bits values)

let get_nats r ~width_bits ~count =
  if width_bits < 1 then malformed r "bad nat width";
  let width = nat_bytes width_bits in
  check_count r count ~entry_bytes:width;
  let base = take r (width * count) in
  (* The leading byte holds [width_bits - 8 * (width - 1)] value bits;
     any bit above them is a value the width cannot carry. *)
  let top_bits = width_bits - (8 * (width - 1)) in
  Array.init count (fun i ->
      let pos = base + (i * width) in
      if Bytes.get_uint8 r.buf pos lsr top_bits <> 0 then malformed r "value exceeds width";
      Nat.of_bytes_be r.buf ~pos ~len:width)

(* [ceil (count / 8)], without overflow at any count. *)
let bitset_bytes count = (count / 8) + if count land 7 = 0 then 0 else 1

let encode_bitset_into flags buf ~pos =
  let n = Array.length flags in
  let width = bitset_bytes n in
  Bytes.fill buf pos width '\000';
  Array.iteri
    (fun i flag ->
      if flag then begin
        let byte = pos + (i / 8) and bit = i mod 8 in
        Bytes.set buf byte (Char.chr (Char.code (Bytes.get buf byte) lor (1 lsl bit)))
      end)
    flags;
  pos + width

let encode_bitset flags = alloc (bitset_bytes (Array.length flags)) (encode_bitset_into flags)

let get_bitset r ~count =
  if count < 0 then malformed r "count exceeds the bytes left";
  let base = take r (bitset_bytes count) in
  if count land 7 <> 0 && Bytes.get_uint8 r.buf (base + (count / 8)) lsr (count land 7) <> 0 then
    malformed r "padding bits set";
  Array.init count (fun i -> Bytes.get_uint8 r.buf (base + (i / 8)) land (1 lsl (i mod 8)) <> 0)
