module Nat = Spe_bignum.Nat

let residue_bytes ~modulus = (Wire.bits_for_int_mod modulus + 7) / 8

let residue_out_of_range () = invalid_arg "Codec.encode_residues: value out of range"

(* Write [v] as [width] big-endian bytes at [pos].  Plain loop, no
   closure: this runs per value on the transport send path and must not
   allocate. *)
let put_residue ~width v buf pos =
  for j = 0 to width - 1 do
    Bytes.set buf (pos + j) (Char.chr ((v lsr (8 * (width - 1 - j))) land 0xFF))
  done

(* The [_into] variants write at [pos] in a caller-supplied buffer and
   return the end position: the zero-copy path used by [Spe_net.Frame]
   to fill transport send buffers in place. The allocating originals
   delegate to them. *)
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
  let buf = Bytes.create (residue_bytes ~modulus * Array.length values) in
  let _ = encode_residues_into ~modulus values buf ~pos:0 in
  buf

let decode_residues ~modulus ~count buf =
  let width = residue_bytes ~modulus in
  if Bytes.length buf <> width * count then invalid_arg "Codec.decode_residues: length mismatch";
  Array.init count (fun i ->
      let base = i * width in
      let v = ref 0 in
      for j = 0 to width - 1 do
        v := (!v lsl 8) lor Char.code (Bytes.get buf (base + j))
      done;
      if !v >= modulus then invalid_arg "Codec.decode_residues: residue out of range";
      !v)

let encode_floats_into values buf ~pos =
  Array.iteri
    (fun i v -> Bytes.set_int64_be buf (pos + (8 * i)) (Int64.bits_of_float v))
    values;
  pos + (8 * Array.length values)

let encode_floats values =
  let buf = Bytes.create (8 * Array.length values) in
  let _ = encode_floats_into values buf ~pos:0 in
  buf

let decode_floats ~count buf =
  if Bytes.length buf <> 8 * count then invalid_arg "Codec.decode_floats: length mismatch";
  Array.init count (fun i -> Int64.float_of_bits (Bytes.get_int64_be buf (8 * i)))

let check_nats ~width_bits values =
  if width_bits < 1 then invalid_arg "Codec.encode_nats: width must be positive";
  Array.iter
    (fun v -> if Nat.bit_length v > width_bits then invalid_arg "Codec.encode_nats: value exceeds width")
    values

let encode_nats_into ~width_bits values buf ~pos =
  check_nats ~width_bits values;
  let width = (width_bits + 7) / 8 in
  Array.iteri (fun i v -> Nat.blit_bytes_be v buf ~pos:(pos + (i * width)) ~len:width) values;
  pos + (width * Array.length values)

let encode_nats ~width_bits values =
  if width_bits < 1 then invalid_arg "Codec.encode_nats: width must be positive";
  let width = (width_bits + 7) / 8 in
  let buf = Bytes.create (width * Array.length values) in
  let _ = encode_nats_into ~width_bits values buf ~pos:0 in
  buf

let nats_length ~width_bits values =
  check_nats ~width_bits values;
  (width_bits + 7) / 8 * Array.length values

let decode_nats ~width_bits ~count buf =
  let width = (width_bits + 7) / 8 in
  if Bytes.length buf <> width * count then invalid_arg "Codec.decode_nats: length mismatch";
  Array.init count (fun i -> Nat.of_bytes_be buf ~pos:(i * width) ~len:width)

let encode_bitset_into flags buf ~pos =
  let n = Array.length flags in
  let width = (n + 7) / 8 in
  Bytes.fill buf pos width '\000';
  Array.iteri
    (fun i flag ->
      if flag then begin
        let byte = pos + (i / 8) and bit = i mod 8 in
        Bytes.set buf byte (Char.chr (Char.code (Bytes.get buf byte) lor (1 lsl bit)))
      end)
    flags;
  pos + width

let encode_bitset flags =
  let buf = Bytes.create ((Array.length flags + 7) / 8) in
  let _ = encode_bitset_into flags buf ~pos:0 in
  buf

let decode_bitset ~count buf =
  if Bytes.length buf <> (count + 7) / 8 then invalid_arg "Codec.decode_bitset: length mismatch";
  Array.init count (fun i -> Char.code (Bytes.get buf (i / 8)) land (1 lsl (i mod 8)) <> 0)
