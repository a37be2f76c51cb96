(** Byte-level message encoding.

    The wire statistics of Sec. 7.1 are only as credible as the sizes
    declared on the wire, so this module provides the actual encodings
    and the tests assert that every size formula used by the protocols
    (and hence by the Table 1/2 models) matches the length of a real
    encoded payload, rounded up to whole bits of the stated width.

    Encodings are deliberately plain: fixed-width big-endian residues
    for modular values, IEEE 754 doubles for reals, fixed-width
    naturals for ciphertexts.

    Every encoder has an [_into] variant that writes at a caller-given
    position in an existing buffer and returns the end position — the
    zero-copy path [Spe_net.Frame.encode_into] uses to fill transport
    send buffers in place (allocation-free for integer payloads; the
    allocating originals delegate to them). *)

val residue_bytes : modulus:int -> int
(** Bytes needed for one residue: [ceil(bits_for_int_mod modulus / 8)]. *)

val encode_residues : modulus:int -> int array -> bytes
(** Fixed-width big-endian encoding of a residue vector.  Raises
    [Invalid_argument] on out-of-range entries. *)

val encode_residues_into : modulus:int -> int array -> bytes -> pos:int -> int
(** [encode_residues_into ~modulus values buf ~pos] writes the same
    encoding at [pos] and returns the position one past the last byte
    written.  The caller guarantees capacity
    ([residue_bytes * length]). *)

val encode_residue_into : modulus:int -> int -> bytes -> pos:int -> int
(** Single-value form of {!encode_residues_into}: no array wrapper, no
    allocation (the [Tuples] frame path). *)

val residues_length : modulus:int -> int array -> int
(** [Bytes.length (encode_residues ~modulus values)], computed without
    encoding.  Raises the encoder's [Invalid_argument] on a modulus
    below 2 or an out-of-range entry. *)

val decode_residues : modulus:int -> count:int -> bytes -> int array
(** Inverse; raises [Invalid_argument] on a length mismatch or a
    residue outside [0, modulus). *)

val encode_floats : float array -> bytes
(** 8 bytes per value, IEEE 754 binary64 big-endian. *)

val encode_floats_into : float array -> bytes -> pos:int -> int
(** In-place variant of {!encode_floats}; returns the end position. *)

val decode_floats : count:int -> bytes -> float array

val encode_nats : width_bits:int -> Spe_bignum.Nat.t array -> bytes
(** Each value in [ceil(width_bits / 8)] big-endian bytes — the
    ciphertext encoding ([width_bits] = the scheme's [z]).  Raises
    [Invalid_argument] if a value exceeds the width. *)

val encode_nats_into : width_bits:int -> Spe_bignum.Nat.t array -> bytes -> pos:int -> int
(** In-place variant of {!encode_nats}; returns the end position. *)

val nats_length : width_bits:int -> Spe_bignum.Nat.t array -> int
(** [Bytes.length (encode_nats ~width_bits values)], computed without
    encoding.  Raises the encoder's [Invalid_argument] on a width below
    1 or a value wider than [width_bits]. *)

val decode_nats : width_bits:int -> count:int -> bytes -> Spe_bignum.Nat.t array
(** Inverse; raises [Invalid_argument] on a length mismatch or a value
    wider than [width_bits] — exactly what the encoder refuses. *)

val encode_bitset : bool array -> bytes
(** One bit per flag, padded to a whole byte — the Protocol 2 verdict
    vector. *)

val encode_bitset_into : bool array -> bytes -> pos:int -> int
(** In-place variant of {!encode_bitset}; returns the end position. *)

val decode_bitset : count:int -> bytes -> bool array
