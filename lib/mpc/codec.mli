(** Byte-level message encoding: the one codec under every byte that
    crosses a wire.

    The wire statistics of Sec. 7.1 are only as credible as the sizes
    declared on the wire, so this module provides the actual encodings
    and the tests assert that every size formula used by the protocols
    (and hence by the Table 1/2 models) matches the length of a real
    encoded payload, rounded up to whole bits of the stated width.

    Encodings are deliberately plain: fixed-width big-endian residues
    for modular values, IEEE 754 doubles for reals, fixed-width
    naturals for ciphertexts.  The byte writers and the bounded reader
    below are the only ones: [Spe_net.Frame] and
    [Spe_serve.Serve_proto] hold just their frame layouts.

    A decoder fails on bytes from outside the program only with
    {!Malformed}.  [Invalid_argument] is a caller error: a value an
    encoder cannot write, or slice bounds outside the buffer. *)

exception Malformed of string
(** Truncated input, a count the bytes left cannot hold, a value out of
    range, an unknown tag or trailing bytes; the message names the
    decoder and the fault. *)

(** {1 Writers}

    [put_* buf pos v] writes at [pos] and returns the position one past
    the last byte written; the caller guarantees capacity.  Big-endian
    throughout, allocation-free, and [Invalid_argument] on a value the
    width cannot hold. *)

val put_u8 : bytes -> int -> int -> int
(** The low 8 bits of the value. *)

val put_u16 : bytes -> int -> int -> int
val put_u32 : bytes -> int -> int -> int

val put_u63 : bytes -> int -> int -> int
(** A nonnegative int in 8 bytes. *)

val put_f64 : bytes -> int -> float -> int
(** The IEEE 754 bits: floats survive bit for bit. *)

val put_bytes : bytes -> int -> bytes -> int
(** A u32 length, then the bytes. *)

val alloc : int -> (bytes -> pos:int -> int) -> bytes
(** [alloc n encode_into]: an [n]-byte buffer filled by
    [encode_into buf ~pos:0], which must write exactly [n] bytes. *)

(** {1 The bounded reader} *)

type reader

val read : what:string -> bytes -> int -> int -> (reader -> 'a) -> 'a
(** [read ~what buf off len f] runs [f] on a reader over
    [buf.[off .. off + len - 1]], refusing any byte [f] leaves unread;
    [what] names the decoder in every {!Malformed}.  Raises
    [Invalid_argument] if the slice is outside [buf]. *)

val malformed : reader -> string -> 'a

val get_u8 : reader -> int
val get_u16 : reader -> int
val get_u32 : reader -> int
val get_u63 : reader -> int
val get_f64 : reader -> float

val get_bytes : reader -> bytes
(** {!put_bytes}'s encoding, copied out of the slice. *)

val get_count : reader -> (reader -> int) -> entry_bytes:int -> int
(** [get_count r get ~entry_bytes] reads a count with [get] and refuses
    one the bytes left cannot hold at [entry_bytes] per entry, before
    the caller allocates for it.  Only 0 passes when [entry_bytes = 0]. *)

val get_modulus : reader -> int
(** A u63 residue modulus of at least 2. *)

(** {1 Vectors}

    The [get_] readers read straight from the slice and check their
    count, width or modulus first: on any arguments they return a
    value or raise {!Malformed}. *)

val residue_bytes : modulus:int -> int
(** Bytes needed for one residue: [ceil(bits_for_int_mod modulus / 8)]. *)

val encode_residues : modulus:int -> int array -> bytes
(** Raises [Invalid_argument] on an entry outside [[0, modulus)]. *)

val encode_residues_into : modulus:int -> int array -> bytes -> pos:int -> int
(** The same encoding at [pos], returning the end position: the
    zero-copy path of [Spe_net.Frame.encode_into]. *)

val encode_residue_into : modulus:int -> int -> bytes -> pos:int -> int
(** One value, no array (the [Tuples] frame path). *)

val residues_length : modulus:int -> int array -> int
(** [Bytes.length (encode_residues ~modulus values)], computed without
    encoding but with the encoder's checks. *)

val get_residue : reader -> modulus:int -> int
val get_residues : reader -> modulus:int -> count:int -> int array

val encode_floats : float array -> bytes
val encode_floats_into : float array -> bytes -> pos:int -> int
val get_floats : reader -> count:int -> float array

val encode_nats : width_bits:int -> Spe_bignum.Nat.t array -> bytes
(** Each value in [ceil(width_bits / 8)] bytes — the ciphertext
    encoding ([width_bits] = the scheme's [z]).  Raises
    [Invalid_argument] on a width below 1 or a value wider than it. *)

val encode_nats_into : width_bits:int -> Spe_bignum.Nat.t array -> bytes -> pos:int -> int

val nats_length : width_bits:int -> Spe_bignum.Nat.t array -> int
(** [Bytes.length (encode_nats ~width_bits values)], with its checks. *)

val get_nats : reader -> width_bits:int -> count:int -> Spe_bignum.Nat.t array
(** Refuses a value wider than [width_bits], as the encoder does. *)

val encode_bitset : bool array -> bytes
(** One bit per flag, padded to a whole byte — the Protocol 2 verdict
    vector. *)

val encode_bitset_into : bool array -> bytes -> pos:int -> int
val get_bitset : reader -> count:int -> bool array
(** Refuses set padding bits, which the encoder never writes. *)
