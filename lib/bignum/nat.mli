(** Arbitrary-precision natural numbers.

    The container ships no Zarith, and Protocol 6 needs a public-key
    cryptosystem over 1024-bit (and larger) integers, so this module
    implements naturals from scratch: little-endian arrays of base-2^30
    limbs (limb products fit in OCaml's 63-bit native [int]).  Values
    are immutable and normalised — no trailing zero limbs; zero is the
    empty array.

    Complexity: addition/subtraction are linear; multiplication is
    schoolbook below {!karatsuba_threshold} limbs and Karatsuba above;
    division is Knuth's Algorithm D; [mod_pow] is left-to-right binary
    exponentiation with full reduction per step. *)

type t

val zero : t
val one : t
val two : t

val of_int : int -> t
(** Raises [Invalid_argument] on negative input. *)

val to_int : t -> int option
(** [None] if the value exceeds [max_int]. *)

val to_int_exn : t -> int
(** Raises [Failure] if the value exceeds [max_int]. *)

val of_string : string -> t
(** Decimal digits, raises [Invalid_argument] on anything else. *)

val to_string : t -> string
(** Decimal representation without leading zeros. *)

val of_hex : string -> t
(** Hexadecimal digits (no [0x] prefix), case-insensitive. *)

val to_hex : t -> string
(** Lowercase hexadecimal without leading zeros. *)

val pp : Format.formatter -> t -> unit

val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool
val is_one : t -> bool
val is_even : t -> bool

val add : t -> t -> t

val sub : t -> t -> t
(** Raises [Invalid_argument] if the result would be negative. *)

val mul : t -> t -> t

val karatsuba_threshold : int
(** Limb count above which {!mul} switches to Karatsuba. *)

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r] and [0 <= r < b].
    Raises [Division_by_zero] if [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val rem_small : t -> int -> int
(** [rem_small a d] is [a mod d] as a native [int], read off the limbs
    without allocating.  Raises [Invalid_argument] unless
    [0 < d < 2^30]. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val bit_length : t -> int
(** Number of significant bits; [bit_length zero = 0]. *)

val test_bit : t -> int -> bool
(** [test_bit a i] is bit [i] (little-endian). *)

val num_limbs : t -> int
(** Limbs in the normalised representation ([0] for zero). *)

val succ : t -> t
val pred : t -> t
(** [pred zero] raises [Invalid_argument]. *)

val gcd : t -> t -> t

val lcm : t -> t -> t
(** Least common multiple; [lcm x zero = zero]. *)

val isqrt : t -> t
(** Integer square root: the largest [r] with [r * r <= n] (Newton's
    method). *)

val is_square : t -> bool

val pow : t -> int -> t
(** Plain integer power; raises [Invalid_argument] on negative
    exponents. *)

val mod_pow : base:t -> exp:t -> modulus:t -> t
(** [mod_pow ~base ~exp ~modulus] is [base^exp mod modulus].  Raises
    [Division_by_zero] if [modulus] is zero; [mod_pow _ _ one = zero]. *)

val random_bits : Spe_rng.State.t -> int -> t
(** Uniform value with at most the given number of bits. *)

val random_below : Spe_rng.State.t -> t -> t
(** Uniform on [[0, bound)]; raises [Invalid_argument] on zero bound. *)

val random_bits_exact : Spe_rng.State.t -> int -> t
(** Uniform value of exactly the given bit length (top bit forced). *)

val of_bytes_be : bytes -> pos:int -> len:int -> t
(** The unsigned big-endian value of the [len] bytes at [pos], built
    limb by limb.  Raises [Invalid_argument] if the range is out of
    bounds. *)

val blit_bytes_be : t -> bytes -> pos:int -> len:int -> unit
(** [blit_bytes_be a buf ~pos ~len] writes [a] big-endian, zero-padded,
    into the [len] bytes at [pos].  Raises [Invalid_argument] if the
    range is out of bounds or [a] needs more than [8 * len] bits. *)

(**/**)

(* Limb-level access for the sibling [Montgomery] module: little-endian
   base-2^30 limbs.  Not part of the public API. *)
val limb_bits : int

val bits : t -> pos:int -> len:int -> int
(** [bits a ~pos ~len] is the [len]-bit field of [a] that starts at bit
    [pos] (little-endian), read from at most two limbs; the windowed
    exponentiations' digit reader.  Requires [0 <= len <= limb_bits]. *)

val to_limbs : t -> width:int -> int array
(** Copy into a zero-padded array of exactly [width] limbs; raises
    [Invalid_argument] if the value needs more. *)

val of_limbs : int array -> t
(** Normalising constructor (copies). *)

(**/**)
