(* xoshiro256** 1.0 (Blackman & Vigna), seeded via splitmix64.  The
   state must never be all-zero; splitmix64 seeding guarantees that
   with overwhelming probability and we additionally force a non-zero
   word.

   The four state words live unboxed in one 32-byte buffer, read and
   written with the unchecked 64-bit primitives, so a draw allocates
   nothing: a record of [int64] fields would box every word it stores.
   The words never leave the buffer, so its byte order is immaterial. *)

type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let splitmix64 state =
  let ( +% ) = Int64.add and ( *% ) = Int64.mul in
  let z = state +% 0x9E3779B97F4A7C15L in
  let z' = Int64.logxor z (Int64.shift_right_logical z 30) *% 0xBF58476D1CE4E5B9L in
  let z'' = Int64.logxor z' (Int64.shift_right_logical z' 27) *% 0x94D049BB133111EBL in
  (z, Int64.logxor z'' (Int64.shift_right_logical z'' 31))

let of_int64_seed seed =
  let k0, a = splitmix64 seed in
  let k1, b = splitmix64 k0 in
  let k2, c = splitmix64 k1 in
  let _, d = splitmix64 k2 in
  let d = if Int64.equal d 0L && Int64.equal a 0L && Int64.equal b 0L && Int64.equal c 0L
          then 1L else d in
  let t = Bytes.create 32 in
  set64 t 0 a;
  set64 t 8 b;
  set64 t 16 c;
  set64 t 24 d;
  t

let default_seed = 0x5345435245544956 (* "SECRETIV" *)

let create ?(seed = default_seed) () = of_int64_seed (Int64.of_int seed)

let copy = Bytes.copy

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* The state transition.  It returns nothing, so nothing is boxed; each
   caller applies the scrambler to the s1 it read first. *)
let[@inline] advance t =
  let s0 = get64 t 0 and s1 = get64 t 8 and s2 = get64 t 16 and s3 = get64 t 24 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  set64 t 0 (Int64.logxor s0 s3);
  set64 t 8 (Int64.logxor s1 s2);
  set64 t 16 (Int64.logxor s2 (Int64.shift_left s1 17));
  set64 t 24 (rotl s3 45)

let[@inline] scramble s1 = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L

let next_int64 t =
  let s1 = get64 t 8 in
  advance t;
  scramble s1

(* The next output's top [k] bits, 1 <= k <= 62, as a non-negative
   int: every draw but [next_int64] goes through here unboxed. *)
let top t k =
  let s1 = get64 t 8 in
  advance t;
  Int64.to_int (Int64.shift_right_logical (scramble s1) (64 - k))

let split t = of_int64_seed (next_int64 t)

(* Rejection sampling over [limit], a multiple of [bound] below 2^62. *)
let rec below t bound limit =
  let v = top t 62 in
  if v < limit then v mod bound else below t bound limit

(* Bounds of 2^61 and more, where [limit] would be 0: reject a draw
   whose bucket [v - v mod bound, v - v mod bound + bound) runs past
   2^62 - 1.  At bound = 2^61 both buckets fit and no draw is
   rejected. *)
let rec below_wide t bound =
  let v = top t 62 in
  let r = v mod bound in
  if v - r > max_int - bound + 1 then below_wide t bound else r

let next_int t bound =
  if bound <= 0 then invalid_arg "Spe_rng.State.next_int: bound must be positive";
  let limit = (max_int / 2 / bound) * bound * 2 in
  if limit = 0 then below_wide t bound else below t bound limit

let next_float t = float_of_int (top t 53) *. 0x1p-53

let next_bool t = top t 1 = 1

let next_bits t k =
  if k < 0 || k > 62 then invalid_arg "Spe_rng.State.next_bits: k must be in [0, 62]";
  if k = 0 then 0 else top t k
