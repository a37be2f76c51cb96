(* Word-level Montgomery multiplication (CIOS) over Nat's base-2^30
   limbs, and fixed-window exponentiation on top of it.

   Every product is one fused CIOS pass into a caller-supplied k-limb
   destination through a (k + 1)-limb scratch.  Each step's sum fits
   the 63-bit native int: t_j + a_i * b_j + m * n_j + carry
   <= 2^30 + 2 * (2^30 - 1)^2 + 2^32 < 2^62.  The loops index without
   bounds checks; each entry point checks widths once.  Scratch is
   allocated per call and never stored in the context, so a context
   (and every closure holding one) is safe to share across threads. *)

let limb_bits = Nat.limb_bits
let limb_mask = (1 lsl limb_bits) - 1

external ( .!() ) : int array -> int -> int = "%array_unsafe_get"
external ( .!()<- ) : int array -> int -> int -> unit = "%array_unsafe_set"

type t = {
  modulus : Nat.t;
  n : int array;  (* modulus limbs, width k *)
  k : int;
  n0_inv : int;  (* -modulus^-1 mod 2^limb_bits *)
  r2 : int array;  (* R^2 mod modulus, width k *)
  one_mont : int array;  (* R mod modulus, width k *)
  unit : int array;  (* plain 1, width k: multiplying by it leaves Montgomery form *)
}

let modulus ctx = ctx.modulus
let width ctx = ctx.k
let scratch ctx = Array.make (ctx.k + 1) 0

(* Inverse of an odd limb modulo 2^limb_bits by Newton iteration:
   each step doubles the number of correct low bits. *)
let inv_limb m0 =
  let inv = ref m0 in
  for _ = 1 to 6 do
    inv := !inv * (2 - (m0 * !inv)) land limb_mask
  done;
  !inv land limb_mask

(* dst <- a * b * R^-1 mod modulus, for a < R and b < modulus.  [t]
   holds k + 1 limbs; [a], [b] and [dst] hold k (no check here: see
   [mul_into]).  [dst] may alias [a] or [b], since it is written only
   after the last read. *)
let cios ctx t a b dst =
  let k = ctx.k and n = ctx.n and n0_inv = ctx.n0_inv in
  Array.fill t 0 (k + 1) 0;
  for i = 0 to k - 1 do
    let ai = a.!(i) in
    (* m makes t + ai * b + m * modulus divisible by the base, so the
       sum is written one limb down as it is formed. *)
    let s = t.!(0) + (ai * b.!(0)) in
    let m = (s land limb_mask) * n0_inv land limb_mask in
    let c = ref ((s + (m * n.!(0))) lsr limb_bits) in
    for j = 1 to k - 1 do
      let s = t.!(j) + (ai * b.!(j)) + (m * n.!(j)) + !c in
      t.!(j - 1) <- s land limb_mask;
      c := s lsr limb_bits
    done;
    let s = t.!(k) + !c in
    t.!(k - 1) <- s land limb_mask;
    t.!(k) <- s lsr limb_bits
  done;
  (* t < b + modulus < 2 * modulus: subtract the modulus at most once. *)
  let ge =
    t.!(k) <> 0
    ||
    let j = ref (k - 1) in
    while !j >= 0 && t.!(!j) = n.!(!j) do
      decr j
    done;
    !j < 0 || t.!(!j) > n.!(!j)
  in
  if ge then begin
    let borrow = ref 0 in
    for j = 0 to k - 1 do
      let d = t.!(j) - n.!(j) - !borrow in
      dst.!(j) <- d land limb_mask;
      borrow := -(d asr limb_bits)
    done
  end
  else Array.blit t 0 dst 0 k

let mul_into ctx t a b dst =
  let k = ctx.k in
  if Array.length t < k + 1 || Array.length a < k || Array.length b < k || Array.length dst < k
  then invalid_arg "Montgomery.mul_into: operand narrower than the modulus";
  cios ctx t a b dst

let create modulus =
  if Nat.is_even modulus || Nat.compare modulus (Nat.of_int 3) < 0 then
    invalid_arg "Montgomery.create: modulus must be odd and >= 3";
  let k = Nat.num_limbs modulus in
  let n = Nat.to_limbs modulus ~width:k in
  let n0_inv = limb_mask land ((1 lsl limb_bits) - inv_limb n.(0)) in
  let r = Nat.shift_left Nat.one (limb_bits * k) in
  let r2 = Nat.to_limbs (Nat.rem (Nat.mul r r) modulus) ~width:k in
  let one_mont = Nat.to_limbs (Nat.rem r modulus) ~width:k in
  let unit = Nat.to_limbs Nat.one ~width:k in
  { modulus; n; k; n0_inv; r2; one_mont; unit }

(* x (reduced first) into a fresh Montgomery-form limb array. *)
let to_mont_into ctx t x =
  let a = Nat.to_limbs (Nat.rem x ctx.modulus) ~width:ctx.k in
  cios ctx t a ctx.r2 a;
  a

let of_mont_into ctx t a =
  cios ctx t a ctx.unit a;
  Nat.of_limbs a

let to_mont ctx x = Nat.of_limbs (to_mont_into ctx (scratch ctx) x)
let of_mont ctx x = of_mont_into ctx (scratch ctx) (Nat.to_limbs x ~width:ctx.k)

let mul ctx a b =
  let a = Nat.to_limbs a ~width:ctx.k and b = Nat.to_limbs b ~width:ctx.k in
  cios ctx (scratch ctx) a b a;
  Nat.of_limbs a

(* Fixed-window digit width for an exponent of [bits] bits: a w-bit
   window costs 2^w - 2 table products up front and saves about
   bits * (1/2 - 1/w) products on the ladder.  RSA's 17-bit public
   exponent stays binary; CRT halves and Miller-Rabin witnesses up to
   512 bits take 4-bit digits, wider exponents 5-bit ones. *)
let window_bits bits = if bits <= 32 then 1 else if bits <= 512 then 4 else 5

let pow ctx ~base ~exp =
  let bits = Nat.bit_length exp in
  if bits = 0 then Nat.one (* the modulus is >= 3 *)
  else begin
    let k = ctx.k in
    let t = scratch ctx in
    let w = window_bits bits in
    (* table.(d - 1) = base^d in Montgomery form, d in [1, 2^w). *)
    let table = Array.make ((1 lsl w) - 1) [||] in
    table.(0) <- to_mont_into ctx t base;
    for d = 1 to Array.length table - 1 do
      let e = Array.make k 0 in
      cios ctx t table.(d - 1) table.(0) e;
      table.(d) <- e
    done;
    (* Left to right: the top digit holds the top bit, so it is not
       zero and seeds the accumulator. *)
    let top = (bits - 1) / w in
    let acc = Array.copy table.(Nat.bits exp ~pos:(top * w) ~len:w - 1) in
    for i = top - 1 downto 0 do
      for _ = 1 to w do
        cios ctx t acc acc acc
      done;
      let d = Nat.bits exp ~pos:(i * w) ~len:w in
      if d > 0 then cios ctx t acc table.(d - 1) acc
    done;
    of_mont_into ctx t acc
  end

(* Limb-level access for the sibling [Fixed_base] module. *)
let one_mont_limbs ctx = Array.copy ctx.one_mont
let to_mont_limbs ctx x = to_mont_into ctx (scratch ctx) x
let of_mont_limbs ctx a = of_mont_into ctx (scratch ctx) a
