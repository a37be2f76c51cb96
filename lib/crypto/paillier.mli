(** The Paillier cryptosystem: probabilistic, additively homomorphic
    public-key encryption.

    The paper's Protocol 6 only needs plain public-key encryption (RSA
    suffices), but its related-work section points at homomorphic
    schemes as the tool for field-style secure division; Paillier is
    included both as the probabilistic alternative to textbook RSA and
    as the substrate for the homomorphic-aggregation extension
    exercised in the examples: providers can sum encrypted counters
    under the host's key without decrypting.

    Keys use the standard simplification [g = n + 1], so encryption is
    [c = (1 + m*n) * r^n mod n^2] and decryption uses
    [L(x) = (x - 1) / n] with [L(c^lambda mod n^2) * mu mod n].

    Two hot-path accelerations, both measured in the bench and derived
    in PERFORMANCE.md:
    - {!decryptor} splits decryption over [p^2] and [q^2] (CRT): two
      exponentiations with quarter-length exponents on half-width
      operands, recombined with Garner's formula.
    - {!encryptor} replaces the per-call [r^n] (a fresh-base
      exponentiation) with [h^s] for a per-key n-th residue
      [h = r0^n], evaluated through a {!Spe_bignum.Fixed_base} window
      table — no squarings on the per-encryption path. *)

type crt = {
  p : Spe_bignum.Nat.t;
  q : Spe_bignum.Nat.t;
  p_squared : Spe_bignum.Nat.t;
  q_squared : Spe_bignum.Nat.t;
  hp : Spe_bignum.Nat.t;  (** [((p - 1) * q)^-1 mod p]. *)
  hq : Spe_bignum.Nat.t;  (** [((q - 1) * p)^-1 mod q]. *)
  qinv : Spe_bignum.Nat.t;  (** [q^-1 mod p], Garner's constant. *)
}
(** The precomputed CRT decryption constants. *)

type public = { n : Spe_bignum.Nat.t; n_squared : Spe_bignum.Nat.t }

type secret = {
  n : Spe_bignum.Nat.t;
  n_squared : Spe_bignum.Nat.t;
  lambda : Spe_bignum.Nat.t;
  mu : Spe_bignum.Nat.t;
  crt : crt option;
      (** CRT constants when the factorisation is known ([None] falls
          back to the single full-size exponentiation). *)
}

type keypair = { public : public; secret : secret }

exception Key_too_small of { key_bits : int; plain_bits : int }
(** Raised by {!generate} when the requested modulus cannot hold the
    configured plaintext width without wrapping.  The {e same}
    exception as {!Rsa.Key_too_small} (a rebinding), so callers going
    through the {!Cipher} facade can match one constructor for either
    scheme. *)

val generate : ?plain_bits:int -> Spe_rng.State.t -> bits:int -> keypair
(** [generate st ~bits] builds a keypair whose modulus has exactly
    [bits] bits from two primes of [bits/2] bits each, redrawn until
    the product has full width and [gcd(n, (p-1)(q-1)) = 1]
    (guaranteed for same-size primes).

    [?plain_bits] declares the widest plaintext the caller intends to
    encrypt (e.g. a packed counter batch); since a Paillier plaintext
    must be below [n], the call raises {!Key_too_small} unless
    [plain_bits <= bits - 1] — a typed error at key-generation time
    instead of silently wrapping ciphertexts later. *)

val encrypt : Spe_rng.State.t -> public -> Spe_bignum.Nat.t -> Spe_bignum.Nat.t
(** Probabilistic encryption: fresh randomness per call.  Raises
    [Invalid_argument] if the plaintext is [>= n]. *)

val encryptor :
  ?fixed_base:bool -> Spe_rng.State.t -> public -> Spe_bignum.Nat.t -> Spe_bignum.Nat.t
(** [encryptor st pk] is a closure encrypting many plaintexts under
    one key, with the Montgomery context hoisted out of the per-call
    path and (by default) the per-key fixed-base window table for the
    randomness: the closure draws [r0] once, sets [h = r0^n mod n^2],
    and each call uses fresh randomness [h^s = (r0^s)^n] for a
    uniformly drawn [s] — a standard n-th-residue re-randomisation
    that preserves the ciphertext distribution.  [~fixed_base:false]
    keeps the textbook per-call [r^n] (the bench's ablation switch).

    Note the closure draws from [st] at {e construction} time when
    [fixed_base] is on ([r0] plus the table build), so the two modes
    consume the RNG stream differently. *)

val decrypt : secret -> Spe_bignum.Nat.t -> Spe_bignum.Nat.t
(** [decrypt sk c] recovers the plaintext, via the CRT split when
    [sk.crt] is present. *)

val decryptor : ?crt:bool -> secret -> Spe_bignum.Nat.t -> Spe_bignum.Nat.t
(** [decryptor sk] is {!decrypt}[ sk] with the Montgomery contexts
    hoisted out of the per-call path.  [~crt:false] forces the
    full-size [c^lambda mod n^2] even when the CRT constants are
    available — the switch behind the bench's CRT ablation. *)

val add : public -> Spe_bignum.Nat.t -> Spe_bignum.Nat.t -> Spe_bignum.Nat.t
(** Homomorphic addition: [decrypt (add pk c1 c2) = m1 + m2 mod n]. *)

val mul_plain : public -> Spe_bignum.Nat.t -> Spe_bignum.Nat.t -> Spe_bignum.Nat.t
(** Homomorphic plaintext multiplication:
    [decrypt (mul_plain pk c k) = k * m mod n]. *)

val ciphertext_bits : public -> int
(** Ciphertexts live modulo [n^2]: twice the modulus size. *)
