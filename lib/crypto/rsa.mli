(** Textbook RSA over {!Spe_bignum}.

    Protocol 6 has the host [H] publish a public key; providers encrypt
    their per-action time-difference vectors under it and only [H] can
    decrypt (Steps 3-11).  The paper quotes a recommended ciphertext
    size of z = 1024 bits for RSA, which is the constant that drives
    Table 2's message sizes.

    This is deterministic ("textbook") RSA — no OAEP padding.  In the
    protocol each plaintext is already blinded inside a batched message
    and the semi-honest threat model only requires that parties without
    the private key learn nothing they could not compute; for a
    hardened deployment, swap in {!Paillier} (probabilistic) via the
    shared {!Cipher} interface.

    Decryption uses the Chinese-remainder split when the key carries
    its prime factorisation (every key from {!generate} does): two
    half-size Montgomery exponentiations mod [p] and [q], recombined
    with Garner's formula — roughly 4x cheaper than one full-size
    exponentiation.  PERFORMANCE.md derives the operation counts. *)

type crt = {
  p : Spe_bignum.Nat.t;
  q : Spe_bignum.Nat.t;
  dp : Spe_bignum.Nat.t;  (** [d mod (p - 1)]. *)
  dq : Spe_bignum.Nat.t;  (** [d mod (q - 1)]. *)
  qinv : Spe_bignum.Nat.t;  (** [q^-1 mod p], Garner's constant. *)
}
(** The precomputed CRT decryption constants. *)

type public = { n : Spe_bignum.Nat.t; e : Spe_bignum.Nat.t }
(** Modulus and public exponent. *)

type secret = { n : Spe_bignum.Nat.t; d : Spe_bignum.Nat.t; crt : crt option }
(** Modulus and private exponent, plus the CRT constants when the
    factorisation is known ([None] falls back to a single full-size
    exponentiation). *)

type keypair = { public : public; secret : secret }

exception Key_too_small of { key_bits : int; plain_bits : int }
(** Raised by {!generate} when the requested modulus cannot hold the
    configured plaintext width without wrapping (see [?plain_bits]). *)

val generate : ?e:int -> ?plain_bits:int -> Spe_rng.State.t -> bits:int -> keypair
(** [generate st ~bits] draws two [bits/2]-bit primes and returns a
    keypair whose modulus has exactly [bits] bits: the pair is redrawn
    while their product falls one bit short.  Default exponent 65537;
    each prime is re-drawn until coprimality with [e] holds.  [bits]
    must be at least 16.

    [?plain_bits] declares the widest plaintext the caller intends to
    encrypt (e.g. a packed counter batch); since an RSA plaintext must
    be below [n], the call raises {!Key_too_small} unless
    [plain_bits <= bits - 1] — a typed error at key-generation time
    instead of silently wrapping ciphertexts later. *)

val encrypt : public -> Spe_bignum.Nat.t -> Spe_bignum.Nat.t
(** [encrypt pk m] is [m^e mod n].  Raises [Invalid_argument] if
    [m >= n]. *)

val encryptor : public -> Spe_bignum.Nat.t -> Spe_bignum.Nat.t
(** [encryptor pk] is {!encrypt}[ pk] with the Montgomery context
    hoisted out of the per-call path: building a context costs a full
    Knuth-D division (for [R^2 mod n]), so callers encrypting many
    values under one key should apply [encryptor] once and reuse the
    returned closure. *)

val decrypt : secret -> Spe_bignum.Nat.t -> Spe_bignum.Nat.t
(** [decrypt sk c] is [c^d mod n], via the CRT split when [sk.crt] is
    present. *)

val decryptor : ?crt:bool -> secret -> Spe_bignum.Nat.t -> Spe_bignum.Nat.t
(** [decryptor sk] is {!decrypt}[ sk] with the Montgomery contexts
    hoisted out of the per-call path.  [~crt:false] forces the
    single full-size exponentiation even when the CRT constants are
    available — the switch behind the bench's CRT ablation. *)

val ciphertext_bits : public -> int
(** Size in bits of a ciphertext under this key — the paper's [z]. *)

val public_key_bits : public -> int
(** Serialized public-key size in bits (|n| + |e|) — the paper's
    [|kappa|]. *)
