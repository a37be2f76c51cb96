(** A uniform interface over the public-key schemes, as used by
    Protocol 6.

    The protocol encrypts small non-negative integers (time-difference
    labels, or batches of them packed into one plaintext).  This module
    packages a scheme as a pair of closures plus the two size constants
    that feed the Table 2 cost model: the ciphertext size [z] and the
    public-key size [|kappa|].

    The closures carry the hot-path accelerations of the underlying
    schemes — hoisted Montgomery contexts, CRT decryption, and (for
    Paillier) the fixed-base randomness table; see PERFORMANCE.md.
    They can be disabled with [~accel:false] to reproduce the
    pre-acceleration baseline in ablation benchmarks.

    Accelerated RSA also keeps, per key, every plaintext it encrypted
    and every ciphertext it decrypted: textbook RSA maps a plaintext to
    one ciphertext, so a repeated value returns the first call's result
    (the same [Nat.t]) without an exponentiation.  A call that raises
    stores nothing and raises again on a repeat.  The tables grow with
    the distinct values one key sees; Protocol 6 draws a key per job,
    so they are bounded by the distinct time differences of that job.
    They are not locked: use an accelerated RSA [t] from one thread at
    a time, as plans are built and run on a daemon's loop.  Paillier
    is randomized and keeps nothing. *)

type public = {
  encrypt_int : int -> Spe_bignum.Nat.t;
      (** Encrypt a small non-negative integer. *)
  ciphertext_bits : int;  (** The paper's [z]. *)
  key_bits : int;  (** The paper's [|kappa|]. *)
}

type t = {
  public : public;
  decrypt_int : Spe_bignum.Nat.t -> int;
      (** Recover a small integer; raises [Failure] if the plaintext
          does not fit in a native [int]. *)
}

val rsa : ?plain_bits:int -> ?accel:bool -> Spe_rng.State.t -> bits:int -> t
(** Textbook RSA of the given modulus size (the paper's recommended
    deployment uses 1024).  [?plain_bits] is forwarded to
    {!Rsa.generate}: keys too small to hold the declared plaintext
    width raise {!Rsa.Key_too_small} here, at key-generation time.
    With [accel] (the default) both closures memoize, as above. *)

val paillier : ?plain_bits:int -> ?accel:bool -> Spe_rng.State.t -> bits:int -> t
(** Probabilistic Paillier; ciphertexts are twice the modulus size.
    Fresh encryption randomness is drawn from a generator split off the
    one supplied here.  [?plain_bits] is forwarded to
    {!Paillier.generate} and raises {!Paillier.Key_too_small} when the
    key cannot hold it. *)
