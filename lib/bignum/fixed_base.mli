(** Fixed-base window exponentiation for repeated-base workloads.

    When the {e same} base is raised to many different exponents under
    one odd modulus — Paillier's per-key randomness base in Protocol 6
    encrypts thousands of plaintexts under a single key — the squaring
    chain of binary exponentiation is redundant work: it depends only
    on the base.  A fixed-base window table precomputes
    [base^(d * 2^(w*i))] in Montgomery form for every [w]-bit digit
    position [i] and digit value [d], after which each exponentiation
    is at most [ceil(e / w)] Montgomery multiplications and {e zero}
    squarings, against about [1.2 e] for {!Montgomery.pow} (a squaring
    per bit plus a product per window) — roughly a [5x] reduction at
    the default [w = 4].  PERFORMANCE.md derives the exact operation
    counts and the bench measures them. *)

type t
(** A precomputed window table for one (modulus, base) pair. *)

val default_window : int
(** The default digit width [w = 4]: 15 table entries per digit
    position, the sweet spot for 256–2048-bit exponents. *)

val create : ?window:int -> Montgomery.t -> base:Nat.t -> max_exp_bits:int -> t
(** [create ctx ~base ~max_exp_bits] builds the table covering
    exponents of up to [max_exp_bits] bits.  Build cost is one
    Montgomery multiplication per table entry
    ([ceil(max_exp_bits / w) * (2^w - 1)]).  Raises
    [Invalid_argument] if [window] is outside [[1, 8]] or
    [max_exp_bits < 1]. *)

val max_exp_bits : t -> int
(** The largest exponent bit length the table covers. *)

val pow : t -> Nat.t -> Nat.t
(** [pow t exp] is [base^exp mod modulus] in ordinary (non-Montgomery)
    form.  Raises [Invalid_argument] if [exp] is wider than
    [max_exp_bits]. *)
