(** Montgomery modular arithmetic for odd moduli.

    {!Nat.mod_pow} reduces with a full Knuth-D division after every
    multiplication; Montgomery form replaces those divisions with
    shift-and-add reductions, which is the standard speed-up for the
    RSA/Paillier workloads of Protocol 6 (the bench quantifies the
    factor).  The context precomputes [R = 2^(limb_bits * k) > modulus],
    [R^2 mod modulus] and [-modulus^-1 mod 2^limb_bits].

    Each product is one fused CIOS pass written in place into a
    preallocated limb array; {!pow} allocates its scratch, window
    table and accumulator once per call, so its allocation does not
    grow with the exponent.  It walks the exponent in fixed windows
    read straight from its limbs: 1 bit up to 32-bit exponents (RSA's
    [e = 65537]), 4 bits up to 512, 5 bits beyond.  A context holds no
    mutable state and can be shared across threads. *)

type t
(** A reduction context for one odd modulus. *)

val create : Nat.t -> t
(** [create modulus] builds a context.  Raises [Invalid_argument] if
    the modulus is even or < 3. *)

val modulus : t -> Nat.t

val to_mont : t -> Nat.t -> Nat.t
(** Map [x] (reduced mod modulus first) into Montgomery form
    [x * R mod modulus]. *)

val of_mont : t -> Nat.t -> Nat.t
(** Inverse mapping. *)

val mul : t -> Nat.t -> Nat.t -> Nat.t
(** Product of two Montgomery-form values, in Montgomery form. *)

val pow : t -> base:Nat.t -> exp:Nat.t -> Nat.t
(** [pow ctx ~base ~exp] is [base^exp mod modulus] for ordinary
    (non-Montgomery) [base], returned in ordinary form — a drop-in
    replacement for {!Nat.mod_pow} on odd moduli. *)

(**/**)

val window_bits : int -> int
(** The window width {!pow} uses for an exponent of the given bit
    length. *)

(* Limb-level access for the sibling [Fixed_base] module: raw
   Montgomery-form limb arrays of the context's width, avoiding a
   Nat round-trip per multiplication.  Not part of the public API. *)
val width : t -> int

val scratch : t -> int array
(** A fresh scratch buffer for {!mul_into}. *)

val mul_into : t -> int array -> int array -> int array -> int array -> unit
(** [mul_into ctx scratch a b dst] writes the Montgomery product of
    [a] and [b] into [dst], which may alias either operand.  Raises
    [Invalid_argument] if an array is narrower than the context. *)

val one_mont_limbs : t -> int array
val to_mont_limbs : t -> Nat.t -> int array

val of_mont_limbs : t -> int array -> Nat.t
(** Leaves Montgomery form in place: the argument is overwritten. *)

(**/**)
