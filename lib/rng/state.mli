(** Deterministic, splittable pseudo-random generator.

    The generator is xoshiro256** seeded through splitmix64.  It is {e
    not} cryptographically secure; it is the simulation RNG used to
    drive workload generation and the protocol simulations
    deterministically.  Cryptographic key material is produced by
    [Spe_crypto], which stretches entropy from a generator of this type
    only in tests and examples (see the DESIGN.md substitution table:
    the semi-honest model lets the simulated parties share seeds).

    The state is four unboxed words, so a draw allocates nothing beyond
    a boxed result: [next_int], [next_bits] and [next_bool] allocate
    nothing, [next_int64] and [next_float] only the [int64] or [float]
    they return. *)

type t
(** Mutable generator state. *)

val create : ?seed:int -> unit -> t
(** [create ~seed ()] builds a generator from a 63-bit seed.  The
    default seed is a fixed constant so that unseeded runs are
    reproducible. *)

val copy : t -> t
(** Independent copy of the current state. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream.  Used
    to hand sub-generators to parties of a protocol. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val next_int : t -> int -> int
(** [next_int t bound] is uniform on [[0, bound)]. [bound] must be
    positive.  Unbiased (rejection sampling over the top 62 bits of a
    draw), for every bound up to [max_int]. *)

val next_float : t -> float
(** Uniform on [[0, 1)] with 53 bits of precision. *)

val next_bool : t -> bool
(** A fair coin. *)

val next_bits : t -> int -> int
(** [next_bits t k] is a uniform [k]-bit non-negative integer,
    [0 <= k <= 62]. *)
