(** A round-based message-passing runtime.

    The protocol modules in this library are written "centrally": one
    function computes every party's values and declares the messages on
    the wire.  That style is concise and easy to test, but it cannot
    catch a class of bugs — a party using a value it never received.
    This runtime provides the stricter discipline: each party is a
    closure over its own private state that, once per round, sees
    {e only its inbox} and emits messages; the engine routes payloads,
    encodes them with {!Codec} to charge byte-exact sizes on the wire,
    and stops when a round goes silent.

    [Protocol1_distributed] and [Protocol2_distributed] re-implement
    the share protocols on this runtime; the test suite checks that
    they compute the same results and the same wire totals (up to byte
    rounding) as the central implementations — a mechanised argument
    that the central versions do not cheat. *)

type payload =
  | Ints of { modulus : int; values : int array }
      (** Residue vector, encoded fixed-width per the modulus. *)
  | Floats of float array  (** IEEE doubles. *)
  | Bits of bool array  (** One bit each, byte padded. *)
  | Nats of { width_bits : int; values : Spe_bignum.Nat.t array }
      (** Fixed-width big naturals — ciphertexts and keys (Protocol 6). *)
  | Tuples of { moduli : int array; rows : int array array }
      (** Fixed-shape records: every row holds one residue per modulus,
          each encoded fixed-width per its column modulus — the
          obfuscated action records and counter tables of Protocol 5. *)
  | Batch of payload list
      (** Several payloads in one message; charged the sum of the
          parts.  Lets a distributed protocol keep the central one-round
          one-message structure when a logical message mixes encodings
          (e.g. Protocol 6's action labels + ciphertext bundles).  A
          part is never itself a [Batch]. *)

val payload_bits : payload -> int
(** Exact encoded size, as charged on the wire, computed from the
    payload's shape without encoding it.  Raises the {!Codec} encoders'
    [Invalid_argument] where they would: a residue outside
    [[0, modulus)], a modulus below 2, a [Nats] width below 1 or a value
    wider than it, or a [Batch] inside a [Batch]. *)

val batch_part : payload -> payload
(** The identity, except [Invalid_argument] on a [Batch]. *)

type message = { src : Wire.party; dst : Wire.party; payload : payload }

type program = round:int -> inbox:message list -> message list
(** One party: called once per round with the messages addressed to it
    (in arrival order); returns its sends.  State lives in the
    closure. *)

type t

val create : unit -> t

val add_party : t -> Wire.party -> program -> unit
(** Raises [Invalid_argument] on a duplicate party. *)

val party_label : Wire.party -> string
(** The party's display name ([Host], [P1], …) as used in trace
    events — the [Spe_obs] layer identifies parties by string so it
    stays dependency-free. *)

val run : ?trace:Spe_obs.Trace.t -> t -> wire:Wire.t -> max_rounds:int -> int
(** Execute rounds until one produces no messages (the quiescent round
    is not charged) or [max_rounds] is hit (then [Failure] — a protocol
    that fails to terminate is a bug).  Every non-quiet round is
    declared on [wire] with each message's encoded size.  Returns the
    number of rounds executed.  Messages to unknown parties raise.

    When [trace] is given and recording, every round is wrapped in a
    [Round] span, every party step in a [Compute] span, and every
    message increments the [Messages] and [Payload_bytes] counters
    (tagged with the sending party and the round) — byte-for-byte the
    same quantities declared on [wire]. *)
