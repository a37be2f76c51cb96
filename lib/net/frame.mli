(** The byte-level frame format of the transport subsystem.

    Everything an endpoint puts on a real wire is one frame: a payload
    carrier ([Data]) or a control frame ([End_of_round], [Nack],
    [Fin]).  A frame travels length-prefixed: a 4-byte
    big-endian body length followed by the body.  The body starts with
    a 1-byte tag; [Data] bodies embed a {!Spe_mpc.Runtime.payload}
    encoded with {!Spe_mpc.Codec} — byte-for-byte the encoding whose
    length the simulated wire charges — preceded by a small typed
    header so the receiver can decode without out-of-band knowledge.

    The framing overhead of a run is therefore exactly
    [sum over frames of (framed_length f - payload_length f)]; the
    delta between a socket run's measured bytes and the simulated MS
    statistic.  DESIGN.md ("Framing overhead") derives the closed
    form; the test suite asserts it.

    The byte writers, the bounded reader and the vector encodings are
    {!Spe_mpc.Codec}'s; this module holds only the frame layout.  A
    [Batch] payload never holds a [Batch]. *)

type t =
  | Data of {
      round : int;
      seq : int;  (** Sender-local send index within the round. *)
      src : Spe_mpc.Wire.party;
      dst : Spe_mpc.Wire.party;
      payload : Spe_mpc.Runtime.payload;
    }  (** One protocol message, as charged on the simulated wire. *)
  | End_of_round of {
      round : int;
      sender : int;
      total : int;  (** Sender's data-frame count this round, to all peers. *)
      to_dst : int;  (** ...of which addressed to this frame's recipient. *)
    }  (** Round barrier: the recipient may step once it holds one from
          every peer and [to_dst] data frames from each. *)
  | Nack of { round : int; sender : int }
      (** Please retransmit everything you sent me for [round]. *)
  | Fin of { sender : int }
      (** Sender decided the protocol is quiescent and is leaving. *)

val encode : t -> bytes
(** Frame body, without the length prefix: an exact-size buffer filled
    by {!encode_into}. *)

val encoded_length : t -> int
(** Closed-form size of {!encode}'s result, computed without encoding
    anything — sized from the payload's element counts and widths. *)

val encode_into : t -> bytes -> pos:int -> int
(** [encode_into t buf ~pos] writes the frame body at [pos] in [buf]
    and returns the position one past the last byte written (always
    [pos + encoded_length t]).  The caller guarantees capacity.  This
    is the transport hot path: encoding a frame with an integer
    payload into a reused send buffer allocates nothing (the test
    suite asserts a zero minor-allocation delta). *)

val decode : bytes -> t
(** Inverse of {!encode}, reading the vectors straight out of [body].
    Raises {!Spe_mpc.Codec.Malformed}, and nothing else, on a body that
    {!encode} cannot write. *)

val length_prefix_bytes : int
(** Size of the length prefix every transport adds: 4. *)

val framed_length : t -> int
(** Bytes the frame occupies on a real wire:
    [length_prefix_bytes + encoded_length t] — no encoding happens. *)

val payload_length : t -> int
(** Bytes of pure protocol payload inside the frame — the part the
    simulated wire charges.  [payload_bits / 8] of a [Data] frame's
    payload; 0 for every control frame. *)
