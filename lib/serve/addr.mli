(** The one address / roster syntax every [Spe_serve] flag shares.

    Addresses are [unix:PATH] (Unix-domain stream socket) or
    [HOST:PORT] (TCP; [HOST] must be a literal IP address or
    [localhost], which resolves to 127.0.0.1 — there is deliberately no
    DNS here).  The same parser backs [--listen], [--connect],
    [--metrics-addr] and the pipeline [--address] flags, so every
    malformed address fails as a clean usage error rather than a raw
    [Unix.Unix_error] from deep inside the transport. *)

type t = Spe_net.Transport.Socket.address

val parse : string -> (t, string) result
(** Parse one address; the error is a complete human-readable
    sentence naming the offending input. *)

val parse_exn : string -> t
(** [parse], raising [Failure] with the same message. *)

val to_string : t -> string
(** Inverse of {!parse}. *)

val sockaddr : t -> Unix.sockaddr
(** Lower to the [Unix] address ({!Spe_net.Transport.Socket.sockaddr_of}). *)

val party_of_string : string -> (int, string) result
(** ["H"] is daemon id 0; ["P1"], ["P2"], ... are ids 1, 2, ... —
    provider [k] (0-based) lives at id [k + 1], matching the frame
    codec's party order. *)

val party_name : int -> string
(** Inverse of {!party_of_string}: ["H"], ["P1"], ... *)

val roster_of_string : string -> (t array, string) result
(** Parse a full-deployment roster
    ["H=ADDR,P1=ADDR,...,Pm=ADDR"] into the address-by-daemon-id
    array.  Entries may appear in any order but must cover H and
    [P1..Pm] exactly once each. *)

val roster_to_string : t array -> string
(** Inverse of {!roster_of_string}. *)

val with_temp_roster : parties:int -> (t array -> 'a) -> 'a
(** [with_temp_roster ~parties f] runs [f] on [parties] Unix-domain
    addresses (H first) in a fresh private directory under the
    temporary directory, for in-process and forked deployments in
    tests, the bench and the chaos harness.  The directory, and any
    socket left in it, is removed when [f] returns or raises. *)
