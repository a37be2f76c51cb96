(** Protocol 6 — secure computation of the propagation graphs
    [PG(alpha)] for all actions (Sec. 6.1, exclusive case).

    The host publishes an obfuscated pair set [Omega_E'] and a public
    encryption key.  Each provider computes, for each action it
    controls, the vector of time differences [Delta_(alpha,i,j)] over
    the published pairs ([t_j - t_i] when both users performed the
    action in that order, [0] otherwise), encrypts every entry under
    the host's key, and sends the bundle to provider 1, who forwards
    the accumulated bundles to the host.  Only the host can decrypt; it
    reconstructs each [E(alpha)] by keeping the real arcs with a
    positive label.  From the propagation graphs (plus the activity
    denominators [a_i], obtained with the Protocol 4 machinery) the
    host computes every user's tau-influence score locally.

    The relaying through provider 1 means the host cannot attribute a
    [Delta] bundle to the provider that produced it, and provider 1 —
    lacking the private key — learns only how many actions each peer
    controls.

    The paper quotes ciphertext size [z = 1024] bits for RSA; the
    {!config} lets tests run with smaller keys while the Table 2 cost
    model uses the recommended size.  As an engineering extension,
    [pack_slots > 1] packs up to that many [Delta] entries into a
    single plaintext via {!Spe_mpc.Pack}, cutting the ciphertext count
    per action from [q] to [ceil(q / per)] where [per] is clamped to
    what the key and the native-int decode path admit
    ([Spe_mpc.Pack.max_slots]) — the ablation bench quantifies the
    saving, and PERFORMANCE.md derives it. *)

type scheme = Rsa | Paillier

type config = {
  c_factor : float;  (** Obfuscation blow-up for [E']. *)
  key_bits : int;  (** Public-key modulus size. *)
  scheme : scheme;
  pack_slots : int;
      (** Upper bound on [Delta] entries per ciphertext; [1] disables
          packing (bit-identical to the unpacked protocol). *)
  accel : bool;
      (** Crypto hot-path accelerations (hoisted Montgomery contexts,
          CRT decryption, fixed-base randomness, and for RSA one
          exponentiation per distinct value, see {!Spe_crypto.Cipher}).
          On by default;
          [false] reproduces the pre-acceleration baseline for
          ablation benchmarks. *)
}

val default_config : config
(** [c = 2], RSA-1024, no packing, accelerations on — the paper's
    recommended setting. *)

type result = {
  graphs : Spe_influence.Propagation.t array;
      (** [PG(alpha)] per action, restricted to real arcs. *)
  pairs : (int * int) array;  (** The published [Omega_E']. *)
  ciphertexts : int;  (** Total ciphertexts that crossed the wire. *)
}

val check_exclusive : Spe_actionlog.Log.t array -> int -> unit
(** [check_exclusive logs num_actions] raises [Invalid_argument] when
    some action occurs in two providers' logs — the non-exclusive case
    requires the Protocol 5 preprocessing first. *)

val deltas_of_action :
  Spe_actionlog.Log.t -> pairs:(int * int) array -> action:int -> int array
(** The Delta vector of one action over the published pairs:
    [t_j - t_i] when both users acted and [j] strictly followed [i],
    else [0].  Shared with [Protocol6_distributed]. *)

val pack_deltas : per:int -> delta_bits:int -> int array -> int array
(** Pack consecutive groups of [per] deltas (each [< 2^delta_bits])
    into one plaintext integer, little-endian — a thin wrapper over
    {!Spe_mpc.Pack.pack} shared with [Protocol6_distributed]. *)

val unpack_deltas : per:int -> delta_bits:int -> q:int -> int array -> int array
(** Inverse of {!pack_deltas} for a vector of [q] deltas. *)

val slots_per_plaintext : config -> delta_bits:int -> int
(** The effective [per]: [config.pack_slots] clamped to what the key
    and the native-int decode path admit (at least 1).  Exposed so the
    distributed engines and the cost model agree with {!run} on the
    chunk count. *)

val run :
  Spe_rng.State.t ->
  wire:Spe_mpc.Wire.t ->
  graph:Spe_graph.Digraph.t ->
  logs:Spe_actionlog.Log.t array ->
  config ->
  result
(** [run st ~wire ~graph ~logs config] executes the protocol over
    [m >= 2] exclusive provider logs (every action's records live in
    exactly one log; raises [Invalid_argument] otherwise, as the
    non-exclusive case requires the Sec. 5.2 preprocessing first).
    Wire rounds: pair publication, key broadcast, bundles to provider
    1, forward to host — 4 rounds as in Table 2. *)
