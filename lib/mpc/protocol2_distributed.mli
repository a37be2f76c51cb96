(** Protocol 2 on the message-passing {!Runtime}: Protocol 1's share
    exchange, then the masked wrap-around test through the third party,
    with every player an isolated state machine.

    The jointly-generated secrets of players 1 and 2 (the masks and the
    batch permutation) are precomputed from the shared generator and
    captured by both closures — the same semi-honest
    joint-coin-flipping model as everywhere else (DESIGN.md).  All
    randomness is consumed in exactly the central draw order, so both
    shares (and the leak views) are {e bit-identical} to
    {!Protocol2.run} from an equal-positioned generator; the tests
    assert this, plus wire-total agreement up to byte rounding.

    As with {!Protocol1_distributed}, the party programs are exposed as
    a {!Session.t} so any engine — the in-process {!Session.run} or the
    [Spe_net] transport endpoints — can host them.  A session's result
    is the full {!Protocol2.result} with the Theorem 4.1 leak views, and
    its parties are the sharing parties followed by the third party
    (unless merged, see {!make_lazy}). *)

type handle = {
  share1 : unit -> int array;  (** Player 1's final share (his own view). *)
  share2 : unit -> int array;  (** Player 2's final share (post-verdict). *)
}
(** Per-player accessors for composing sessions: a later phase run by
    player 1 (resp. 2) may read only its own share, rather than the
    orchestrator-level session result. *)

(** {2 Sharded building blocks}

    A sharded pipeline (see [Spe_core.Shard]) cuts the counter space
    into contiguous chunks of the {e already-permuted} publication
    order, runs one verdict-less {!core} per chunk, and announces all
    wrap verdicts in a single full-batch {!verdict} session.  The
    monolithic {!make_lazy} is itself [seq core verdict] over the full
    slice, so both paths are wire-for-wire and bit-for-bit the same
    protocol. *)

type randomness = {
  modulus : int;
  input_bound : int;
  rpieces : int array array array;
      (** [rpieces.(k).(j)] is the Protocol 1 piece party [k] hands to
          party [j]; row 0 is a placeholder computed from the input at
          round 1. *)
  masks : int array;  (** Player 2's wrap-test masks, one per counter. *)
  perm : Spe_rng.Perm.t;  (** The shared batch permutation. *)
}
(** All jointly-pre-drawn randomness for one Protocol 2 batch, drawn in
    exactly the central order by {!draw} — shard slices are cut from
    this {e after} drawing, so sharding never perturbs the stream. *)

val draw :
  Spe_rng.State.t ->
  m:int ->
  modulus:int ->
  input_bound:int ->
  length:int ->
  randomness
(** Draw the full batch's randomness in the central order: per party,
    per counter, the [m - 1] free pieces; then the masks; then the
    permutation.  Raises [Invalid_argument] unless [m >= 2] and
    [0 <= input_bound < modulus]. *)

val concat : randomness list -> randomness
(** Join separately drawn batches block-diagonally, in list order: the
    pieces and masks are concatenated, and batch [b]'s permutation is
    shifted by its offset, so the joined permutation maps every block
    onto itself.  A core and verdict over the joined batch give each
    block exactly the shares, y and leak views of its own
    {!make_lazy} run; the third party sees each block under that
    block's own permutation.  Raises [Invalid_argument] on an empty
    list, or on batches drawn for different moduli, input bounds or
    party counts. *)

type slice = {
  randomness : randomness;
      (** The slice's own copies of pieces and masks, with the {e
          induced} permutation: local index [i] maps to the rank of its
          global permuted slot within the slice. *)
  start : int;  (** First counter index of the slice. *)
  positions : int array;
      (** [positions.(i)] is counter [start + i]'s slot in the {e
          global} permuted batch — what {!core.apply_wraps} uses to read
          its verdicts out of the full-batch bitset. *)
  slots : int array;
      (** The slice's global slots in ascending order: [positions]
          sorted, so entry [j] of the slice's permuted batch belongs to
          global slot [slots.(j)]. *)
}

val slice : randomness -> start:int -> len:int -> slice
(** Cut counters [start .. start + len - 1] out of a drawn batch.
    [slice r ~start:0 ~len] (the full slice) has the identity mapping:
    its induced permutation {e is} [r.perm].  The returned arrays are
    fresh copies, so a core may mutate them freely.  The induced
    permutation and [slots] come from one walk over the global slots,
    without a sort: O(length of the batch) per slice.  Raises
    [Invalid_argument] on an out-of-range window. *)

type core = {
  session : unit Session.t;
      (** The verdict-less rounds: share exchange, aggregation, masked
          vectors to the third party, who assembles y silently at its
          finishing call.  2 rounds when [m = 2], else 3. *)
  share1 : unit -> int array;  (** Player 1's final share. *)
  share2 : unit -> int array;
      (** Player 2's share; {e pre}-verdict until {!core.apply_wraps}
          runs, final after. *)
  y : unit -> int array;
      (** The third party's assembled wrap-test vector, in the slice's
          induced permuted order; read at or after the core's finishing
          call. *)
  slots : int array;
      (** The slice's {!slice.slots}: entry [j] of {!core.y} belongs to
          global permuted slot [slots.(j)], so scattering [y] through
          them rebuilds the slice's part of the full batch. *)
  apply_wraps : bool array -> unit;
      (** Apply the {e full-batch} verdict bitset (indexed by global
          permuted slot): classifies the Theorem 4.1 player-2 leaks from
          the pre-adjustment shares, then subtracts the modulus where
          wrapped. *)
  p2_leaks : unit -> Protocol2.leak array;
      (** Player 2's leak view; valid after {!core.apply_wraps}. *)
}

val make_core :
  parties:Wire.party array ->
  third_party:Wire.party ->
  slice:slice ->
  inputs:(unit -> int array) array ->
  core
(** Build one verdict-less Protocol 2 core over a slice.  Same
    merged-role rule as {!make_lazy}: the third party may be a sharing
    party with index [>= 2].  Raises [Invalid_argument] on the same
    conditions as {!make_lazy}, or if the slice was drawn for a
    different party count. *)

type verdict = {
  session : unit Session.t;
      (** One round: the third party announces the full-batch wrap
          verdicts to player 2 as a single [Bits] message — exactly the
          unsharded announcement, whatever the shard count. *)
  p3_leaks : unit -> Protocol2.leak array;
      (** The third party's Theorem 4.1 leak view, global permuted
          order. *)
  p3_y : unit -> int array;  (** The y vector the third party saw. *)
}

val make_verdict :
  p1:Wire.party ->
  third_party:Wire.party ->
  modulus:int ->
  input_bound:int ->
  y_of:(unit -> int array) ->
  apply:(bool array -> unit) ->
  verdict
(** Build the verdict announcement.  [y_of] is forced at the third
    party's round 1 (after every core's finishing call when sequenced
    after them) and must return the full batch in global permuted
    order; [apply] runs at player 2's finishing call with the verdict
    bitset.  Raises [Invalid_argument] if [p1 = third_party]. *)

val make_lazy :
  Spe_rng.State.t ->
  parties:Wire.party array ->
  third_party:Wire.party ->
  modulus:int ->
  input_bound:int ->
  length:int ->
  inputs:(unit -> int array) array ->
  Protocol2.result Session.t * handle
(** Build the party programs with {e deferred} inputs: each party's
    thunk is forced inside its own program at round 1, so a composed
    pipeline can share counters that an earlier phase only just
    delivered (e.g. counters built against the published pair set).

    Unlike {!make}, the third party may also be one of the sharing
    parties with index [>= 2] (as the central Protocol 4 uses provider
    3 when [m > 2]); both roles then merge into one program.  It must
    still differ from players 1 and 2. *)

val make :
  Spe_rng.State.t ->
  parties:Wire.party array ->
  third_party:Wire.party ->
  modulus:int ->
  input_bound:int ->
  inputs:int array array ->
  Protocol2.result Session.t
(** {!make_lazy} with eager inputs and the stricter historical
    restriction that the third party lies outside the sharing
    parties. *)
