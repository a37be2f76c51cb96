(** A first-class, engine-agnostic protocol session.

    A session packages everything an engine needs to execute a
    multi-party protocol — the parties, one {!Runtime.program} per
    party, the exact number of charged rounds, and a thunk that reads
    the result out of the party closures once an engine has driven the
    programs to quiescence.  [Protocol1_distributed] and
    [Protocol2_distributed] build one each, [Protocol3_distributed]
    builds the mask phase of the batched secure division, and the
    Protocol 4/5/6 pipelines in [Spe_core] are built by {e composing}
    these sessions with the combinators below — the links and stream
    pipelines' [p4-mask] phases are Protocol 3's mask phase relabelled,
    and the scores pipeline's [scores-final] phase is it {!seq}'d with a
    blinded round-trip.

    Any engine can host a session: the in-process {!Runtime.run} (via
    {!run}), or the [Spe_net] endpoints, which carry the same party
    closures over memory channels or sockets ([Spe_core.Plan.execute]
    drives every engine).

    {2 Composition semantics}

    {!seq} splices a second phase directly after the first with no idle
    round in between: phase A's programs see local rounds [1..rounds_a]
    plus one finishing call at [rounds_a + 1] (their final inbox, at
    which they must be silent), and phase B's programs start at the
    same global round with local round [1].  Dataflow between phases
    goes through the party closures — a phase-B program may read a
    ref (or call an accessor) that a phase-A program of the {e same}
    party filled.  Phases must be self-contained: a message across the
    phase boundary raises.

    {!all} multiplexes any number of sessions, over any party sets,
    into one by giving each global round to one component round. *)

type 'r t = {
  parties : Wire.party array;  (** All participants, in engine order. *)
  programs : Runtime.program array;  (** One per party, same order. *)
  rounds : int;
      (** Exact number of charged (message-bearing) rounds the session
          executes on any engine.  Engines use [rounds + 1] as the
          round budget; {!seq} uses it to splice phases. *)
  phases : (string * int) list;
      (** The {e phase map}: ordered [(label, rounds)] segments summing
          to {!field-rounds}.  {!make} produces one segment (relabel it
          with {!with_label}); {!seq} concatenates.  Engines install it
          on their {!Spe_obs.Trace} so metrics and timeout errors can
          name the pipeline stage an engine round belongs to. *)
  result : unit -> 'r;
      (** Read the result out of the party closures; call only after an
          engine has driven the programs to quiescence. *)
}

val make :
  parties:Wire.party array ->
  programs:Runtime.program array ->
  rounds:int ->
  result:(unit -> 'r) ->
  'r t
(** Raises [Invalid_argument] on mismatched array lengths, duplicate
    parties, or a negative round count.  The phase map is a single
    segment labelled ["session"] — see {!with_label}. *)

val with_label : string -> 'r t -> 'r t
(** [with_label label t] names [t]'s rounds for observability: its
    phase map becomes the single segment [(label, t.rounds)].  Protocol
    builders label their sessions (e.g. [p4-mask]) before composing
    them with {!seq} so per-phase metrics and timeout messages read
    well. *)

val with_epoch : int -> 'r t -> 'r t
(** [with_epoch e t] prefixes every segment of [t]'s phase map with
    [e<e>/] — e.g. [p4-mask] becomes [e3/p4-mask] — so traces, metrics
    and timeout errors from an epoch-delta plan ([Spe_core.Delta]) name
    the release epoch a round belongs to.  Raises [Invalid_argument] on
    a negative epoch. *)

val map : ('a -> 'b) -> 'a t -> 'b t
(** Post-compose the result thunk. *)

val seq : 'a t -> 'b t -> ('a * 'b) t
(** [seq a b] runs [a] to completion, then [b], as one session over the
    union of both party sets (a party appearing in both runs its [a]
    program through [a]'s rounds, then its [b] program).  The combined
    round count is the sum and the phase maps concatenate.  Raises at
    execution time if a phase-A program sends after its declared
    rounds, or if a message crosses the phase boundary. *)

val all : 'r t list -> 'r array t
(** [all sessions] multiplexes any number of sessions — with {e
    arbitrary, possibly overlapping} party sets — into one session by
    tagging rounds: every global round is owned by exactly one
    component round, in round-major [(round, session)] order, so the
    combined round count is the {e sum} of the component counts.
    Messages a component sends are banked by the wrapper programs and
    replayed at that component's next owned round; finishing calls
    (final inbox, mandatory silence) fire once a component's last owned
    round has passed.  This is what sharded pipelines need: per-shard
    sessions run over the same providers.

    Requirements: every component round must be message-bearing (true
    of any session whose declared {!field-rounds} is honest — a silent
    round would already desynchronise {!run}), and components sharing
    parties should list them in a consistent order so banked inboxes
    replay in each component's native delivery order (shard sessions
    built from one template do).

    The phase map tags each component's segments as
    [s<i>:<component label>]; the result is the array of component
    results in input order.  Raises [Invalid_argument] on an empty
    list, at execution time on a message across a session boundary, or
    if a component sends at its finishing call. *)

val run : ?trace:Spe_obs.Trace.t -> 'r t -> wire:Wire.t -> 'r
(** Drive the session with the in-process {!Runtime.run} and return the
    result.  Raises [Failure] if the executed round count differs from
    the declared {!field-rounds} — a mis-declared session would silently
    desynchronise {!seq}, so this is checked on every run.

    When [trace] is given, the session's phase map is installed on it,
    the whole execution is wrapped in a [Session] span, and
    {!Runtime.run} records per-round spans and per-message counters —
    see {!Spe_obs.Trace}. *)
