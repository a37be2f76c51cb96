(** The session side of Protocol 4 outside its Protocol 2 and
    Protocol 3 phases.  The pair publication (Steps 1-2) is a one-round
    {!Spe_mpc.Session}: the host broadcasts the obfuscated pair set
    [Omega_E'] to every provider, who decodes it at its finishing call.
    [Shard] builds the links pipelines' publish phase from
    {!publish_slice_session}, one slice per shard; [Delta] publishes its
    epoch-0 pair set the same way, and [Protocol6_distributed] starts
    from {!publish_pairs_phase}.  Both of the former mask the
    {!numerator_share} of each pair in their Protocol 3 phase. *)

val publish_slice_session :
  node_modulus:int ->
  pairs:(int * int) array ->
  m:int ->
  lo:int ->
  hi:int ->
  unit Spe_mpc.Session.t * (int -> (int * int) array)
(** A one-round session in which the host broadcasts the flattened
    slice [pairs.(lo .. hi - 1)] of an already-published pair set to
    [m] providers, who decode it at their finishing call.  This is the
    publish phase of one {e shard} (see [Shard]); the whole-set
    {!publish_pairs_phase} is the [lo = 0, hi = q] instance, so slice
    payload bytes sum exactly to the unsharded broadcast.  Returns
    [(session, received_of)]; raises [Invalid_argument] if [m < 1] or
    the slice is out of range. *)

val publish_pairs_phase :
  Spe_rng.State.t ->
  graph:Spe_graph.Digraph.t ->
  m:int ->
  c_factor:float ->
  (int * int) array Spe_mpc.Session.t * (int * int) array * (int -> (int * int) array)
(** Steps 1-2 as a one-round session over [Host] plus [m] providers:
    the host draws [E' ⊇ E] and broadcasts the flattened pair list.
    Returns [(session, pairs, received_of)] where [pairs] is the
    host-side published set (also the session result) and
    [received_of k] reads provider [k]'s decoded copy — valid once the
    phase has executed.  Used by [Protocol6_distributed]. *)

val numerator_share : Protocol4.estimator -> int array -> at:int -> float
(** A player's Step 7 numerator for one published pair whose shared
    counters start at [shares.(at)]: the window share under Eq. 1, the
    weighted sum [sum_l w_l * shares.(at + l)] of the lag shares under
    Eq. 2 — the value [Shard] and [Delta] mask in their Protocol 3
    phases, computed by the same operations as the central
    [Protocol4]. *)
