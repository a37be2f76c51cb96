module State = Spe_rng.State
module Wire = Spe_mpc.Wire
module Runtime = Spe_mpc.Runtime
module Session = Spe_mpc.Session
module Protocol2_distributed = Spe_mpc.Protocol2_distributed
module Protocol3 = Spe_mpc.Protocol3
module Protocol3_distributed = Spe_mpc.Protocol3_distributed
module Digraph = Spe_graph.Digraph
module Obfuscate = Spe_graph.Obfuscate

type mode = Delta | Full

type release = {
  epoch : int;
  estimates : float array;
  strengths : ((int * int) * float) list;
  digest : int;
  recomputed : int;
}

type epoch_input = {
  epoch : int;
  dirty_users : int list;
  dirty_pairs : int list;
  inputs : Protocol4.provider_input array;
}

type t = {
  graph : Digraph.t;
  pairs : (int * int) array;
  (* sources.(k): the source of pair [k], the group its quotient
     divides by. *)
  sources : int array;
  (* sourced.(i): the published pair indices with source [i], ascending —
     the pair half of counter group [i]. *)
  sourced : int array array;
  m : int;
  num_actions : int;
  config : Protocol4.config;
  group_seed : int;
  (* versions.(i): how many epochs have dirtied group [i] so far.  The
     version keys the group's randomness, so a Full-mode re-run of a
     clean group replays the draws of its last recomputation exactly. *)
  versions : int array;
  (* The host's caches of the latest masked shares, written in place by
     each recomputed group's session: the release quotients always read
     the full arrays, delta or not. *)
  masked1 : Protocol3.shares;
  masked2 : Protocol3.shares;
  mutable next_epoch : int;
  mutable releases : release list;  (* newest first *)
}

(* SplitMix64 finalisation chain: a 63-bit seed for the per-(group,
   version) generator.  Any fixed injective-ish mixer works — it only
   has to be deterministic and spread nearby (group, version) pairs
   apart. *)
let mix ~seed ~group ~version =
  let splitmix z =
    let open Int64 in
    let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
    logxor z (shift_right_logical z 31)
  in
  let z = splitmix (Int64.add (Int64.of_int seed) 0x9e3779b97f4a7c15L) in
  let z = splitmix (Int64.logxor z (Int64.of_int group)) in
  let z = splitmix (Int64.logxor z (Int64.of_int version)) in
  Int64.to_int (Int64.shift_right_logical z 1)

(* FNV-1a over the IEEE bit patterns of the estimate vector, truncated
   to 61 bits so the digest travels as a plain bounded [Ints] payload. *)
let digest_modulus = 1 lsl 61

let digest_of_estimates estimates =
  let h = ref 0xcbf29ce484222325L in
  let prime = 0x100000001b3L in
  Array.iter
    (fun x ->
      let bits = Int64.bits_of_float x in
      for i = 0 to 7 do
        let b = Int64.logand (Int64.shift_right_logical bits (8 * i)) 0xffL in
        h := Int64.mul (Int64.logxor !h b) prime
      done)
    estimates;
  Int64.to_int (Int64.shift_right_logical !h 3)

let width config =
  match config.Protocol4.estimator with
  | Protocol4.Eq1 -> 1
  | Protocol4.Eq2 _ -> config.Protocol4.h

let create st ~graph ~m ~num_actions ~group_seed config =
  if m < 2 then invalid_arg "Delta.create: need at least two providers";
  if config.Protocol4.h < 1 then invalid_arg "Delta.create: window must be >= 1";
  if config.Protocol4.modulus <= num_actions then
    invalid_arg "Delta.create: modulus must exceed A";
  (match config.Protocol4.estimator with
  | Protocol4.Eq1 -> ()
  | Protocol4.Eq2 w ->
    if Array.length (w :> float array) <> config.Protocol4.h then
      invalid_arg "Delta.create: weight profile length must equal h");
  let ob = Obfuscate.make st graph ~c:config.Protocol4.c_factor in
  let q = Obfuscate.size ob in
  let pairs = ob.Obfuscate.pairs in
  let n = Digraph.n graph in
  let buckets = Array.make n [] in
  Array.iteri (fun k (i, _) -> buckets.(i) <- k :: buckets.(i)) pairs;
  {
    graph;
    pairs;
    sources = Array.map fst pairs;
    sourced = Array.map (fun l -> Array.of_list (List.rev l)) buckets;
    m;
    num_actions;
    config;
    group_seed;
    versions = Array.make n 0;
    masked1 = { Protocol3.den = Array.make n 0.; num = Array.make q 0. };
    masked2 = { Protocol3.den = Array.make n 0.; num = Array.make q 0. };
    next_epoch = 0;
    releases = [];
  }

let pairs t = t.pairs

let releases t = List.rev t.releases

(* One session for all of an epoch's recomputed groups.  The unit of
   recomputation stays the counter group — the user's a_i plus every
   pair sourced at i, so the multiplicative mask r_i keeps cancelling in
   the release quotients — and each group still draws its Protocol 1/2
   batch and then its Protocol 3 mask from its own (group,
   version)-keyed generator, nothing from a shared stream, so replays
   are exact.  The drawn batches are joined block-diagonally: one
   verdict-less core and one verdict run over the joined batch, and the
   third party sees each group's block under that group's own
   permutation.  The mask rounds then carry every group's masked shares
   in one vector per player, written into the host caches at the
   groups' indices. *)
let groups_session t ~groups ~flat_inputs =
  let config = t.config in
  let w = width config in
  let n = Array.length t.masked1.Protocol3.den in
  let modulus = config.Protocol4.modulus in
  let parties = Array.init t.m (fun k -> Wire.Provider k) in
  let third_party = if t.m > 2 then Wire.Provider 2 else Wire.Host in
  let p0 = parties.(0) and p1 = parties.(1) in
  (* Group [groups.(b)]'s block starts at [offsets.(b)] in the joined
     batch (its a_i, then [w] counters per sourced pair), and its floats
     at [slots.(b)] in a player's masked vector (its masked a_i, then
     one masked numerator per sourced pair). *)
  let nb = Array.length groups in
  let offsets = Array.make (nb + 1) 0 and slots = Array.make (nb + 1) 0 in
  Array.iteri
    (fun b g ->
      let q_g = Array.length t.sourced.(g) in
      offsets.(b + 1) <- offsets.(b) + 1 + (q_g * w);
      slots.(b + 1) <- slots.(b) + 1 + q_g)
    groups;
  let total = offsets.(nb) in
  let drawn =
    Array.map
      (fun g ->
        let st_g =
          State.create ~seed:(mix ~seed:t.group_seed ~group:g ~version:t.versions.(g)) ()
        in
        let r =
          Protocol2_distributed.draw st_g ~m:t.m ~modulus ~input_bound:t.num_actions
            ~length:(1 + (Array.length t.sourced.(g) * w))
        in
        (r, Protocol3_distributed.draw st_g ~groups:1))
      groups
  in
  let joined = Protocol2_distributed.concat (Array.to_list (Array.map fst drawn)) in
  let inputs =
    Array.map
      (fun flat () ->
        let v = Array.make total 0 in
        Array.iteri
          (fun b g ->
            v.(offsets.(b)) <- flat.(g);
            Array.iteri
              (fun j k -> Array.blit flat (n + (k * w)) v (offsets.(b) + 1 + (j * w)) w)
              t.sourced.(g))
          groups;
        v)
      flat_inputs
  in
  let core =
    Protocol2_distributed.make_core ~parties ~third_party
      ~slice:(Protocol2_distributed.slice joined ~start:0 ~len:total)
      ~inputs
  in
  let verdict =
    Protocol2_distributed.make_verdict ~p1 ~third_party ~modulus ~input_bound:t.num_actions
      ~y_of:core.Protocol2_distributed.y ~apply:core.Protocol2_distributed.apply_wraps
  in
  (* A player's vector: per recomputed group [b], its activity share
     then one numerator per sourced pair, all under the group's own
     mask, [masks.(b)].  Which group an entry belongs to depends only on
     the epoch's groups, so both players share one index vector. *)
  let index =
    lazy
      (let index = Array.make slots.(nb) 0 in
       for b = 0 to nb - 1 do
         Array.fill index slots.(b) (slots.(b + 1) - slots.(b)) b
       done;
       index)
  in
  let entries share_of () =
    let sh = share_of () in
    let values = Array.make slots.(nb) 0. in
    Array.iteri
      (fun b g ->
        let off = offsets.(b) and pos = slots.(b) in
        values.(pos) <- float_of_int sh.(off);
        Array.iteri
          (fun j _ ->
            values.(pos + 1 + j) <-
              Protocol4_distributed.numerator_share config.Protocol4.estimator sh
                ~at:(off + 1 + (j * w)))
          t.sourced.(g))
      groups;
    (values, Lazy.force index)
  in
  let write (into : Protocol3.shares) v =
    if Array.length v = slots.(nb) then
      Array.iteri
        (fun b g ->
          into.Protocol3.den.(g) <- v.(slots.(b));
          Array.iteri (fun j k -> into.Protocol3.num.(k) <- v.(slots.(b) + 1 + j)) t.sourced.(g))
        groups
  in
  let mask_session =
    Session.with_label "p4-mask"
      (Protocol3_distributed.mask_phase ~p1:p0 ~p2:p1 ~host:Wire.Host
         ~masks:(Array.concat (Array.to_list (Array.map snd drawn)))
         ~agree:nb ~shares1:(entries core.Protocol2_distributed.share1)
         ~shares2:(entries core.Protocol2_distributed.share2)
         ~deliver:(fun v1 v2 ->
           write t.masked1 v1;
           write t.masked2 v2))
  in
  Session.map
    (fun _ -> ())
    (Session.seq
       (Session.with_label "p2-group"
          (Session.seq core.Protocol2_distributed.session verdict.Protocol2_distributed.session))
       mask_session)

(* The per-epoch release: the host folds the caches into the quotient
   estimates and broadcasts their digest, so every engine's transcript
   commits to the released bits — the delta≡full check compares exactly
   these digests. *)
let release_session t ~epoch ~recomputed =
  let parties = Array.init t.m (fun k -> Wire.Provider k) in
  let host ~round ~inbox:_ =
    match round with
    | 1 ->
      let estimates =
        Protocol3.quotients ~groups:t.sources t.masked1 t.masked2
      in
      let digest = digest_of_estimates estimates in
      let strengths = Protocol4.strengths_of_estimates ~graph:t.graph ~pairs:t.pairs estimates in
      t.releases <- { epoch; estimates; strengths; digest; recomputed } :: t.releases;
      Array.to_list
        (Array.map
           (fun p ->
             { Runtime.src = Wire.Host;
               dst = p;
               payload = Runtime.Ints { modulus = digest_modulus; values = [| digest |] } })
           parties)
    | _ -> []
  in
  let provider ~round:_ ~inbox:_ = [] in
  Session.with_label "release"
    (Session.make
       ~parties:(Array.append [| Wire.Host |] parties)
       ~programs:(Array.append [| host |] (Array.map (fun _ -> provider) parties))
       ~rounds:1
       ~result:(fun () -> ()))

let validate_inputs t inputs =
  if Array.length inputs <> t.m then invalid_arg "Delta.epoch_stages: provider count mismatch";
  let n = Array.length t.masked1.Protocol3.den and q = Array.length t.pairs in
  Array.iter
    (fun input ->
      if Array.length input.Protocol4.a <> n then
        invalid_arg "Delta.epoch_stages: activity vector length";
      if Array.length input.Protocol4.c <> q then
        invalid_arg "Delta.epoch_stages: lag counter pair count";
      Array.iter
        (fun row ->
          if Array.length row <> t.config.Protocol4.h then
            invalid_arg "Delta.epoch_stages: lag counter width")
        input.Protocol4.c)
    inputs

(* Bump the versions of the dirtied groups — identically in both modes,
   so the keyed randomness never depends on which mode runs — and
   return the groups to recompute this epoch. *)
let recompute_groups t ~mode ei =
  let n = Array.length t.versions in
  let dirty = Hashtbl.create 16 in
  List.iter
    (fun u ->
      if u < 0 || u >= n then invalid_arg "Delta.epoch_stages: dirty user out of range";
      Hashtbl.replace dirty u ())
    ei.dirty_users;
  List.iter
    (fun k ->
      if k < 0 || k >= Array.length t.pairs then
        invalid_arg "Delta.epoch_stages: dirty pair out of range";
      Hashtbl.replace dirty (fst t.pairs.(k)) ())
    ei.dirty_pairs;
  Hashtbl.iter (fun g () -> t.versions.(g) <- t.versions.(g) + 1) dirty;
  match mode with
  | Full -> Array.init n Fun.id
  | Delta ->
    Array.of_list (List.sort compare (Hashtbl.fold (fun g () acc -> g :: acc) dirty []))

let epoch_stages t ~mode ei =
  if ei.epoch <> t.next_epoch then
    invalid_arg "Delta.epoch_stages: epochs must be consecutive from 0";
  t.next_epoch <- ei.epoch + 1;
  validate_inputs t ei.inputs;
  let flat_inputs =
    Array.map (fun input -> Protocol4.flatten_input t.config.Protocol4.estimator input) ei.inputs
  in
  let groups = recompute_groups t ~mode ei in
  let publish_stages =
    if ei.epoch = 0 then begin
      let n = Array.length t.masked1.Protocol3.den in
      let publish, _received =
        Protocol4_distributed.publish_slice_session ~node_modulus:(max 2 n) ~pairs:t.pairs
          ~m:t.m ~lo:0 ~hi:(Array.length t.pairs)
      in
      [ Plan.stage ~epoch:0 ~label:"publish"
          [| Session.with_epoch 0 (Session.with_label "p4-publish" publish) |];
      ]
    end
    else []
  in
  let group_stages =
    if Array.length groups = 0 then []
    else
      [ Plan.stage ~epoch:ei.epoch ~label:"delta-groups"
          [| Session.with_epoch ei.epoch (groups_session t ~groups ~flat_inputs) |];
      ]
  in
  publish_stages @ group_stages
  @ [
      Plan.stage ~epoch:ei.epoch ~label:"release"
        [|
          Session.with_epoch ei.epoch
            (release_session t ~epoch:ei.epoch ~recomputed:(Array.length groups));
        |];
    ]
