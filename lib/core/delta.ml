module State = Spe_rng.State
module Dist = Spe_rng.Dist
module Wire = Spe_mpc.Wire
module Runtime = Spe_mpc.Runtime
module Session = Spe_mpc.Session
module Protocol2_distributed = Spe_mpc.Protocol2_distributed
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
  ma1 : float array;
  ma2 : float array;
  mn1 : float array;
  mn2 : float array;
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
    sourced = Array.map (fun l -> Array.of_list (List.rev l)) buckets;
    m;
    num_actions;
    config;
    group_seed;
    versions = Array.make n 0;
    ma1 = Array.make n 0.;
    ma2 = Array.make n 0.;
    mn1 = Array.make q 0.;
    mn2 = Array.make q 0.;
    next_epoch = 0;
    releases = [];
  }

let pairs t = t.pairs

let releases t = List.rev t.releases

(* One group's recomputation: a fresh Protocol 2 share of the group's
   counters — the user's a_i plus every pair sourced at i, so the
   multiplicative mask r_i keeps cancelling in the release quotients —
   then the Protocol 3 mask rounds, writing the masked shares into the
   host caches at the group's indices.  All randomness comes from the
   (group, version)-keyed generator, nothing from a shared stream, so
   groups recompute independently and replays are exact. *)
let group_session t ~group:g ~flat_inputs =
  let config = t.config in
  let h = config.Protocol4.h in
  let w = width config in
  let ks = t.sourced.(g) in
  let q_g = Array.length ks in
  let len = 1 + (q_g * w) in
  let n = Array.length t.ma1 in
  let parties = Array.init t.m (fun k -> Wire.Provider k) in
  let third_party = if t.m > 2 then Wire.Provider 2 else Wire.Host in
  let p0 = parties.(0) and p1 = parties.(1) in
  let st_g =
    State.create ~seed:(mix ~seed:t.group_seed ~group:g ~version:t.versions.(g)) ()
  in
  let inputs =
    Array.map
      (fun flat () ->
        Array.init len (fun i ->
            if i = 0 then flat.(g)
            else
              let j = (i - 1) / w and l = (i - 1) mod w in
              flat.(n + (ks.(j) * w) + l)))
      flat_inputs
  in
  let share_session, handle =
    Protocol2_distributed.make_lazy st_g ~parties ~third_party
      ~modulus:config.Protocol4.modulus ~input_bound:t.num_actions ~length:len ~inputs
  in
  let mask = Dist.mask_pair st_g in
  let numerator_share sh j =
    match config.Protocol4.estimator with
    | Protocol4.Eq1 -> float_of_int sh.(1 + j)
    | Protocol4.Eq2 wts ->
      let wts = (wts :> float array) in
      let acc = ref 0. in
      for l = 0 to h - 1 do
        acc := !acc +. (wts.(l) *. float_of_int sh.(1 + (j * h) + l))
      done;
      !acc
  in
  let player me other share_of ~round ~inbox:_ =
    match round with
    | 1 | 2 -> [ { Runtime.src = me; dst = other; payload = Runtime.Floats [| 0. |] } ]
    | 3 ->
      let sh = share_of () in
      let masked =
        Array.init (1 + q_g) (fun i ->
            if i = 0 then mask *. float_of_int sh.(0)
            else mask *. numerator_share sh (i - 1))
      in
      [ { Runtime.src = me; dst = Wire.Host; payload = Runtime.Floats masked } ]
    | _ -> []
  in
  let host_program ~round:_ ~inbox =
    List.iter
      (fun msg ->
        match msg.Runtime.payload with
        | Runtime.Floats v when Array.length v = 1 + q_g ->
          let write ma mn =
            ma.(g) <- v.(0);
            Array.iteri (fun j k -> mn.(k) <- v.(1 + j)) ks
          in
          if msg.Runtime.src = p0 then write t.ma1 t.mn1
          else if msg.Runtime.src = p1 then write t.ma2 t.mn2
        | _ -> ())
      inbox;
    []
  in
  let mask_session =
    Session.with_label "p4-mask"
      (Session.make
         ~parties:[| p0; p1; Wire.Host |]
         ~programs:
           [|
             player p0 p1 handle.Protocol2_distributed.share1;
             player p1 p0 handle.Protocol2_distributed.share2;
             host_program;
           |]
         ~rounds:3
         ~result:(fun () -> ()))
  in
  Session.map
    (fun _ -> ())
    (Session.seq
       (Session.with_label "p2-group" (Session.map ignore share_session))
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
        Protocol4.pair_estimates_of_masked ~pairs:t.pairs ~masked_a1:t.ma1
          ~masked_a2:t.ma2 ~masked_num1:t.mn1 ~masked_num2:t.mn2
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
  let n = Array.length t.ma1 and q = Array.length t.pairs in
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
  let sessions =
    Array.map
      (fun g -> Session.with_epoch ei.epoch (group_session t ~group:g ~flat_inputs))
      groups
  in
  let publish_stages =
    if ei.epoch = 0 then begin
      let n = Array.length t.ma1 in
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
    if Array.length sessions = 0 then []
    else [ Plan.stage ~epoch:ei.epoch ~label:"delta-groups" sessions ]
  in
  publish_stages @ group_stages
  @ [
      Plan.stage ~epoch:ei.epoch ~label:"release"
        [|
          Session.with_epoch ei.epoch
            (release_session t ~epoch:ei.epoch ~recomputed:(Array.length groups));
        |];
    ]

let epoch_plan t ~mode ei =
  let epoch = ei.epoch in
  let stages = epoch_stages t ~mode ei in
  Plan.make ~shards:1 ~stages ~result:(fun () ->
      match t.releases with
      | r :: _ when r.epoch = epoch -> r
      | _ -> failwith "Delta.epoch_plan: release was not produced")
