module Wire = Spe_mpc.Wire
module Runtime = Spe_mpc.Runtime
module Session = Spe_mpc.Session
module Digraph = Spe_graph.Digraph
module Log = Spe_actionlog.Log
module Cipher = Spe_crypto.Cipher
module Nat = Spe_bignum.Nat
module Propagation = Spe_influence.Propagation

type prepared = {
  setup_session : unit Session.t;
  pairs : (int * int) array;
  num_actions : int;
  bundle_session : lo:int -> hi:int -> unit Session.t;
  result : unit -> Protocol6.result;
}

let prepare st ~graph ~logs config =
  let m = Array.length logs in
  if m < 2 then invalid_arg "Protocol6_distributed.prepare: need at least two providers";
  if config.Protocol6.key_bits < 16 then
    invalid_arg "Protocol6_distributed.prepare: key too small";
  let n = Digraph.n graph in
  Array.iter
    (fun l ->
      if Log.num_users l <> n then
        invalid_arg "Protocol6_distributed.prepare: log/graph universe mismatch")
    logs;
  let num_actions = Array.fold_left (fun acc l -> max acc (Log.num_actions l)) 0 logs in
  Protocol6.check_exclusive logs num_actions;
  (* Steps 1-2: pair publication (draws the obfuscation). *)
  let publish, pairs, _received_of =
    Protocol4_distributed.publish_pairs_phase st ~graph ~m
      ~c_factor:config.Protocol6.c_factor
  in
  let publish = Session.with_label "p6-publish" publish in
  let q = Array.length pairs in
  let period = 1 + Array.fold_left (fun acc l -> max acc (Log.max_time l)) 0 logs in
  let delta_bits = Wire.bits_for_int_mod (max 2 (period + 1)) in
  let per = Protocol6.slots_per_plaintext config ~delta_bits in
  (* Step 3: host-local keygen, at the central draw position, declaring
     the packed plaintext width so a too-small key fails typed. *)
  let plain_bits = per * delta_bits in
  let cipher =
    match config.Protocol6.scheme with
    | Protocol6.Rsa ->
      Cipher.rsa ~plain_bits ~accel:config.Protocol6.accel st
        ~bits:config.Protocol6.key_bits
    | Protocol6.Paillier ->
      Cipher.paillier ~plain_bits ~accel:config.Protocol6.accel st
        ~bits:config.Protocol6.key_bits
  in
  let z = cipher.Cipher.public.Cipher.ciphertext_bits in
  let chunks_per_action = (q + per - 1) / per in
  (* The key-broadcast phase.  [Cipher.t] deliberately hides the key
     material behind closures, so the broadcast carries a placeholder
     natural of the key's exact wire width — the cost model sees the
     real key size, the providers use the shared [public] closure (the
     same semi-honest shared-object shorthand as the joint coin
     flips). *)
  let key_phase =
    let key_width = cipher.Cipher.public.Cipher.key_bits in
    let host_program ~round ~inbox:_ =
      if round = 1 then
        List.init m (fun k ->
            { Runtime.src = Wire.Host; dst = Wire.Provider k;
              payload = Runtime.Nats { width_bits = key_width; values = [| Nat.zero |] } })
      else []
    in
    let silent ~round:_ ~inbox:_ = [] in
    Session.with_label "p6-key"
      (Session.make
         ~parties:(Array.append [| Wire.Host |] (Array.init m (fun k -> Wire.Provider k)))
         ~programs:(Array.append [| host_program |] (Array.make m silent))
         ~rounds:1
         ~result:(fun () -> ()))
  in
  let setup_session = Session.map (fun (_, ()) -> ()) (Session.seq publish key_phase) in
  (* Steps 4-9: per controlled action, the delta vector over the
     published pairs, packed and encrypted.  The bundles are prepared
     here, in provider order over the {e full} action range, against
     the published pair set — this keeps the probabilistic Paillier
     stream on the single prepare-time draw order whatever the shard cut,
     so ciphertext {e sizes} and plaintexts are engine- and
     shard-independent. *)
  let bundles =
    Array.map
      (fun l ->
        List.map
          (fun action ->
            let deltas = Protocol6.deltas_of_action l ~pairs ~action in
            let plain = Protocol6.pack_deltas ~per ~delta_bits deltas in
            (action, Array.map cipher.Cipher.public.Cipher.encrypt_int plain))
          (Log.actions_present l))
      logs
  in
  let action_modulus = max 2 num_actions in
  let bundle_payload bundle =
    Runtime.Batch
      [
        Runtime.Ints
          { modulus = action_modulus;
            values = Array.of_list (List.map fst bundle) };
        Runtime.Nats { width_bits = z; values = Array.concat (List.map snd bundle) };
      ]
  in
  let decode_bundle = function
    | Runtime.Batch [ Runtime.Ints { values = actions; _ }; Runtime.Nats { values = cts; _ } ]
      ->
      List.init (Array.length actions) (fun i ->
          (actions.(i), Array.sub cts (i * chunks_per_action) chunks_per_action))
    | _ -> []
  in
  (* The merge target: one propagation graph per action, allocated
     up-front; bundle sessions fill {e disjoint} action ranges, so
     sharded and unsharded fills commute to the same array. *)
  let graphs = Array.init num_actions (fun action -> Propagation.of_arcs ~n ~action []) in
  let total_ciphertexts = ref 0 in
  let dones = ref [] in
  (* One bundle relay over the actions in [lo, hi): providers 2..m ship
     their in-range bundles to provider 1 (round 1), who forwards
     everything — own bundle first, then the peers' in party order — to
     the host (round 2); the host decrypts and fills the shared graph
     array at its finishing call.  Bundle payloads are per-action, so
     the shard payload bytes sum exactly to the unsharded relay. *)
  let bundle_session ~lo ~hi =
    if lo < 0 || hi < lo || hi > num_actions then
      invalid_arg "Protocol6_distributed.bundle_session: action range out of range";
    let shard_bundles =
      Array.map (List.filter (fun (action, _) -> action >= lo && action < hi)) bundles
    in
    let done_ = ref false in
    dones := done_ :: !dones;
    let provider_program k ~round ~inbox =
      match round with
      | 1 ->
        if k = 0 then []
        else
          [ { Runtime.src = Wire.Provider k; dst = Wire.Provider 0;
              payload = bundle_payload shard_bundles.(k) } ]
      | 2 when k = 0 ->
        let received =
          List.concat_map (fun msg -> decode_bundle msg.Runtime.payload) inbox
        in
        let all = shard_bundles.(0) @ received in
        [ { Runtime.src = Wire.Provider 0; dst = Wire.Host; payload = bundle_payload all } ]
      | _ -> []
    in
    let host_program ~round ~inbox =
      (if round = 3 then
         match List.concat_map (fun msg -> decode_bundle msg.Runtime.payload) inbox with
         | [] when q > 0 && List.exists (fun b -> b <> []) (Array.to_list shard_bundles) ->
           failwith "Protocol6_distributed: bundles never arrived"
         | all_bundles ->
           (* Steps 11-12 (central code shape): decrypt and keep the real
              arcs with a positive label. *)
           total_ciphertexts :=
             !total_ciphertexts
             + List.fold_left (fun acc (_, cts) -> acc + Array.length cts) 0 all_bundles;
           List.iter
             (fun (action, cts) ->
               let packed = Array.map cipher.Cipher.decrypt_int cts in
               let deltas = Protocol6.unpack_deltas ~per ~delta_bits ~q packed in
               let arcs = ref [] in
               Array.iteri
                 (fun k d ->
                   let u, v = pairs.(k) in
                   if d > 0 && Digraph.mem_edge graph u v then
                     arcs := { Propagation.src = u; dst = v; delta = d } :: !arcs)
                 deltas;
               graphs.(action) <- Propagation.of_arcs ~n ~action !arcs)
             all_bundles;
           done_ := true);
      []
    in
    Session.with_label "p6-bundles"
      (Session.make
         ~parties:(Array.append (Array.init m (fun k -> Wire.Provider k)) [| Wire.Host |])
         ~programs:(Array.append (Array.init m provider_program) [| host_program |])
         ~rounds:2
         ~result:(fun () -> ()))
  in
  let result () =
    if !dones = [] || List.exists (fun d -> not !d) !dones then
      failwith "Protocol6_distributed: host never decrypted";
    { Protocol6.graphs; pairs; ciphertexts = !total_ciphertexts }
  in
  { setup_session; pairs; num_actions; bundle_session; result }
