module State = Spe_rng.State
module Dist = Spe_rng.Dist
module Wire = Spe_mpc.Wire
module Runtime = Spe_mpc.Runtime
module Session = Spe_mpc.Session
module Protocol2 = Spe_mpc.Protocol2
module Protocol2_distributed = Spe_mpc.Protocol2_distributed
module Digraph = Spe_graph.Digraph
module Obfuscate = Spe_graph.Obfuscate
module Log = Spe_actionlog.Log

type session = Protocol4.result Session.t

let publish_slice_session ~node_modulus ~pairs ~m ~lo ~hi =
  if m < 1 then invalid_arg "Protocol4_distributed.publish_slice_session: need a provider";
  if lo < 0 || hi < lo || hi > Array.length pairs then
    invalid_arg "Protocol4_distributed.publish_slice_session: slice out of range";
  let flat =
    Array.init
      (2 * (hi - lo))
      (fun i ->
        let u, v = pairs.(lo + (i / 2)) in
        if i land 1 = 0 then u else v)
  in
  let received = Array.make m [||] in
  let host_program ~round ~inbox:_ =
    if round = 1 then
      List.init m (fun k ->
          { Runtime.src = Wire.Host; dst = Wire.Provider k;
            payload = Runtime.Ints { modulus = node_modulus; values = flat } })
    else []
  in
  let provider_program k ~round ~inbox =
    if round = 2 then
      List.iter
        (fun msg ->
          match msg.Runtime.payload with
          | Runtime.Ints { values; _ } when msg.Runtime.src = Wire.Host ->
            received.(k) <-
              Array.init
                (Array.length values / 2)
                (fun i -> (values.(2 * i), values.((2 * i) + 1)))
          | _ -> ())
        inbox;
    []
  in
  let parties = Array.append [| Wire.Host |] (Array.init m (fun k -> Wire.Provider k)) in
  let programs = Array.append [| host_program |] (Array.init m provider_program) in
  let session = Session.make ~parties ~programs ~rounds:1 ~result:(fun () -> ()) in
  (session, fun k -> received.(k))

let publish_pairs_phase st ~graph ~m ~c_factor =
  if m < 1 then invalid_arg "Protocol4_distributed.publish_pairs_phase: need a provider";
  let ob = Obfuscate.make st graph ~c:c_factor in
  let q = Obfuscate.size ob in
  let pairs = ob.Obfuscate.pairs in
  let node_modulus = max 2 (Digraph.n graph) in
  let session, received_of = publish_slice_session ~node_modulus ~pairs ~m ~lo:0 ~hi:q in
  (Session.map (fun () -> pairs) session, pairs, received_of)

let make st ~graph ~num_actions ~m ~provider_input_of config =
  if m < 2 then invalid_arg "Protocol4_distributed.make: need at least two providers";
  if config.Protocol4.h < 1 then invalid_arg "Protocol4_distributed.make: window must be >= 1";
  if config.Protocol4.modulus <= num_actions then
    invalid_arg "Protocol4_distributed.make: modulus must exceed A";
  (match config.Protocol4.estimator with
  | Protocol4.Eq1 -> ()
  | Protocol4.Eq2 w ->
    if Array.length (w :> float array) <> config.Protocol4.h then
      invalid_arg "Protocol4_distributed.make: weight profile length must equal h");
  let n = Digraph.n graph in
  let h = config.Protocol4.h in
  (* Steps 1-2: the host publishes the obfuscated pair set. *)
  let publish, pairs, pairs_of =
    publish_pairs_phase st ~graph ~m ~c_factor:config.Protocol4.c_factor
  in
  let publish = Session.with_label "p4-publish" publish in
  let q = Array.length pairs in
  let len = match config.Protocol4.estimator with Protocol4.Eq1 -> n + q | Protocol4.Eq2 _ -> n + (q * h) in
  let parties = Array.init m (fun k -> Wire.Provider k) in
  let third_party = if m > 2 then Wire.Provider 2 else Wire.Host in
  (* Steps 3-4: the batched Protocol 2, each provider building its flat
     counter vector from the pair set it received in phase 1. *)
  let flat_input k () =
    let input = provider_input_of ~k ~pairs:(pairs_of k) in
    if Array.length input.Protocol4.a <> n then
      invalid_arg "Protocol4_distributed: activity vector length";
    if Array.length input.Protocol4.c <> q then
      invalid_arg "Protocol4_distributed: lag counter pair count";
    Array.iter
      (fun row ->
        if Array.length row <> h then invalid_arg "Protocol4_distributed: lag counter width")
      input.Protocol4.c;
    Protocol4.flatten_input config.Protocol4.estimator input
  in
  let share_session, handle =
    Protocol2_distributed.make_lazy st ~parties ~third_party ~modulus:config.Protocol4.modulus
      ~input_bound:num_actions ~length:len
      ~inputs:(Array.init m (fun k -> flat_input k))
  in
  (* Steps 5-6: the per-user masks, jointly drawn by players 1 and 2 off
     the shared generator (central draw position). *)
  let masks = Array.init n (fun _ -> Dist.mask_pair st) in
  let p0 = parties.(0) and p1 = parties.(1) in
  let pair_estimates = ref [||] and strengths = ref [] in
  let player me other share_of my_pairs ~round ~inbox:_ =
    match round with
    | 1 | 2 ->
      (* The joint mask agreement: one exchange of contributions per
         step, as the central cost model charges (the mask values
         themselves come off the shared generator). *)
      [ { Runtime.src = me; dst = other; payload = Runtime.Floats (Array.make n 0.) } ]
    | 3 ->
      (* Steps 7-8: combine, mask, and ship to the host. *)
      let masked_a, masked_num =
        Protocol4.masked_shares_of_flat config.Protocol4.estimator ~h ~n ~pairs:(my_pairs ())
          ~masks (share_of ())
      in
      [ { Runtime.src = me; dst = Wire.Host;
          payload = Runtime.Floats (Array.append masked_a masked_num) } ]
    | _ -> []
  in
  let v0 = ref None and v1 = ref None in
  let host_program ~round:_ ~inbox =
    List.iter
      (fun msg ->
        match msg.Runtime.payload with
        | Runtime.Floats v when Array.length v = n + q ->
          if msg.Runtime.src = p0 then v0 := Some v
          else if msg.Runtime.src = p1 then v1 := Some v
        | _ -> ())
      inbox;
    (match (!v0, !v1) with
    | Some a, Some b ->
      (* Step 9: reconstruct the quotients and keep the real arcs. *)
      let est =
        Protocol4.pair_estimates_of_masked ~pairs ~masked_a1:(Array.sub a 0 n)
          ~masked_a2:(Array.sub b 0 n) ~masked_num1:(Array.sub a n q)
          ~masked_num2:(Array.sub b n q)
      in
      pair_estimates := est;
      strengths := Protocol4.strengths_of_estimates ~graph ~pairs est
    | _ -> ());
    []
  in
  let mask_phase =
    Session.with_label "p4-mask"
      (Session.make
         ~parties:[| p0; p1; Wire.Host |]
         ~programs:
           [|
             player p0 p1 handle.Protocol2_distributed.share1 (fun () -> pairs_of 0);
             player p1 p0 handle.Protocol2_distributed.share2 (fun () -> pairs_of 1);
             host_program;
           |]
         ~rounds:3
         ~result:(fun () -> ()))
  in
  Session.map
    (fun ((_, p2result), ()) ->
      {
        Protocol4.strengths = !strengths;
        pairs;
        pair_estimates = !pair_estimates;
        p2_leaks = p2result.Protocol2.views.Protocol2.p2_leaks;
        p3_leaks = p2result.Protocol2.views.Protocol2.p3_leaks;
      })
    (Session.seq (Session.seq publish share_session) mask_phase)

let make_with_logs st ~graph ~logs config =
  let m = Array.length logs in
  if m < 2 then invalid_arg "Protocol4_distributed.make_with_logs: need at least two providers";
  let num_actions = Array.fold_left (fun acc l -> max acc (Log.num_actions l)) 0 logs in
  Array.iter
    (fun l ->
      if Log.num_users l <> Digraph.n graph then
        invalid_arg "Protocol4_distributed.make_with_logs: log/graph user universe mismatch")
    logs;
  make st ~graph ~num_actions ~m
    ~provider_input_of:(fun ~k ~pairs ->
      Protocol4.provider_input_of_log logs.(k) ~h:config.Protocol4.h ~pairs)
    config

let run st ~wire ~graph ~logs config = Session.run (make_with_logs st ~graph ~logs config) ~wire
