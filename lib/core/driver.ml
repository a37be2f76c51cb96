module State = Spe_rng.State
module Dist = Spe_rng.Dist
module Wire = Spe_mpc.Wire
module Runtime = Spe_mpc.Runtime
module Protocol2 = Spe_mpc.Protocol2
module Protocol3 = Spe_mpc.Protocol3
module Digraph = Spe_graph.Digraph
module Log = Spe_actionlog.Log
module Partition = Spe_actionlog.Partition
module Propagation = Spe_influence.Propagation

type link_result = {
  strengths : ((int * int) * float) list;
  wire : Wire.stats;
  transcript : Wire.message list;
  detail : Protocol4.result;
}

(* Replay the simulated transcript into a trace, so a central run feeds
   [Spe_obs.Metrics.of_trace] through the same counters as the
   engine-instrumented runs.  The simulated wire charges exact bit
   counts; bytes round up per message. *)
let replay_transcript trace wire =
  if Spe_obs.Trace.enabled trace then
    List.iter
      (fun (msg : Wire.message) ->
        let src = Runtime.party_label msg.Wire.src in
        Spe_obs.Trace.count trace ~party:src ~round:msg.Wire.round Spe_obs.Trace.Messages 1;
        Spe_obs.Trace.count trace ~party:src ~round:msg.Wire.round
          Spe_obs.Trace.Payload_bytes
          ((msg.Wire.bits + 7) / 8))
      (Wire.messages wire)

let link_strengths_exclusive ?(trace = Spe_obs.Trace.disabled ()) st ~graph ~logs config =
  let wire = Wire.create () in
  let detail =
    Spe_obs.Trace.span trace Spe_obs.Trace.Session "session" (fun () ->
        Protocol4.run_with_logs st ~wire ~graph ~logs config)
  in
  Spe_obs.Trace.set_phases trace [ ("p4", (Wire.stats wire).Wire.rounds) ];
  replay_transcript trace wire;
  { strengths = detail.Protocol4.strengths; wire = Wire.stats wire;
    transcript = Wire.messages wire; detail }

(* Pick a trusted third party for one class: a provider outside the
   class when one exists, the host otherwise. *)
let pick_trusted ~m ~class_members =
  let in_class = Array.make m false in
  Array.iter (fun k -> in_class.(k) <- true) class_members;
  let rec scan k = if k >= m then Wire.Host else if in_class.(k) then scan (k + 1) else Wire.Provider k in
  scan 0

let link_strengths_non_exclusive ?(trace = Spe_obs.Trace.disabled ()) st ~graph ~logs ~spec
    ~obfuscation config =
  let m = Array.length logs in
  if m < 2 then invalid_arg "Driver.link_strengths_non_exclusive: need at least two providers";
  if spec.Partition.m <> m then
    invalid_arg "Driver.link_strengths_non_exclusive: spec provider count mismatch";
  let num_actions = Array.fold_left (fun acc l -> max acc (Log.num_actions l)) 0 logs in
  Array.iter
    (fun l -> Partition.validate_class_spec spec ~num_actions:(Log.num_actions l))
    logs;
  let wire = Wire.create () in
  let rounds_so_far () = (Wire.stats wire).Wire.rounds in
  let detail =
    Spe_obs.Trace.span trace Spe_obs.Trace.Session "session" (fun () ->
        (* Protocol 5 per class; the representative (first provider of
           the class) accumulates the class counter sets. *)
        let held = Array.make m [] in
        Array.iteri
          (fun class_id members ->
            let class_logs =
              Array.map
                (fun k ->
                  Log.filter_actions logs.(k) (fun a ->
                      spec.Partition.action_class.(a) = class_id))
                members
            in
            let providers = Array.map (fun k -> Wire.Provider k) members in
            let trusted = pick_trusted ~m ~class_members:members in
            let counters =
              Protocol5.run st ~wire ~h:config.Protocol4.h ~providers ~trusted
                ~logs:class_logs ~obfuscation
            in
            let representative = members.(0) in
            held.(representative) <- counters :: held.(representative))
          spec.Partition.class_providers;
        let class_rounds = rounds_so_far () in
        (* Now the exclusive machinery: publish pairs, build each
           provider's input from the class counters it represents. *)
        let pairs =
          Protocol4.publish_pairs st ~wire ~graph ~m ~c_factor:config.Protocol4.c_factor
        in
        let publish_rounds = rounds_so_far () - class_rounds in
        let n = Digraph.n graph in
        let q = Array.length pairs in
        let zero_input () =
          { Protocol4.a = Array.make n 0; c = Array.make_matrix q config.Protocol4.h 0 }
        in
        let inputs =
          Array.map
            (fun counter_sets ->
              match counter_sets with
              | [] -> zero_input ()
              | sets -> Protocol5.to_provider_input sets ~pairs)
            held
        in
        let detail = Protocol4.run st ~wire ~graph ~num_actions ~pairs ~inputs config in
        Spe_obs.Trace.set_phases trace
          [
            ("p5-class", class_rounds);
            ("p4-publish", publish_rounds);
            ("p4", rounds_so_far () - class_rounds - publish_rounds);
          ];
        detail)
  in
  replay_transcript trace wire;
  { strengths = detail.Protocol4.strengths; wire = Wire.stats wire;
    transcript = Wire.messages wire; detail }

type score_result = {
  scores : float array;
  wire : Wire.stats;
  transcript : Wire.message list;
  graphs : Propagation.t array;
}

let user_scores_exclusive ?(trace = Spe_obs.Trace.disabled ()) st ~graph ~logs ~tau ~modulus
    config =
  let m = Array.length logs in
  if m < 2 then invalid_arg "Driver.user_scores_exclusive: need at least two providers";
  if tau < 0 then invalid_arg "Driver.user_scores_exclusive: negative tau";
  let n = Digraph.n graph in
  let wire = Wire.create () in
  let rounds_so_far () = (Wire.stats wire).Wire.rounds in
  Spe_obs.Trace.span trace Spe_obs.Trace.Session "session" @@ fun () ->
  (* Propagation graphs via Protocol 6. *)
  let p6 = Protocol6.run st ~wire ~graph ~logs config in
  let p6_rounds = rounds_so_far () in
  (* The host computes every numerator locally (Def. 3.3's sphere
     sums over the reconstructed propagation graphs). *)
  let numerators = Propagation.sphere_totals p6.Protocol6.graphs ~n ~tau in
  (* Denominators: batched Protocol 2 over the a-counters, then the
     Protocol 4-style masking toward the host. *)
  let num_actions = Array.fold_left (fun acc l -> max acc (Log.num_actions l)) 0 logs in
  if modulus <= num_actions then invalid_arg "Driver.user_scores_exclusive: modulus must exceed A";
  let parties = Array.init m (fun k -> Wire.Provider k) in
  let third_party = if m > 2 then Wire.Provider 2 else Wire.Host in
  let a_inputs = Array.map (fun l -> Log.user_activity l) logs in
  let { Protocol2.share1; share2; views = _ } =
    Protocol2.run st ~wire ~parties ~third_party ~modulus ~input_bound:num_actions
      ~inputs:a_inputs
  in
  let share_rounds = rounds_so_far () - p6_rounds in
  (* Protocol 3 over the denominators alone: one joint mask per user,
     as in Protocol 4. *)
  let shares_of share = { Protocol3.den = Array.map float_of_int share; num = [||] } in
  let { Protocol3.masks; masked1; masked2 } =
    Protocol3.run st ~wire ~p1:parties.(0) ~p2:parties.(1) ~groups:[||] (shares_of share1)
      (shares_of share2)
  in
  Wire.round wire (fun () ->
      Wire.send wire ~src:parties.(0) ~dst:Wire.Host ~bits:(n * Wire.float_bits);
      Wire.send wire ~src:parties.(1) ~dst:Wire.Host ~bits:(n * Wire.float_bits));
  let masked_denominators =
    Array.init n (fun i -> masked1.Protocol3.den.(i) +. masked2.Protocol3.den.(i))
  in
  (* Blinded unmasking round-trip (see the interface documentation):
     host -> player 1 -> host. *)
  let blinds = Array.init n (fun _ -> Dist.mask_pair st) in
  let to_p1 =
    Array.init n (fun i ->
        if masked_denominators.(i) = 0. then 0.
        else blinds.(i) *. float_of_int numerators.(i) /. masked_denominators.(i))
  in
  Wire.round wire (fun () ->
      Wire.send wire ~src:Wire.Host ~dst:parties.(0) ~bits:(n * Wire.float_bits));
  let from_p1 = Array.init n (fun i -> to_p1.(i) *. masks.(i)) in
  Wire.round wire (fun () ->
      Wire.send wire ~src:parties.(0) ~dst:Wire.Host ~bits:(n * Wire.float_bits));
  let scores = Array.init n (fun i -> from_p1.(i) /. blinds.(i)) in
  Spe_obs.Trace.set_phases trace
    [
      ("p6", p6_rounds);
      ("p2-shares", share_rounds);
      ("scores-final", rounds_so_far () - p6_rounds - share_rounds);
    ];
  replay_transcript trace wire;
  { scores; wire = Wire.stats wire; transcript = Wire.messages wire;
    graphs = p6.Protocol6.graphs }
