module Dist = Spe_rng.Dist
module Wire = Spe_mpc.Wire
module Runtime = Spe_mpc.Runtime
module Session = Spe_mpc.Session
module Protocol2_distributed = Spe_mpc.Protocol2_distributed
module Protocol3 = Spe_mpc.Protocol3
module Protocol3_distributed = Spe_mpc.Protocol3_distributed
module Digraph = Spe_graph.Digraph
module Obfuscate = Spe_graph.Obfuscate
module Log = Spe_actionlog.Log
module Partition = Spe_actionlog.Partition
module Propagation = Spe_influence.Propagation

(* One link-pipeline shard: the counter groups [i0, i1) of the
   published order — user counters [u0, u1) and pair groups [a0, a1) —
   with its publish slice, its Protocol 2 core, and the pair slice each
   provider received. *)
type links_shard = {
  u0 : int;
  u1 : int;
  a0 : int;
  a1 : int;
  core : Protocol2_distributed.core;
  received_of : int -> (int * int) array;
  session : unit Session.t;
}

let links_plan st ~graph ~num_actions ~m ~provider_input_of ~pre_stages ~shards config =
  if m < 2 then invalid_arg "Shard.links: need at least two providers";
  if shards < 1 then invalid_arg "Shard.links: need at least one shard";
  if config.Protocol4.h < 1 then invalid_arg "Shard.links: window must be >= 1";
  if config.Protocol4.modulus <= num_actions then
    invalid_arg "Shard.links: modulus must exceed A";
  (match config.Protocol4.estimator with
  | Protocol4.Eq1 -> ()
  | Protocol4.Eq2 w ->
    if Array.length (w :> float array) <> config.Protocol4.h then
      invalid_arg "Shard.links: weight profile length must equal h");
  let n = Digraph.n graph in
  let h = config.Protocol4.h in
  (* Every draw happens here, at plan-build time, in exactly the
     central order: the pair obfuscation, the batched Protocol 2
     secrets, the per-user masks.  Shards are then cut as contiguous
     chunks of the already-drawn (and already-permuted) published
     order — no extra draws, so any k merges to the same bits. *)
  let ob = Obfuscate.make st graph ~c:config.Protocol4.c_factor in
  let q = Obfuscate.size ob in
  let pairs = ob.Obfuscate.pairs in
  let node_modulus = max 2 n in
  let w = match config.Protocol4.estimator with Protocol4.Eq1 -> 1 | Protocol4.Eq2 _ -> h in
  let len = n + (q * w) in
  let parties = Array.init m (fun k -> Wire.Provider k) in
  let third_party = if m > 2 then Wire.Provider 2 else Wire.Host in
  let p0 = parties.(0) and p1 = parties.(1) in
  let rand =
    Protocol2_distributed.draw st ~m ~modulus:config.Protocol4.modulus
      ~input_bound:num_actions ~length:len
  in
  let masks = Protocol3_distributed.draw st ~groups:n in
  (* Cut the n + q counter groups (user counters have width 1, pair
     groups width [w] in the flat Protocol 2 vector) into k contiguous
     chunks. *)
  let items = n + q in
  let k_eff = max 1 (min shards items) in
  let bound s = s * items / k_eff in
  (* Each provider's counters are computed once, against the full
     published pair list — [Counters.compute] pays a per-action scan of
     the whole log no matter how short its pair slice, so per-shard
     recomputation would multiply that scan by k.  Per-pair rows are
     independent, so every shard's input is a plain slice of this one
     flat vector, bit-identical to computing it per shard.  Forced on
     first use, not precomputed: the non-exclusive inputs read the
     Protocol 5 class results, which exist only once the p5-classes
     stage has run. *)
  let full_flat =
    Array.init m (fun k ->
        lazy
          (let input = provider_input_of ~k ~pairs in
           if Array.length input.Protocol4.a <> n then
             invalid_arg "Shard.links: activity vector length";
           if Array.length input.Protocol4.c <> q then
             invalid_arg "Shard.links: lag counter pair count";
           Array.iter
             (fun row ->
               if Array.length row <> h then invalid_arg "Shard.links: lag counter width")
             input.Protocol4.c;
           Protocol4.flatten_input config.Protocol4.estimator input))
  in
  let shard_records =
    Array.init k_eff (fun s ->
        let i0 = bound s and i1 = bound (s + 1) in
        let u0 = min i0 n and u1 = min i1 n in
        let a0 = max i0 n - n and a1 = max i1 n - n in
        let n_s = u1 - u0 and q_s = a1 - a0 in
        let publish, received_of =
          Protocol4_distributed.publish_slice_session ~node_modulus ~pairs ~m ~lo:a0
            ~hi:a1
        in
        let publish = Session.with_label "p4-publish" publish in
        let sl =
          Protocol2_distributed.slice rand ~start:(u0 + (a0 * w)) ~len:(n_s + (q_s * w))
        in
        let inputs =
          Array.init m (fun k () ->
              let flat = Lazy.force full_flat.(k) in
              Array.append (Array.sub flat u0 n_s) (Array.sub flat (n + (a0 * w)) (q_s * w)))
        in
        let core = Protocol2_distributed.make_core ~parties ~third_party ~slice:sl ~inputs in
        let session =
          Session.map
            (fun ((), ()) -> ())
            (Session.seq publish core.Protocol2_distributed.session)
        in
        { u0; u1; a0; a1; core; received_of; session })
  in
  let cores =
    Array.to_list shard_records |> List.map (fun r -> r.core)
  in
  (* One full-batch verdict: the third party re-assembles y from the
     per-core vectors.  Core [y] values are in the slice's induced
     permuted order — entry [j] belongs to the j-th smallest global
     slot of the slice — so scattering through the sorted slot arrays
     rebuilds the full permuted y, and the single [Bits] announcement
     is byte-identical to the unsharded one. *)
  let y_of () =
    let y = Array.make len 0 in
    List.iter
      (fun (core : Protocol2_distributed.core) ->
        let ym = core.y () in
        Array.iteri (fun j p -> y.(p) <- ym.(j)) core.slots)
      cores;
    y
  in
  let apply verdicts =
    List.iter (fun (core : Protocol2_distributed.core) -> core.apply_wraps verdicts) cores
  in
  let verdict =
    Protocol2_distributed.make_verdict ~p1:parties.(1) ~third_party
      ~modulus:config.Protocol4.modulus ~input_bound:num_actions ~y_of ~apply
  in
  (* The masking phase, per shard, writing into the plan-level masked
     arrays: the host's merge is a plain disjoint-range scatter, so the
     final quotients run over exactly the arrays the unsharded host
     collects. *)
  let masked1 = { Protocol3.den = Array.make n 0.; num = Array.make q 0. } in
  let masked2 = { Protocol3.den = Array.make n 0.; num = Array.make q 0. } in
  let mask_session r =
    let n_s = r.u1 - r.u0 and q_s = r.a1 - r.a0 in
    (* A player's vector: the activity shares of the shard's users,
       then one numerator per shard pair in the group of its source. *)
    let entries share_of received () =
      let sh = share_of () and pr = received () in
      let values = Array.make (n_s + q_s) 0. and index = Array.make (n_s + q_s) 0 in
      for i = 0 to n_s - 1 do
        values.(i) <- float_of_int sh.(i);
        index.(i) <- r.u0 + i
      done;
      for j = 0 to q_s - 1 do
        values.(n_s + j) <-
          Protocol4_distributed.numerator_share config.Protocol4.estimator sh ~at:(n_s + (j * w));
        index.(n_s + j) <- fst pr.(j)
      done;
      (values, index)
    in
    let write (into : Protocol3.shares) v =
      if Array.length v = n_s + q_s then begin
        Array.blit v 0 into.Protocol3.den r.u0 n_s;
        Array.blit v n_s into.Protocol3.num r.a0 q_s
      end
    in
    Session.with_label "p4-mask"
      (Protocol3_distributed.mask_phase ~p1:p0 ~p2:p1 ~host:Wire.Host ~masks ~agree:n_s
         ~shares1:(entries r.core.Protocol2_distributed.share1 (fun () -> r.received_of 0))
         ~shares2:(entries r.core.Protocol2_distributed.share2 (fun () -> r.received_of 1))
         ~deliver:(fun v1 v2 ->
           write masked1 v1;
           write masked2 v2))
  in
  let result () =
    let est = Protocol3.quotients ~groups:(Array.map fst pairs) masked1 masked2 in
    {
      Protocol4.strengths = Protocol4.strengths_of_estimates ~graph ~pairs est;
      pairs;
      pair_estimates = est;
      p2_leaks =
        Array.concat
          (List.map
             (fun (c : Protocol2_distributed.core) -> c.p2_leaks ())
             cores);
      p3_leaks = verdict.Protocol2_distributed.p3_leaks ();
    }
  in
  Plan.make ~shards:k_eff
    ~stages:
      (pre_stages
      @ [
          Plan.stage ~label:"links-shards"
            (Array.map (fun r -> r.session) shard_records);
          Plan.stage ~label:"p2-verdict" [| verdict.Protocol2_distributed.session |];
          Plan.stage ~label:"p4-mask" (Array.map mask_session shard_records);
        ])
    ~result

let links_exclusive st ~graph ~logs ~shards config =
  let m = Array.length logs in
  if m < 2 then invalid_arg "Shard.links_exclusive: need at least two providers";
  let num_actions = Array.fold_left (fun acc l -> max acc (Log.num_actions l)) 0 logs in
  Array.iter
    (fun l ->
      if Log.num_users l <> Digraph.n graph then
        invalid_arg "Shard.links_exclusive: log/graph user universe mismatch")
    logs;
  links_plan st ~graph ~num_actions ~m
    ~provider_input_of:(fun ~k ~pairs ->
      Protocol4.provider_input_of_log logs.(k) ~h:config.Protocol4.h ~pairs)
    ~pre_stages:[] ~shards config

let links_non_exclusive st ~graph ~logs ~spec ~obfuscation ~shards config =
  let m = Array.length logs in
  if m < 2 then
    invalid_arg "Shard.links_non_exclusive: need at least two providers";
  if spec.Partition.m <> m then
    invalid_arg "Shard.links_non_exclusive: spec provider count mismatch";
  let num_actions = Array.fold_left (fun acc l -> max acc (Log.num_actions l)) 0 logs in
  Array.iter
    (fun l -> Partition.validate_class_spec spec ~num_actions:(Log.num_actions l))
    logs;
  (* The Protocol 5 class sessions, built in class order exactly as the
     central driver runs them (same draws); the representative of each
     class accumulates an accessor to the class counters, which its
     Protocol 4 input reads once the class stage has run.  The sessions
     have no mutual dataflow, so the plan runs them as one concurrent
     stage. *)
  let held = Array.make m [] in
  let class_sessions =
    Array.to_list spec.Partition.class_providers
    |> List.mapi (fun class_id members ->
           let class_logs =
             Array.map
               (fun k ->
                 Log.filter_actions logs.(k) (fun a ->
                     spec.Partition.action_class.(a) = class_id))
               members
           in
           let providers = Array.map (fun k -> Wire.Provider k) members in
           let trusted = Driver.pick_trusted ~m ~class_members:members in
           let s =
             Protocol5_distributed.make st ~h:config.Protocol4.h ~providers ~trusted
               ~logs:class_logs ~obfuscation
           in
           held.(members.(0)) <- s.Session.result :: held.(members.(0));
           Session.map ignore s)
  in
  let n = Digraph.n graph in
  let pre_stages =
    match class_sessions with
    | [] -> []
    | ss -> [ Plan.stage ~label:"p5-classes" (Array.of_list ss) ]
  in
  links_plan st ~graph ~num_actions ~m
    ~provider_input_of:(fun ~k ~pairs ->
      match held.(k) with
      | [] ->
        { Protocol4.a = Array.make n 0;
          c = Array.make_matrix (Array.length pairs) config.Protocol4.h 0 }
      | accessors ->
        Protocol5.to_provider_input (List.map (fun f -> f ()) accessors) ~pairs)
    ~pre_stages ~shards config

type scores = { scores : float array; graphs : Propagation.t array }

(* The final unmasking phase: Protocol 3's mask phase over the
   activity shares (rounds 1-3: mask agreement, masked denominators to
   the host), then the blinded round-trip host -> player 1 -> host
   (rounds 4-5), the host dividing at its finishing call.
   [share1]/[share2] read the players' Protocol 2 activity shares and
   [numerators_of] the Protocol 6 sphere totals; all three are forced
   only once the phase is executing (the numerators inside the host
   program at round 4), after every earlier stage has delivered.  The
   session result is the score vector. *)
let scores_final_phase ~n ~p0 ~p1 ~masks ~blinds ~share1 ~share2 ~numerators_of =
  let masked_denominators = ref None in
  let entries share_of () = (Array.map float_of_int (share_of ()), Array.init n Fun.id) in
  let mask =
    Protocol3_distributed.mask_phase ~p1:p0 ~p2:p1 ~host:Wire.Host ~masks ~agree:n
      ~shares1:(entries share1) ~shares2:(entries share2)
      ~deliver:(fun a b ->
        masked_denominators := Some (Array.init n (fun i -> a.(i) +. b.(i))))
  in
  let floats_from party inbox =
    List.find_map
      (fun msg ->
        match msg.Runtime.payload with
        | Runtime.Floats v when msg.Runtime.src = party -> Some v
        | _ -> None)
      inbox
  in
  let player1 ~round ~inbox =
    match (round, floats_from Wire.Host inbox) with
    | 2, Some to_p1 ->
      [ { Runtime.src = p0; dst = Wire.Host;
          payload = Runtime.Floats (Array.init n (fun i -> to_p1.(i) *. masks.(i))) } ]
    | _ -> []
  in
  let scores_ref = ref [||] in
  let host_program ~round ~inbox =
    match (round, !masked_denominators) with
    | 1, Some masked_denominators ->
      let numerators = numerators_of () in
      let to_p1 =
        Array.init n (fun i ->
            if masked_denominators.(i) = 0. then 0.
            else blinds.(i) *. float_of_int numerators.(i) /. masked_denominators.(i))
      in
      [ { Runtime.src = Wire.Host; dst = p0; payload = Runtime.Floats to_p1 } ]
    | 3, _ ->
      (match floats_from p0 inbox with
      | Some from_p1 -> scores_ref := Array.init n (fun i -> from_p1.(i) /. blinds.(i))
      | None -> ());
      []
    | _ -> []
  in
  let blinded =
    Session.make ~parties:[| p0; Wire.Host |] ~programs:[| player1; host_program |] ~rounds:2
      ~result:(fun () -> !scores_ref)
  in
  Session.with_label "scores-final" (Session.map snd (Session.seq mask blinded))

let user_scores_exclusive st ~graph ~logs ~tau ~modulus ~shards config =
  let m = Array.length logs in
  if m < 2 then
    invalid_arg "Shard.user_scores_exclusive: need at least two providers";
  if tau < 0 then invalid_arg "Shard.user_scores_exclusive: negative tau";
  if shards < 1 then invalid_arg "Shard.user_scores_exclusive: need at least one shard";
  let n = Digraph.n graph in
  let num_actions = Array.fold_left (fun acc l -> max acc (Log.num_actions l)) 0 logs in
  if modulus <= num_actions then
    invalid_arg "Shard.user_scores_exclusive: modulus must exceed A";
  (* All Protocol 6 draws (obfuscation, keygen, every encryption)
     happen at prepare time in the central order; the action range is
     then cut into k contiguous bundle relays.  The activity Protocol 2
     draws, then the joint per-user masks, then the host's blinds
     follow — the central draw order. *)
  let p = Protocol6_distributed.prepare st ~graph ~logs config in
  let parties = Array.init m (fun k -> Wire.Provider k) in
  let third_party = if m > 2 then Wire.Provider 2 else Wire.Host in
  let share_session, handle =
    Protocol2_distributed.make_lazy st ~parties ~third_party ~modulus
      ~input_bound:num_actions ~length:n
      ~inputs:(Array.init m (fun k () -> Log.user_activity logs.(k)))
  in
  let masks = Protocol3_distributed.draw st ~groups:n in
  let blinds = Array.init n (fun _ -> Dist.mask_pair st) in
  let p0 = parties.(0) and p1 = parties.(1) in
  let final_phase =
    scores_final_phase ~n ~p0 ~p1 ~masks ~blinds
      ~share1:handle.Protocol2_distributed.share1
      ~share2:handle.Protocol2_distributed.share2
      ~numerators_of:(fun () ->
        Propagation.sphere_totals
          (p.Protocol6_distributed.result ()).Protocol6.graphs ~n ~tau)
  in
  let actions = p.Protocol6_distributed.num_actions in
  let k_eff = max 1 (min shards actions) in
  let bound s = s * actions / k_eff in
  let bundle_sessions =
    Array.init k_eff (fun s ->
        p.Protocol6_distributed.bundle_session ~lo:(bound s) ~hi:(bound (s + 1)))
  in
  Plan.make ~shards:k_eff
    ~stages:
      [
        Plan.stage ~label:"p6-setup" [| p.Protocol6_distributed.setup_session |];
        Plan.stage ~label:"p6-bundles" bundle_sessions;
        Plan.stage ~label:"scores-share"
          [| Session.map ignore (Session.seq share_session final_phase) |];
      ]
    ~result:(fun () ->
      {
        scores = final_phase.Session.result ();
        graphs = (p.Protocol6_distributed.result ()).Protocol6.graphs;
      })
