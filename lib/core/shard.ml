module Dist = Spe_rng.Dist
module Wire = Spe_mpc.Wire
module Runtime = Spe_mpc.Runtime
module Session = Spe_mpc.Session
module Protocol2_distributed = Spe_mpc.Protocol2_distributed
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
     unsharded order: the pair obfuscation, the batched Protocol 2
     secrets, the per-user masks.  Shards are then cut as contiguous
     chunks of the already-drawn (and already-permuted) published
     order — no extra draws, so the k = 1 plan is the monolithic
     session wire-for-wire, and any k merges to the same bits. *)
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
  let masks = Array.init n (fun _ -> Dist.mask_pair st) in
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
     flat vector, bit-identical to computing it per shard.  Memoised on
     first use, not precomputed: the non-exclusive inputs read the
     Protocol 5 class results, which exist only once the p5-classes
     stage has run.  Mutex, not [Lazy]: concurrent shard sessions race
     to the first force, and [Lazy.force] is not thread-safe. *)
  let input_lock = Mutex.create () in
  let full_flat_memo = Array.make m None in
  let full_flat k =
    Mutex.lock input_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock input_lock)
      (fun () ->
        match full_flat_memo.(k) with
        | Some flat -> flat
        | None ->
          let input = provider_input_of ~k ~pairs in
          if Array.length input.Protocol4.a <> n then
            invalid_arg "Shard.links: activity vector length";
          if Array.length input.Protocol4.c <> q then
            invalid_arg "Shard.links: lag counter pair count";
          Array.iter
            (fun row ->
              if Array.length row <> h then
                invalid_arg "Shard.links: lag counter width")
            input.Protocol4.c;
          let flat = Protocol4.flatten_input config.Protocol4.estimator input in
          full_flat_memo.(k) <- Some flat;
          flat)
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
              let flat = full_flat k in
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
  let ma1 = Array.make n 0. and ma2 = Array.make n 0. in
  let mn1 = Array.make q 0. and mn2 = Array.make q 0. in
  let mask_session r =
    let n_s = r.u1 - r.u0 and q_s = r.a1 - r.a0 in
    (* Shard-local copy of [Protocol4.masked_shares_of_flat]'s
       arithmetic: same operations in the same order on the same
       values, so the floats are bit-identical — the whole-array helper
       indexes masks globally for users but per-pair for numerators, so
       it cannot be applied to a slice directly. *)
    let numerator_share sh j =
      match config.Protocol4.estimator with
      | Protocol4.Eq1 -> float_of_int sh.(n_s + j)
      | Protocol4.Eq2 wts ->
        let wts = (wts :> float array) in
        let acc = ref 0. in
        for l = 0 to h - 1 do
          acc := !acc +. (wts.(l) *. float_of_int sh.(n_s + (j * h) + l))
        done;
        !acc
    in
    let player me other share_of my_pairs ~round ~inbox:_ =
      match round with
      | 1 | 2 ->
        [ { Runtime.src = me; dst = other; payload = Runtime.Floats (Array.make n_s 0.) } ]
      | 3 ->
        let sh = share_of () in
        let pr = my_pairs () in
        let masked_a =
          Array.init n_s (fun i -> masks.(r.u0 + i) *. float_of_int sh.(i))
        in
        let masked_num =
          Array.init q_s (fun j ->
              let i, _ = pr.(j) in
              masks.(i) *. numerator_share sh j)
        in
        [ { Runtime.src = me; dst = Wire.Host;
            payload = Runtime.Floats (Array.append masked_a masked_num) } ]
      | _ -> []
    in
    let host_program ~round:_ ~inbox =
      List.iter
        (fun msg ->
          match msg.Runtime.payload with
          | Runtime.Floats v when Array.length v = n_s + q_s ->
            let write ma mn =
              for i = 0 to n_s - 1 do
                ma.(r.u0 + i) <- v.(i)
              done;
              for j = 0 to q_s - 1 do
                mn.(r.a0 + j) <- v.(n_s + j)
              done
            in
            if msg.Runtime.src = p0 then write ma1 mn1
            else if msg.Runtime.src = p1 then write ma2 mn2
          | _ -> ())
        inbox;
      []
    in
    Session.with_label "p4-mask"
      (Session.make
         ~parties:[| p0; p1; Wire.Host |]
         ~programs:
           [|
             player p0 p1 r.core.Protocol2_distributed.share1 (fun () -> r.received_of 0);
             player p1 p0 r.core.Protocol2_distributed.share2 (fun () -> r.received_of 1);
             host_program;
           |]
         ~rounds:3
         ~result:(fun () -> ()))
  in
  let result () =
    let est =
      Protocol4.pair_estimates_of_masked ~pairs ~masked_a1:ma1 ~masked_a2:ma2
        ~masked_num1:mn1 ~masked_num2:mn2
    in
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
     unsharded driver does (same draws); they have no mutual dataflow,
     so the plan runs them as one concurrent stage. *)
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
     then cut into k contiguous bundle relays. *)
  let p = Protocol6_distributed.prepare st ~graph ~logs config in
  let parties = Array.init m (fun k -> Wire.Provider k) in
  let third_party = if m > 2 then Wire.Provider 2 else Wire.Host in
  let share_session, handle =
    Protocol2_distributed.make_lazy st ~parties ~third_party ~modulus
      ~input_bound:num_actions ~length:n
      ~inputs:(Array.init m (fun k () -> Log.user_activity logs.(k)))
  in
  let masks = Array.init n (fun _ -> Dist.mask_pair st) in
  let blinds = Array.init n (fun _ -> Dist.mask_pair st) in
  let p0 = parties.(0) and p1 = parties.(1) in
  let final_phase =
    Driver_distributed.scores_final_phase ~n ~p0 ~p1 ~masks ~blinds
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
        Driver_distributed.scores = final_phase.Session.result ();
        graphs = (p.Protocol6_distributed.result ()).Protocol6.graphs;
      })
