(* End-to-end tests for the paper's headline protocols: Protocol 4
   (exclusive link strengths), Protocol 5 (non-exclusive class
   aggregation, both obfuscation modes), Protocol 6 (propagation
   graphs), and the drivers.  The specification oracle is always the
   plaintext computation over the unified log. *)

module Log = Spe_actionlog.Log
module Cascade = Spe_actionlog.Cascade
module Partition = Spe_actionlog.Partition
module Digraph = Spe_graph.Digraph
module Generate = Spe_graph.Generate
module Counters = Spe_influence.Counters
module Link_strength = Spe_influence.Link_strength
module Propagation = Spe_influence.Propagation
module Wire = Spe_mpc.Wire
module Protocol4 = Spe_core.Protocol4
module Protocol5 = Spe_core.Protocol5
module Protocol6 = Spe_core.Protocol6
module Driver = Spe_core.Driver
module State = Spe_rng.State

let st () = State.create ~seed:83 ()

(* Standard workload: BA graph + cascades. *)
let workload ?(n = 40) ?(edges_m = 3) ?(num_actions = 25) s =
  let g = Generate.barabasi_albert s ~n ~m:edges_m in
  let planted = Cascade.uniform_probabilities ~p:0.3 g in
  let log =
    Cascade.generate s planted { Cascade.num_actions; seeds_per_action = 1; max_delay = 3 }
  in
  (g, log)

let plaintext_eq1 log g ~h ~pairs =
  let ct = Counters.compute log ~h ~pairs in
  Link_strength.restrict_to_graph ct (Link_strength.all_eq1 ct) g

let plaintext_eq2 log g ~h ~w ~pairs =
  let ct = Counters.compute log ~h ~pairs in
  Link_strength.restrict_to_graph ct (Link_strength.all_eq2 ct w) g

let check_strengths ~expected ~got =
  Alcotest.(check int) "same arc count" (List.length expected) (List.length got);
  List.iter2
    (fun ((u, v), p_exp) ((u', v'), p_got) ->
      if u <> u' || v <> v' then Alcotest.fail "arc mismatch";
      (* Tolerance: summing masked 53-bit float shares of magnitude ~S
         cancels catastrophically, leaving ~ S * 2^-53 absolute noise
         on the counters — about 1e-4 relative at the default
         S = 2^40.  The dedicated precision test quantifies this. *)
      if abs_float (p_exp -. p_got) > 1e-3 *. (p_exp +. 1.) then
        Alcotest.failf "p(%d,%d): secure %.9f <> plaintext %.9f" u v p_got p_exp)
    expected got

(* --- Protocol 4 -------------------------------------------------------------- *)

let test_p4_matches_plaintext_eq1 () =
  let s = st () in
  for m = 2 to 5 do
    let g, log = workload s in
    let logs = Partition.exclusive s log ~m in
    let config = Protocol4.default_config ~h:3 in
    let r = Driver.link_strengths_exclusive s ~graph:g ~logs config in
    let expected = plaintext_eq1 log g ~h:3 ~pairs:r.Driver.detail.Protocol4.pairs in
    check_strengths ~expected ~got:r.Driver.strengths
  done

let test_p4_matches_plaintext_eq2 () =
  let s = st () in
  let g, log = workload s in
  let logs = Partition.exclusive s log ~m:3 in
  let w = Link_strength.linear_decay_weights ~h:4 in
  let config = { (Protocol4.default_config ~h:4) with Protocol4.estimator = Protocol4.Eq2 w } in
  let r = Driver.link_strengths_exclusive s ~graph:g ~logs config in
  let expected = plaintext_eq2 log g ~h:4 ~w ~pairs:r.Driver.detail.Protocol4.pairs in
  check_strengths ~expected ~got:r.Driver.strengths

let test_p4_decoy_pairs_present () =
  let s = st () in
  let g, log = workload s in
  let logs = Partition.exclusive s log ~m:3 in
  let config = { (Protocol4.default_config ~h:3) with Protocol4.c_factor = 2.5 } in
  let r = Driver.link_strengths_exclusive s ~graph:g ~logs config in
  let q = Array.length r.Driver.detail.Protocol4.pairs in
  Alcotest.(check bool) "published set blown up" true
    (q >= int_of_float (2.5 *. float_of_int (Digraph.edge_count g)));
  Alcotest.(check int) "estimates cover all published pairs" q
    (Array.length r.Driver.detail.Protocol4.pair_estimates)

let test_p4_inactive_users_zero () =
  (* A user that never acts must end with p = 0 on all outgoing arcs,
     via the exact zero-cancellation of the masked denominator. *)
  let s = st () in
  let g = Digraph.create ~n:4 [ (0, 1); (2, 3) ] in
  (* User 0 never acts. *)
  let log =
    Log.of_records ~num_users:4 ~num_actions:3
      [
        { Log.user = 2; action = 0; time = 0 };
        { Log.user = 3; action = 0; time = 1 };
        { Log.user = 1; action = 1; time = 5 };
      ]
  in
  let logs = Partition.exclusive s log ~m:2 in
  let config = Protocol4.default_config ~h:2 in
  let r = Driver.link_strengths_exclusive s ~graph:g ~logs config in
  List.iter
    (fun ((u, _), p) -> if u = 0 then Alcotest.(check (float 0.)) "p(0,*) = 0" 0. p)
    r.Driver.strengths;
  (* And the active pair keeps its exact value 1/1. *)
  let p23 = List.assoc (2, 3) r.Driver.strengths in
  Alcotest.(check bool) "p(2,3) = 1" true (abs_float (p23 -. 1.) < 1e-3)

let test_p4_wire_stats_structure () =
  let s = st () in
  let g, log = workload s in
  let m = 4 in
  let logs = Partition.exclusive s log ~m in
  let config = Protocol4.default_config ~h:3 in
  let r = Driver.link_strengths_exclusive s ~graph:g ~logs config in
  let stats = r.Driver.wire in
  (* Table 1: 8 rounds, m^2 + m + 7 messages. *)
  Alcotest.(check int) "NR = 8" 8 stats.Wire.rounds;
  Alcotest.(check int) "NM = m^2 + m + 7" ((m * m) + m + 7) stats.Wire.messages

let test_p4_wire_stats_m2 () =
  (* With m = 2 there is no Protocol 1 collect round and no forwarding
     from providers 3..m: 7 rounds, m(m-1) + 2 + 1 + 2 + 2 + 2 + m
     messages. *)
  let s = st () in
  let g, log = workload s in
  let logs = Partition.exclusive s log ~m:2 in
  let config = Protocol4.default_config ~h:3 in
  let r = Driver.link_strengths_exclusive s ~graph:g ~logs config in
  Alcotest.(check int) "NR = 7 when m = 2" 7 r.Driver.wire.Wire.rounds

let test_p4_leak_arrays_sized () =
  let s = st () in
  let g, log = workload s in
  let logs = Partition.exclusive s log ~m:3 in
  let config = Protocol4.default_config ~h:3 in
  let r = Driver.link_strengths_exclusive s ~graph:g ~logs config in
  let n = Digraph.n g and q = Array.length r.Driver.detail.Protocol4.pairs in
  Alcotest.(check int) "one leak slot per counter (Eq1: n + q)" (n + q)
    (Array.length r.Driver.detail.Protocol4.p2_leaks)

let test_p4_validation () =
  let s = st () in
  let g, log = workload s in
  let logs = Partition.exclusive s log ~m:1 in
  Alcotest.check_raises "one provider rejected"
    (Invalid_argument "Protocol4.run_with_logs: need at least two providers") (fun () ->
      ignore (Driver.link_strengths_exclusive s ~graph:g ~logs (Protocol4.default_config ~h:3)));
  let logs2 = Partition.exclusive s log ~m:2 in
  Alcotest.check_raises "modulus too small"
    (Invalid_argument "Protocol4.run: modulus must exceed A") (fun () ->
      ignore
        (Driver.link_strengths_exclusive s ~graph:g ~logs:logs2
           { (Protocol4.default_config ~h:3) with Protocol4.modulus = 10 }))

(* --- Protocol 5 -------------------------------------------------------------- *)

let class_counters_oracle log =
  (* Plaintext class counters over the unified class log. *)
  let a = Log.user_activity log in
  (a, fun (i, j) l -> Counters.c_single log ~l ~i ~j)

let run_p5 s ~obfuscation log ~d =
  let spec =
    { Partition.action_class = Array.make (Log.num_actions log) 0;
      class_providers = [| Array.init d (fun k -> k) |]; m = d + 1 }
  in
  let parts = Partition.non_exclusive s log ~spec in
  let class_logs = Array.sub parts 0 d in
  let wire = Wire.create () in
  let providers = Array.init d (fun k -> Wire.Provider k) in
  let counters =
    Protocol5.run s ~wire ~h:3 ~providers ~trusted:(Wire.Provider d) ~logs:class_logs
      ~obfuscation
  in
  (counters, Wire.stats wire)

let check_p5_counters log (cc : Protocol5.class_counters) =
  let a_exp, c_exp = class_counters_oracle log in
  Alcotest.(check (array int)) "a counters" a_exp cc.Protocol5.a;
  (* Every stored pair row matches the oracle... *)
  Hashtbl.iter
    (fun (i, j) row ->
      Array.iteri
        (fun l v ->
          if v <> c_exp (i, j) (l + 1) then
            Alcotest.failf "c^%d(%d,%d): got %d want %d" (l + 1) i j v (c_exp (i, j) (l + 1)))
        row)
    cc.Protocol5.c_table;
  (* ...and no non-zero oracle pair is missing. *)
  let n = Log.num_users log in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then
        for l = 1 to 3 do
          let expected = c_exp (i, j) l in
          let got =
            match Hashtbl.find_opt cc.Protocol5.c_table (i, j) with
            | Some row -> row.(l - 1)
            | None -> 0
          in
          if got <> expected then
            Alcotest.failf "missing c^%d(%d,%d): got %d want %d" l i j got expected
        done
    done
  done

let test_p5_basic_correct () =
  let s = st () in
  let _, log = workload ~n:20 ~num_actions:15 s in
  let cc, stats = run_p5 s ~obfuscation:Protocol5.Basic log ~d:3 in
  check_p5_counters log cc;
  Alcotest.(check int) "two rounds" 2 stats.Wire.rounds;
  Alcotest.(check int) "d + 1 messages" 4 stats.Wire.messages

let test_p5_enhanced_correct () =
  let s = st () in
  let _, log = workload ~n:20 ~num_actions:15 s in
  let cc, stats = run_p5 s ~obfuscation:Protocol5.Enhanced log ~d:3 in
  check_p5_counters log cc;
  (* Enhanced mode ships strictly more bits (padding). *)
  let _, basic_stats = run_p5 (st ()) ~obfuscation:Protocol5.Basic log ~d:3 in
  Alcotest.(check bool) "padding costs bits" true (stats.Wire.bits > basic_stats.Wire.bits)

let test_p5_single_provider_class () =
  let s = st () in
  let _, log = workload ~n:15 ~num_actions:10 s in
  let cc, _ = run_p5 s ~obfuscation:Protocol5.Basic log ~d:1 in
  check_p5_counters log cc

let test_p5_trusted_must_be_outside () =
  let s = st () in
  let _, log = workload ~n:10 ~num_actions:5 s in
  let wire = Wire.create () in
  Alcotest.check_raises "trusted inside class"
    (Invalid_argument "Protocol5.run: trusted party must be outside the class providers")
    (fun () ->
      ignore
        (Protocol5.run s ~wire ~h:2 ~providers:[| Wire.Provider 0 |] ~trusted:(Wire.Provider 0)
           ~logs:[| log |] ~obfuscation:Protocol5.Basic))

let test_p5_empty_class () =
  let s = st () in
  let empty = Log.empty ~num_users:5 ~num_actions:3 in
  let wire = Wire.create () in
  let cc =
    Protocol5.run s ~wire ~h:2 ~providers:[| Wire.Provider 0; Wire.Provider 1 |]
      ~trusted:Wire.Host ~logs:[| empty; empty |] ~obfuscation:Protocol5.Enhanced
  in
  Alcotest.(check (array int)) "all-zero activity" (Array.make 5 0) cc.Protocol5.a;
  Alcotest.(check int) "no pairs" 0 (Hashtbl.length cc.Protocol5.c_table)

(* --- non-exclusive driver ------------------------------------------------------ *)

let test_non_exclusive_driver_matches_plaintext () =
  let s = st () in
  List.iter
    (fun obfuscation ->
      let g, log = workload ~n:25 ~num_actions:20 s in
      let m = 4 in
      let spec = Partition.random_class_spec s ~num_actions:20 ~m ~num_classes:3 in
      let logs = Partition.non_exclusive s log ~spec in
      let config = Protocol4.default_config ~h:3 in
      let r = Driver.link_strengths_non_exclusive s ~graph:g ~logs ~spec ~obfuscation config in
      let expected = plaintext_eq1 log g ~h:3 ~pairs:r.Driver.detail.Protocol4.pairs in
      check_strengths ~expected ~got:r.Driver.strengths)
    [ Protocol5.Basic; Protocol5.Enhanced ]

let test_non_exclusive_driver_eq2 () =
  let s = st () in
  let g, log = workload ~n:25 ~num_actions:20 s in
  let m = 3 in
  let spec = Partition.random_class_spec s ~num_actions:20 ~m ~num_classes:2 in
  let logs = Partition.non_exclusive s log ~spec in
  let w = Link_strength.exponential_decay_weights ~h:3 ~alpha:0.6 in
  let config = { (Protocol4.default_config ~h:3) with Protocol4.estimator = Protocol4.Eq2 w } in
  let r =
    Driver.link_strengths_non_exclusive s ~graph:g ~logs ~spec
      ~obfuscation:Protocol5.Basic config
  in
  let expected = plaintext_eq2 log g ~h:3 ~w ~pairs:r.Driver.detail.Protocol4.pairs in
  check_strengths ~expected ~got:r.Driver.strengths

(* --- Protocol 6 ------------------------------------------------------------------ *)

let test_p6_reconstructs_propagation_graphs () =
  let s = st () in
  let g, log = workload ~n:25 ~num_actions:15 s in
  let logs = Partition.exclusive s log ~m:3 in
  let config = { Protocol6.default_config with Protocol6.key_bits = 128 } in
  let wire = Wire.create () in
  let r = Protocol6.run s ~wire ~graph:g ~logs config in
  Alcotest.(check int) "one graph per action" 15 (Array.length r.Protocol6.graphs);
  Array.iteri
    (fun action pg ->
      let expected = Propagation.of_log log g ~action in
      if not (Propagation.equal pg expected) then
        Alcotest.failf "PG(%d) differs from plaintext" action)
    r.Protocol6.graphs

let test_p6_packing_preserves_output_and_saves_bits () =
  let s = State.create ~seed:83 () in
  let g, log = workload ~n:25 ~num_actions:15 s in
  let logs = Partition.exclusive s log ~m:3 in
  let run pack_slots seed =
    let s = State.create ~seed () in
    (* Regenerate the same workload deterministically. *)
    ignore s;
    let s = State.create ~seed:5 () in
    let wire = Wire.create () in
    let config = { Protocol6.default_config with Protocol6.key_bits = 128; pack_slots } in
    let result = Protocol6.run s ~wire ~graph:g ~logs config in
    (result, Wire.stats wire)
  in
  let plain, plain_stats = run 1 1 in
  let packed, packed_stats = run Spe_mpc.Pack.max_packed_bits 2 in
  Array.iteri
    (fun action pg ->
      if not (Propagation.equal pg packed.Protocol6.graphs.(action)) then
        Alcotest.failf "packing changed PG(%d)" action)
    plain.Protocol6.graphs;
  Alcotest.(check bool) "packing cuts ciphertext count" true
    (packed.Protocol6.ciphertexts < plain.Protocol6.ciphertexts);
  Alcotest.(check bool) "packing cuts bits" true
    (packed_stats.Wire.bits < plain_stats.Wire.bits)

let test_p6_paillier_scheme () =
  let s = st () in
  let g, log = workload ~n:15 ~num_actions:8 s in
  let logs = Partition.exclusive s log ~m:2 in
  let wire = Wire.create () in
  let config =
    { Protocol6.default_config with Protocol6.key_bits = 128; scheme = Protocol6.Paillier }
  in
  let r = Protocol6.run s ~wire ~graph:g ~logs config in
  Array.iteri
    (fun action pg ->
      let expected = Propagation.of_log log g ~action in
      if not (Propagation.equal pg expected) then Alcotest.failf "PG(%d) differs" action)
    r.Protocol6.graphs

let test_p6_rejects_non_exclusive () =
  let s = st () in
  let g, log = workload ~n:15 ~num_actions:8 s in
  (* Build overlapping logs: both providers hold the full log. *)
  let logs = [| log; log |] in
  let wire = Wire.create () in
  Alcotest.check_raises "non-exclusive rejected"
    (Invalid_argument "Protocol6.run: logs are not exclusive (run Protocol 5 first)")
    (fun () ->
      ignore
        (Protocol6.run s ~wire ~graph:g ~logs
           { Protocol6.default_config with Protocol6.key_bits = 64 }))

let test_p6_wire_structure () =
  let s = st () in
  let g, log = workload ~n:20 ~num_actions:10 s in
  let m = 4 in
  let logs = Partition.exclusive s log ~m in
  let wire = Wire.create () in
  let _ = Protocol6.run s ~wire ~graph:g ~logs { Protocol6.default_config with Protocol6.key_bits = 128 } in
  let stats = Wire.stats wire in
  (* Table 2: 4 rounds; pairs broadcast (m) + key broadcast (m) +
     bundles (m - 1) + forward (1) = 3m messages. *)
  Alcotest.(check int) "NR = 4" 4 stats.Wire.rounds;
  Alcotest.(check int) "NM = 3m" (3 * m) stats.Wire.messages

(* --- score driver ------------------------------------------------------------------ *)

let test_scores_match_plaintext () =
  let s = st () in
  let g, log = workload ~n:25 ~num_actions:15 s in
  let logs = Partition.exclusive s log ~m:3 in
  let r =
    Driver.user_scores_exclusive s ~graph:g ~logs ~tau:6 ~modulus:(1 lsl 30)
      { Protocol6.default_config with Protocol6.key_bits = 128 }
  in
  let expected = Propagation.score log g ~tau:6 in
  Array.iteri
    (fun i sc ->
      if abs_float (sc -. expected.(i)) > 1e-3 *. (expected.(i) +. 1.) then
        Alcotest.failf "score(%d): secure %.9f <> plaintext %.9f" i sc expected.(i))
    r.Driver.scores

let test_scores_zero_activity_user () =
  let s = st () in
  let g = Digraph.create ~n:3 [ (0, 1); (1, 2) ] in
  let log =
    Log.of_records ~num_users:3 ~num_actions:2
      [ { Log.user = 1; action = 0; time = 0 }; { Log.user = 2; action = 0; time = 1 } ]
  in
  let logs = Partition.exclusive s log ~m:2 in
  let r =
    Driver.user_scores_exclusive s ~graph:g ~logs ~tau:5 ~modulus:(1 lsl 20)
      { Protocol6.default_config with Protocol6.key_bits = 64 }
  in
  Alcotest.(check (float 0.)) "user 0 (inactive) scores 0" 0. r.Driver.scores.(0);
  Alcotest.(check bool) "user 1 scores 1" true (abs_float (r.Driver.scores.(1) -. 1.) < 1e-3)

(* --- Protocol 4's batched Protocol 3 ------------------------------------------------- *)

module Protocol3 = Spe_mpc.Protocol3

(* Steps 1-6 of Protocol 4 with [m = 3], stopping where [Protocol4.run]
   and [Protocol4_multi_host] part: before the host-directed sends. *)
let share_and_mask_of s ~g ~log config =
  let wire = Wire.create () in
  let m = 3 in
  let logs = Partition.exclusive s log ~m in
  let pairs =
    Protocol4.publish_pairs s ~wire ~graph:g ~m ~c_factor:config.Protocol4.c_factor
  in
  let inputs =
    Array.map (fun l -> Protocol4.provider_input_of_log l ~h:config.Protocol4.h ~pairs) logs
  in
  let ms =
    Protocol4.share_and_mask s ~wire ~n:(Digraph.n g) ~num_actions:(Log.num_actions log)
      ~pairs ~inputs config
  in
  (wire, pairs, ms.Protocol4.masked)

(* One group per user: the activity share is the denominator, and every
   published pair (decoys included) is one numerator in the group of its
   source.  The host's quotient over all pairs is the plaintext
   estimate. *)
let check_groups ~g ~pairs ~expected (o : Protocol3.outcome) =
  let n = Digraph.n g and q = Array.length pairs in
  Alcotest.(check int) "one mask per user" n (Array.length o.Protocol3.masks);
  Array.iter
    (fun r -> if not (Float.is_finite r && r > 0.) then Alcotest.failf "mask %g" r)
    o.Protocol3.masks;
  List.iter
    (fun (who, (sh : Protocol3.shares)) ->
      Alcotest.(check int) (who ^ ": one denominator per user") n (Array.length sh.den);
      Alcotest.(check int) (who ^ ": one numerator per pair") q (Array.length sh.num))
    [ ("player 1", o.Protocol3.masked1); ("player 2", o.Protocol3.masked2) ];
  let got =
    Protocol3.quotients ~groups:(Array.map fst pairs) o.Protocol3.masked1 o.Protocol3.masked2
  in
  Array.iteri
    (fun k (u, v) ->
      if abs_float (got.(k) -. expected.(k)) > 1e-3 *. (expected.(k) +. 1.) then
        Alcotest.failf "p(%d,%d): masked %.9f <> plaintext %.9f" u v got.(k) expected.(k))
    pairs

let test_share_and_mask_eq1 () =
  let s = st () in
  let g, log = workload ~n:20 ~num_actions:12 s in
  let config = Protocol4.default_config ~h:2 in
  let wire, pairs, o = share_and_mask_of s ~g ~log config in
  let expected = Link_strength.all_eq1 (Counters.compute log ~h:2 ~pairs) in
  check_groups ~g ~pairs ~expected o;
  List.iter
    (fun (msg : Wire.message) ->
      match (msg.src, msg.dst) with
      | Wire.Provider (0 | 1), Wire.Host -> Alcotest.fail "a player already sent to the host"
      | _ -> ())
    (Wire.messages wire)

let test_share_and_mask_eq2 () =
  (* Each player folds its h lag shares into one numerator before the
     mask, so Eq. 2 masks q numerators, not q * h. *)
  let s = st () in
  let g, log = workload ~n:20 ~num_actions:12 s in
  let w = Link_strength.linear_decay_weights ~h:3 in
  let config = { (Protocol4.default_config ~h:3) with Protocol4.estimator = Protocol4.Eq2 w } in
  let _, pairs, o = share_and_mask_of s ~g ~log config in
  let expected = Link_strength.all_eq2 (Counters.compute log ~h:3 ~pairs) w in
  check_groups ~g ~pairs ~expected o

(* --- robustness / degenerate inputs -------------------------------------------------- *)

let test_p4_empty_logs () =
  (* Nobody ever acted: every strength is exactly zero. *)
  let s = st () in
  let g = Generate.erdos_renyi_gnm s ~n:10 ~m:30 in
  let empty = Log.empty ~num_users:10 ~num_actions:5 in
  let r =
    Driver.link_strengths_exclusive s ~graph:g ~logs:[| empty; empty |]
      (Protocol4.default_config ~h:2)
  in
  Alcotest.(check int) "all arcs present" 30 (List.length r.Driver.strengths);
  List.iter (fun (_, p) -> Alcotest.(check (float 0.)) "zero" 0. p) r.Driver.strengths

let test_p4_edgeless_graph () =
  (* No arcs: the protocol still runs over the n activity counters and
     returns an empty strength list. *)
  let s = st () in
  let g = Digraph.create ~n:6 [] in
  let log =
    Log.of_records ~num_users:6 ~num_actions:3 [ { Log.user = 0; action = 0; time = 0 } ]
  in
  let logs = Partition.exclusive s log ~m:2 in
  let r = Driver.link_strengths_exclusive s ~graph:g ~logs (Protocol4.default_config ~h:2) in
  Alcotest.(check int) "no strengths" 0 (List.length r.Driver.strengths);
  Alcotest.(check bool) "wire still ran" true (r.Driver.wire.Wire.messages > 0)

let test_p4_single_action_universe () =
  let s = st () in
  let g = Digraph.create ~n:3 [ (0, 1); (1, 2) ] in
  let log =
    Log.of_records ~num_users:3 ~num_actions:1
      [ { Log.user = 0; action = 0; time = 0 }; { Log.user = 1; action = 0; time = 1 } ]
  in
  let logs = Partition.exclusive s log ~m:2 in
  let r = Driver.link_strengths_exclusive s ~graph:g ~logs (Protocol4.default_config ~h:2) in
  let p01 = List.assoc (0, 1) r.Driver.strengths in
  Alcotest.(check bool) "p(0,1) = 1 on the single action" true (abs_float (p01 -. 1.) < 1e-3)

let test_p4_window_wider_than_horizon () =
  (* h far beyond the largest gap: every follow counts; nothing breaks. *)
  let s = st () in
  let g, log = workload ~n:15 ~num_actions:8 s in
  let logs = Partition.exclusive s log ~m:2 in
  let r =
    Driver.link_strengths_exclusive s ~graph:g ~logs (Protocol4.default_config ~h:50)
  in
  (* Masked float shares carry ~1e-4 absolute noise at S = 2^40. *)
  List.iter
    (fun (_, p) -> if p < -1e-3 || p > 1. +. 1e-3 then Alcotest.fail "strength out of range")
    r.Driver.strengths

let test_p5_simultaneous_records () =
  (* All class records share one time stamp: the enhanced obfuscation's
     slot padding degenerates gracefully and counters stay correct
     (zero everywhere, since simultaneity is not influence). *)
  let s = st () in
  let recs = List.init 6 (fun u -> { Log.user = u; action = u mod 3; time = 7 }) in
  let log = Log.of_records ~num_users:6 ~num_actions:3 recs in
  let cc, _ = run_p5 s ~obfuscation:Protocol5.Enhanced log ~d:2 in
  Alcotest.(check int) "no influence pairs" 0 (Hashtbl.length cc.Protocol5.c_table);
  Alcotest.(check (array int)) "activity preserved" (Log.user_activity log) cc.Protocol5.a

let test_p6_unperformed_actions () =
  (* Action universe larger than the performed set: empty PGs for the
     silent actions. *)
  let s = st () in
  let g = Digraph.create ~n:4 [ (0, 1) ] in
  let log =
    Log.of_records ~num_users:4 ~num_actions:6
      [ { Log.user = 0; action = 2; time = 0 }; { Log.user = 1; action = 2; time = 1 } ]
  in
  let logs = Partition.exclusive s log ~m:2 in
  let wire = Wire.create () in
  let r =
    Protocol6.run s ~wire ~graph:g ~logs { Protocol6.default_config with Protocol6.key_bits = 64 }
  in
  Alcotest.(check int) "universe-sized output" 6 (Array.length r.Protocol6.graphs);
  Array.iteri
    (fun action pg ->
      let expected = if action = 2 then 1 else 0 in
      Alcotest.(check int)
        (Printf.sprintf "arcs of PG(%d)" action)
        expected
        (Array.length pg.Spe_influence.Propagation.arcs))
    r.Protocol6.graphs

let test_scores_tau_zero () =
  let s = st () in
  let g, log = workload ~n:12 ~num_actions:6 s in
  let logs = Partition.exclusive s log ~m:2 in
  let r =
    Driver.user_scores_exclusive s ~graph:g ~logs ~tau:0 ~modulus:(1 lsl 20)
      { Protocol6.default_config with Protocol6.key_bits = 64 }
  in
  Array.iter (fun sc -> Alcotest.(check (float 1e-9)) "tau=0 scores vanish" 0. sc) r.Driver.scores

let test_non_exclusive_provider_with_no_class () =
  (* A provider that supports no class contributes all-zero counters
     through the zero-input path; results still match plaintext. *)
  let s = st () in
  let g, log = workload ~n:15 ~num_actions:10 s in
  let spec =
    {
      Partition.action_class = Array.make 10 0;
      class_providers = [| [| 0; 1 |] |] (* provider 2 supports nothing *);
      m = 3;
    }
  in
  let logs = Partition.non_exclusive s log ~spec in
  Alcotest.(check int) "provider 3 log is empty" 0 (Log.size logs.(2));
  let config = Protocol4.default_config ~h:2 in
  let r =
    Driver.link_strengths_non_exclusive s ~graph:g ~logs ~spec
      ~obfuscation:Protocol5.Basic config
  in
  let expected = plaintext_eq1 log g ~h:2 ~pairs:r.Driver.detail.Protocol4.pairs in
  check_strengths ~expected ~got:r.Driver.strengths

(* --- QCheck ------------------------------------------------------------------------- *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"protocol 4 equals plaintext on random workloads" ~count:15
      (pair small_nat (int_range 2 4))
      (fun (seed, m) ->
        let s = State.create ~seed () in
        let g, log = workload ~n:15 ~num_actions:10 s in
        let logs = Partition.exclusive s log ~m in
        let config = Protocol4.default_config ~h:2 in
        let r = Driver.link_strengths_exclusive s ~graph:g ~logs config in
        let expected = plaintext_eq1 log g ~h:2 ~pairs:r.Driver.detail.Protocol4.pairs in
        List.for_all2
          (fun ((_, _), p_exp) ((_, _), p_got) -> abs_float (p_exp -. p_got) < 1e-3)
          expected r.Driver.strengths);
    Test.make ~name:"protocol 5 equals plaintext on random workloads" ~count:10
      (pair small_nat (int_range 1 3))
      (fun (seed, d) ->
        let s = State.create ~seed () in
        let _, log = workload ~n:12 ~num_actions:8 s in
        let cc, _ = run_p5 s ~obfuscation:Protocol5.Enhanced log ~d in
        let a_exp = Log.user_activity log in
        cc.Protocol5.a = a_exp);
    Test.make ~name:"multi-host equals plaintext on random splits" ~count:8
      (pair small_nat (int_range 1 3))
      (fun (seed, t) ->
        let s = State.create ~seed () in
        let g, log = workload ~n:14 ~num_actions:8 s in
        let buckets = Array.make t [] in
        Digraph.iter_edges g (fun u v ->
            let j = State.next_int s t in
            buckets.(j) <- (u, v) :: buckets.(j));
        let graphs = Array.map (fun arcs -> Digraph.create ~n:(Digraph.n g) arcs) buckets in
        let logs = Partition.exclusive s log ~m:2 in
        let wire = Wire.create () in
        let results =
          Spe_core.Protocol4_multi_host.run s ~wire ~graphs ~logs
            (Protocol4.default_config ~h:2)
        in
        let a = Log.user_activity log in
        Array.for_all
          (fun r ->
            List.for_all
              (fun ((u, v), p) ->
                let b = Counters.b_single log ~h:2 ~i:u ~j:v in
                let expected = if a.(u) = 0 then 0. else float_of_int b /. float_of_int a.(u) in
                abs_float (p -. expected) < 1e-3 *. (expected +. 1.))
              r.Spe_core.Protocol4_multi_host.strengths)
          results);
  ]

let () =
  Alcotest.run "spe_core"
    [
      ( "protocol4",
        [
          Alcotest.test_case "matches plaintext (Eq1, m=2..5)" `Quick test_p4_matches_plaintext_eq1;
          Alcotest.test_case "matches plaintext (Eq2)" `Quick test_p4_matches_plaintext_eq2;
          Alcotest.test_case "decoy pairs" `Quick test_p4_decoy_pairs_present;
          Alcotest.test_case "inactive users" `Quick test_p4_inactive_users_zero;
          Alcotest.test_case "wire structure (Table 1)" `Quick test_p4_wire_stats_structure;
          Alcotest.test_case "wire structure m=2" `Quick test_p4_wire_stats_m2;
          Alcotest.test_case "leak arrays" `Quick test_p4_leak_arrays_sized;
          Alcotest.test_case "validation" `Quick test_p4_validation;
        ] );
      ( "protocol5",
        [
          Alcotest.test_case "basic obfuscation" `Quick test_p5_basic_correct;
          Alcotest.test_case "enhanced obfuscation" `Quick test_p5_enhanced_correct;
          Alcotest.test_case "single provider class" `Quick test_p5_single_provider_class;
          Alcotest.test_case "trusted outside class" `Quick test_p5_trusted_must_be_outside;
          Alcotest.test_case "empty class" `Quick test_p5_empty_class;
        ] );
      ( "non-exclusive",
        [
          Alcotest.test_case "driver matches plaintext" `Quick
            test_non_exclusive_driver_matches_plaintext;
          Alcotest.test_case "driver Eq2" `Quick test_non_exclusive_driver_eq2;
        ] );
      ( "protocol6",
        [
          Alcotest.test_case "reconstructs PGs" `Quick test_p6_reconstructs_propagation_graphs;
          Alcotest.test_case "packing ablation" `Quick test_p6_packing_preserves_output_and_saves_bits;
          Alcotest.test_case "paillier scheme" `Quick test_p6_paillier_scheme;
          Alcotest.test_case "rejects non-exclusive" `Quick test_p6_rejects_non_exclusive;
          Alcotest.test_case "wire structure (Table 2)" `Quick test_p6_wire_structure;
        ] );
      ( "scores",
        [
          Alcotest.test_case "match plaintext" `Quick test_scores_match_plaintext;
          Alcotest.test_case "zero-activity user" `Quick test_scores_zero_activity_user;
        ] );
      ( "batched-division",
        [
          Alcotest.test_case "one group per user (Eq1)" `Quick test_share_and_mask_eq1;
          Alcotest.test_case "lags folded before the mask (Eq2)" `Quick test_share_and_mask_eq2;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "empty logs" `Quick test_p4_empty_logs;
          Alcotest.test_case "edgeless graph" `Quick test_p4_edgeless_graph;
          Alcotest.test_case "single action" `Quick test_p4_single_action_universe;
          Alcotest.test_case "oversized window" `Quick test_p4_window_wider_than_horizon;
          Alcotest.test_case "simultaneous records" `Quick test_p5_simultaneous_records;
          Alcotest.test_case "unperformed actions" `Quick test_p6_unperformed_actions;
          Alcotest.test_case "tau = 0" `Quick test_scores_tau_zero;
          Alcotest.test_case "idle provider" `Quick test_non_exclusive_provider_with_no_class;
        ] );
      ("properties", List.map (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 4242 |])) qcheck_tests);
    ]
