(* Tests for the plaintext influence algorithms: counters against
   hand-computed examples and brute force, link strengths (Eqs. 1-2),
   propagation graphs and scores (Defs. 3.1-3.3), ground-truth recovery
   from cascades, and influence maximisation. *)

module Log = Spe_actionlog.Log
module Cascade = Spe_actionlog.Cascade
module Digraph = Spe_graph.Digraph
module Generate = Spe_graph.Generate
module Counters = Spe_influence.Counters
module Link_strength = Spe_influence.Link_strength
module Propagation = Spe_influence.Propagation
module Maximize = Spe_influence.Maximize
module State = Spe_rng.State

let st () = State.create ~seed:47 ()

let r u a t = { Log.user = u; action = a; time = t }

(* A small hand-checkable log: 3 users, 3 actions.
   action 0: u0@1, u1@2, u2@5
   action 1: u0@1, u1@4
   action 2: u1@1, u0@2 *)
let small_log () =
  Log.of_records ~num_users:3 ~num_actions:3
    [ r 0 0 1; r 1 0 2; r 2 0 5; r 0 1 1; r 1 1 4; r 1 2 1; r 0 2 2 ]

(* --- counters ------------------------------------------------------------ *)

let test_counters_hand_computed () =
  let log = small_log () in
  let pairs = [| (0, 1); (1, 0); (0, 2); (1, 2) |] in
  let ct = Counters.compute log ~h:3 ~pairs in
  Alcotest.(check (array int)) "a_i" [| 3; 3; 1 |] ct.Counters.a;
  (* b^3(0,1): action 0 (gap 1, yes), action 1 (gap 3, yes), action 2
     (u1 before u0, no) = 2.
     b^3(1,0): only action 2 qualifies (gap 1) = 1.
     b^3(0,2): action 0 gap 4 > 3 = 0.
     b^3(1,2): action 0 gap 3 = 1. *)
  Alcotest.(check (array int)) "b^3" [| 2; 1; 0; 1 |] ct.Counters.b;
  (* c-lags for (0,1): gaps 1 and 3 -> c^1 = 1, c^2 = 0, c^3 = 1. *)
  Alcotest.(check (array int)) "c lags of (0,1)" [| 1; 0; 1 |] ct.Counters.c.(0)

let test_counters_window_sensitivity () =
  let log = small_log () in
  Alcotest.(check int) "h=1 only fast follows" 1 (Counters.b_single log ~h:1 ~i:0 ~j:1);
  Alcotest.(check int) "h=2" 1 (Counters.b_single log ~h:2 ~i:0 ~j:1);
  Alcotest.(check int) "h=3 catches the slow follow" 2 (Counters.b_single log ~h:3 ~i:0 ~j:1);
  Alcotest.(check int) "h=4 wide window includes (0,2)" 1 (Counters.b_single log ~h:4 ~i:0 ~j:2)

let test_counters_b_equals_sum_c () =
  let s = st () in
  let g = Generate.erdos_renyi_gnm s ~n:25 ~m:120 in
  let planted = Cascade.uniform_probabilities ~p:0.35 g in
  let log = Cascade.generate s planted { Cascade.num_actions = 30; seeds_per_action = 1; max_delay = 4 } in
  let ct = Counters.compute_graph log ~h:5 g in
  Array.iteri
    (fun k b ->
      let sum_c = Array.fold_left ( + ) 0 ct.Counters.c.(k) in
      if b <> sum_c then Alcotest.failf "b <> sum of c at pair %d" k)
    ct.Counters.b

let test_counters_simultaneous_not_counted () =
  (* Strict inequality t < t': same-time actions are not influence. *)
  let log = Log.of_records ~num_users:2 ~num_actions:1 [ r 0 0 3; r 1 0 3 ] in
  Alcotest.(check int) "simultaneity excluded" 0 (Counters.b_single log ~h:5 ~i:0 ~j:1)

let test_counters_add () =
  let log = small_log () in
  let pairs = [| (0, 1); (1, 2) |] in
  let ct = Counters.compute log ~h:3 ~pairs in
  let doubled = Counters.add ct ct in
  Alcotest.(check (array int)) "a doubled" (Array.map (fun x -> 2 * x) ct.Counters.a)
    doubled.Counters.a;
  Alcotest.(check (array int)) "b doubled" (Array.map (fun x -> 2 * x) ct.Counters.b)
    doubled.Counters.b

let test_counters_split_sum_identity () =
  (* The exclusive-case identity: counters of a log equal the sum of
     the counters of any exclusive split (Sec. 5.1). *)
  let s = st () in
  let g = Generate.erdos_renyi_gnm s ~n:20 ~m:80 in
  let planted = Cascade.uniform_probabilities ~p:0.4 g in
  let log = Cascade.generate s planted { Cascade.num_actions = 12; seeds_per_action = 1; max_delay = 2 } in
  let parts = Spe_actionlog.Partition.exclusive s log ~m:3 in
  let pairs = Array.of_list (Digraph.edges g) in
  let whole = Counters.compute log ~h:3 ~pairs in
  let summed =
    Array.to_list parts
    |> List.map (fun l -> Counters.compute l ~h:3 ~pairs)
    |> function
    | [] -> assert false
    | first :: rest -> List.fold_left Counters.add first rest
  in
  Alcotest.(check (array int)) "a additive" whole.Counters.a summed.Counters.a;
  Alcotest.(check (array int)) "b additive" whole.Counters.b summed.Counters.b

(* --- link strength -------------------------------------------------------- *)

let test_eq1 () =
  let log = small_log () in
  let ct = Counters.compute log ~h:3 ~pairs:[| (0, 1); (2, 0) |] in
  Alcotest.(check (float 1e-9)) "p(0,1) = 2/3" (2. /. 3.) (Link_strength.eq1 ct ~k:0);
  Alcotest.(check (float 1e-9)) "p(2,0) = 0/1" 0. (Link_strength.eq1 ct ~k:1)

let test_eq1_zero_denominator () =
  let log = Log.of_records ~num_users:2 ~num_actions:1 [ r 1 0 0 ] in
  let ct = Counters.compute log ~h:2 ~pairs:[| (0, 1) |] in
  Alcotest.(check (float 1e-9)) "a_i = 0 gives p = 0" 0. (Link_strength.eq1 ct ~k:0)

let test_eq2_uniform_equals_eq1 () =
  let s = st () in
  let g = Generate.erdos_renyi_gnm s ~n:20 ~m:100 in
  let planted = Cascade.uniform_probabilities ~p:0.3 g in
  let log = Cascade.generate s planted { Cascade.num_actions = 25; seeds_per_action = 1; max_delay = 3 } in
  let ct = Counters.compute_graph log ~h:4 g in
  let w = Link_strength.uniform_weights ~h:4 in
  let p1 = Link_strength.all_eq1 ct and p2 = Link_strength.all_eq2 ct w in
  Array.iteri
    (fun k v -> if abs_float (v -. p2.(k)) > 1e-9 then Alcotest.fail "eq2(uniform) <> eq1")
    p1

let test_eq2_decay_weights () =
  let w = Link_strength.linear_decay_weights ~h:4 in
  let wa = (w :> float array) in
  Alcotest.(check (float 1e-9)) "weights sum to h" 4. (Array.fold_left ( +. ) 0. wa);
  Alcotest.(check bool) "decreasing" true (wa.(0) > wa.(1) && wa.(1) > wa.(2) && wa.(2) > wa.(3));
  let we = Link_strength.exponential_decay_weights ~h:3 ~alpha:0.5 in
  let wea = (we :> float array) in
  Alcotest.(check (float 1e-9)) "exp weights sum to h" 3. (Array.fold_left ( +. ) 0. wea);
  Alcotest.(check (float 1e-9)) "exp ratio" 0.5 (wea.(1) /. wea.(0))

let test_eq2_favors_fast_followers () =
  (* Two followee-follower pairs, same b but different lags: decaying
     weights must rank the fast follower higher. *)
  let log =
    Log.of_records ~num_users:4 ~num_actions:2
      [ r 0 0 0; r 1 0 1 (* fast *); r 2 1 0; r 3 1 3 (* slow *) ]
  in
  let ct = Counters.compute log ~h:3 ~pairs:[| (0, 1); (2, 3) |] in
  let w = Link_strength.linear_decay_weights ~h:3 in
  Alcotest.(check bool) "fast > slow" true
    (Link_strength.eq2 ct w ~k:0 > Link_strength.eq2 ct w ~k:1);
  (* while eq1 sees them as equal *)
  Alcotest.(check (float 1e-9)) "eq1 ties" (Link_strength.eq1 ct ~k:0) (Link_strength.eq1 ct ~k:1)

let test_weights_validation () =
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Link_strength.weights_of_array: non-positive weight")
    (fun () -> ignore (Link_strength.weights_of_array [| 2.; -1.; 2. |]));
  Alcotest.check_raises "wrong sum"
    (Invalid_argument "Link_strength.weights_of_array: weights must sum to h")
    (fun () -> ignore (Link_strength.weights_of_array [| 1.; 1.; 2. |]))

let test_ground_truth_recovery () =
  (* With h >= max_delay, Eq. (1) recovers the planted probability
     exactly in expectation when each node has a single potential
     influencer (in a dense graph the estimator is diluted: a node
     already activated by another parent cannot "follow").  A star
     rooted at node 0 gives that single-parent structure: whenever 0 is
     active at time 0, each leaf independently follows with p_true. *)
  let s = st () in
  let n = 10 in
  let g = Digraph.create ~n (List.init (n - 1) (fun j -> (0, j + 1))) in
  let p_true = 0.45 in
  let planted = Cascade.uniform_probabilities ~p:p_true g in
  let log =
    Cascade.generate s planted { Cascade.num_actions = 3000; seeds_per_action = 1; max_delay = 3 }
  in
  let ct = Counters.compute_graph log ~h:3 g in
  let strengths = Link_strength.all_eq1 ct in
  let mean = Array.fold_left ( +. ) 0. strengths /. float_of_int (Array.length strengths) in
  Alcotest.(check bool)
    (Printf.sprintf "mean estimate %.3f near planted %.3f" mean p_true)
    true
    (abs_float (mean -. p_true) < 0.05)

(* --- counter engines: sparse and streaming ------------------------------------ *)

module Stream = Spe_influence.Stream

let counters_equal (x : Counters.t) (y : Counters.t) =
  x.Counters.a = y.Counters.a && x.Counters.b = y.Counters.b && x.Counters.c = y.Counters.c
  && x.Counters.both = y.Counters.both

let random_workload_with_pairs s =
  let g = Generate.erdos_renyi_gnm s ~n:20 ~m:80 in
  let planted = Cascade.uniform_probabilities ~p:0.4 g in
  let log = Cascade.generate s planted { Cascade.num_actions = 15; seeds_per_action = 1; max_delay = 3 } in
  let pairs = Array.of_list (Digraph.edges g) in
  (log, pairs)

let test_sparse_matches_dense () =
  let s = st () in
  for _ = 1 to 20 do
    let log, pairs = random_workload_with_pairs s in
    let dense = Counters.compute log ~h:3 ~pairs in
    let sparse = Counters.compute_sparse log ~h:3 ~pairs in
    let auto = Counters.compute_auto log ~h:3 ~pairs in
    if not (counters_equal dense sparse) then Alcotest.fail "sparse <> dense";
    if not (counters_equal dense auto) then Alcotest.fail "auto <> dense"
  done

let test_stream_matches_batch () =
  let s = st () in
  for _ = 1 to 20 do
    let log, pairs = random_workload_with_pairs s in
    let acc =
      Stream.create ~num_users:(Log.num_users log) ~num_actions:(Log.num_actions log) ~h:3
        ~pairs ()
    in
    (* Ingest in a shuffled order to exercise out-of-order arrival. *)
    let recs = Array.of_list (Log.records log) in
    let perm = Spe_rng.Perm.random s (Array.length recs) in
    Array.iter (Stream.add acc) (Spe_rng.Perm.permute_array perm recs);
    Alcotest.(check int) "record count" (Log.size log) (Stream.records acc);
    if not (counters_equal (Counters.compute log ~h:3 ~pairs) (Stream.snapshot acc)) then
      Alcotest.fail "stream <> batch"
  done

let test_stream_snapshot_isolated () =
  (* A snapshot must not alias the accumulator. *)
  let pairs = [| (0, 1) |] in
  let acc = Stream.create ~num_users:2 ~num_actions:2 ~h:2 ~pairs () in
  Stream.add acc { Log.user = 0; action = 0; time = 0 };
  let snap = Stream.snapshot acc in
  Stream.add acc { Log.user = 1; action = 0; time = 1 };
  Alcotest.(check int) "old snapshot unchanged" 0 snap.Counters.b.(0);
  Alcotest.(check int) "accumulator advanced" 1 (Stream.snapshot acc).Counters.b.(0)

let test_stream_rejects_duplicates () =
  let acc = Stream.create ~num_users:2 ~num_actions:1 ~h:2 ~pairs:[| (0, 1) |] () in
  Stream.add acc { Log.user = 0; action = 0; time = 0 };
  Alcotest.check_raises "duplicate" (Stream.Duplicate_record { user = 0; action = 0 })
    (fun () -> Stream.add acc { Log.user = 0; action = 0; time = 5 })

(* --- jaccard and partial credit ---------------------------------------------- *)

module Credit = Spe_influence.Credit

let test_jaccard_hand_computed () =
  let log = small_log () in
  (* Pair (0,1): a_0 = 3, a_1 = 3, both = 3 (actions 0, 1, 2), b^3 = 2:
     jaccard = 2 / (3 + 3 - 3) = 2/3.  Pair (0,2): both = 1 (action 0),
     b = 0 at h = 3: jaccard = 0 / (3 + 1 - 1) = 0. *)
  let ct = Counters.compute log ~h:3 ~pairs:[| (0, 1); (0, 2) |] in
  Alcotest.(check (array int)) "both counters" [| 3; 1 |] ct.Counters.both;
  Alcotest.(check (float 1e-9)) "jaccard(0,1)" (2. /. 3.) (Link_strength.jaccard ct ~k:0);
  Alcotest.(check (float 1e-9)) "jaccard(0,2)" 0. (Link_strength.jaccard ct ~k:1)

let test_jaccard_bounded () =
  let s = st () in
  let g = Generate.erdos_renyi_gnm s ~n:20 ~m:80 in
  let planted = Cascade.uniform_probabilities ~p:0.5 g in
  let log = Cascade.generate s planted Cascade.default_params in
  let ct = Counters.compute_graph log ~h:3 g in
  Array.iter
    (fun v -> if v < 0. || v > 1. then Alcotest.fail "jaccard out of [0,1]")
    (Link_strength.all_jaccard ct)

let test_jaccard_penalises_busy_targets () =
  (* Same successes, but one follower is hyperactive: Jaccard demotes
     that link while Eq. 1 cannot tell them apart. *)
  let recs =
    (* u0 does actions 0..3; v1 follows on all of them and does nothing
       else; v2 follows on all of them and also does actions 4..9. *)
    List.concat_map
      (fun a -> [ r 0 a 0; r 1 a 1; r 2 a 1 ])
      [ 0; 1; 2; 3 ]
    @ List.map (fun a -> r 2 a 0) [ 4; 5; 6; 7; 8; 9 ]
  in
  let log = Log.of_records ~num_users:3 ~num_actions:10 recs in
  let ct = Counters.compute log ~h:2 ~pairs:[| (0, 1); (0, 2) |] in
  Alcotest.(check (float 1e-9)) "eq1 ties"
    (Link_strength.eq1 ct ~k:0) (Link_strength.eq1 ct ~k:1);
  Alcotest.(check bool) "jaccard separates" true
    (Link_strength.jaccard ct ~k:0 > Link_strength.jaccard ct ~k:1)

let test_partial_credit_splits () =
  (* Two parents activate together; the child follows: each parent gets
     half a credit. *)
  let g = Digraph.create ~n:3 [ (0, 2); (1, 2) ] in
  let log = Log.of_records ~num_users:3 ~num_actions:1 [ r 0 0 0; r 1 0 0; r 2 0 1 ] in
  let table = Credit.credits log g ~h:2 in
  Alcotest.(check (float 1e-9)) "half credit" 0.5 (Hashtbl.find table (0, 2));
  Alcotest.(check (float 1e-9)) "half credit" 0.5 (Hashtbl.find table (1, 2))

let test_partial_credit_equals_eq1_single_parent () =
  (* Single-parent structure: credits are whole, so p_pc = Eq. 1. *)
  let s = st () in
  let n = 8 in
  let g = Digraph.create ~n (List.init (n - 1) (fun j -> (0, j + 1))) in
  let planted = Cascade.uniform_probabilities ~p:0.5 g in
  let log = Cascade.generate s planted { Cascade.num_actions = 200; seeds_per_action = 1; max_delay = 2 } in
  let pc = Credit.strengths log g ~h:2 in
  let ct = Counters.compute_graph log ~h:2 g in
  let eq1 = Link_strength.all_eq1 ct in
  List.iteri
    (fun k (_, p) ->
      if abs_float (p -. eq1.(k)) > 1e-9 then Alcotest.fail "pc <> eq1 on star")
    pc

let test_partial_credit_total_preserved () =
  (* Credits over all arcs sum to the number of influenced activations
     (each splits one unit). *)
  let s = st () in
  let g = Generate.erdos_renyi_gnm s ~n:15 ~m:60 in
  let planted = Cascade.uniform_probabilities ~p:0.5 g in
  let log = Cascade.generate s planted Cascade.default_params in
  let table = Credit.credits log g ~h:3 in
  let total = Hashtbl.fold (fun _ c acc -> acc +. c) table 0. in
  Alcotest.(check bool) "integral total" true (abs_float (total -. Float.round total) < 1e-9)

(* --- discretization ------------------------------------------------------------ *)

module Discretize = Spe_actionlog.Discretize

let test_rebin () =
  let log = Log.of_records ~num_users:2 ~num_actions:2
      [ r 0 0 100; r 1 0 137; r 0 1 19 ] in
  let binned = Discretize.rebin log ~step:50 in
  Alcotest.(check (option int)) "bin 2" (Some 2) (Log.time_of binned ~user:0 ~action:0);
  Alcotest.(check (option int)) "bin 2 again" (Some 2) (Log.time_of binned ~user:1 ~action:0);
  Alcotest.(check (option int)) "bin 0" (Some 0) (Log.time_of binned ~user:0 ~action:1)

let test_rebin_step_one_identity () =
  let s = st () in
  let g = Generate.erdos_renyi_gnm s ~n:10 ~m:30 in
  let planted = Cascade.uniform_probabilities ~p:0.5 g in
  let log = Cascade.generate s planted Cascade.default_params in
  Alcotest.(check bool) "identity" true (Log.equal log (Discretize.rebin log ~step:1))

let test_rebin_coarsens_counters () =
  (* A follow at distance 120 invisible at h=3 on raw stamps becomes a
     1-step follow after rebinning by 100. *)
  let log = Log.of_records ~num_users:2 ~num_actions:1 [ r 0 0 50; r 1 0 170 ] in
  Alcotest.(check int) "raw: outside window" 0 (Counters.b_single log ~h:3 ~i:0 ~j:1);
  let binned = Discretize.rebin log ~step:100 in
  Alcotest.(check int) "binned: inside window" 1 (Counters.b_single binned ~h:3 ~i:0 ~j:1)

let test_jitter_bounds () =
  let s = st () in
  let log = Log.of_records ~num_users:2 ~num_actions:2 [ r 0 0 10; r 1 1 0 ] in
  for _ = 1 to 50 do
    let j = Discretize.jitter s log ~amount:3 in
    List.iter
      (fun (rc : Log.record) ->
        if rc.Log.time < 0 then Alcotest.fail "negative time after jitter";
        let original = if rc.Log.user = 0 then 10 else 0 in
        if abs (rc.Log.time - original) > 3 && original > 3 then
          Alcotest.fail "jitter exceeded amount")
      (Log.records j)
  done

let test_span () =
  Alcotest.(check int) "empty" 0 (Discretize.span (Log.empty ~num_users:2 ~num_actions:1));
  let log = Log.of_records ~num_users:2 ~num_actions:2 [ r 0 0 5; r 1 1 42 ] in
  Alcotest.(check int) "span" 37 (Discretize.span log)

(* --- propagation / scores -------------------------------------------------- *)

let test_propagation_graph () =
  let g = Digraph.create ~n:3 [ (0, 1); (1, 2); (0, 2) ] in
  let log = small_log () in
  (* action 0: u0@1, u1@2, u2@5; arcs (0,1) d=1, (1,2) d=3, (0,2) d=4. *)
  let pg = Propagation.of_log log g ~action:0 in
  Alcotest.(check int) "three arcs" 3 (Array.length pg.Propagation.arcs);
  let expect =
    [
      { Propagation.src = 0; dst = 1; delta = 1 };
      { Propagation.src = 0; dst = 2; delta = 4 };
      { Propagation.src = 1; dst = 2; delta = 3 };
    ]
  in
  Alcotest.(check bool) "arc labels" true (Array.to_list pg.Propagation.arcs = expect)

let test_propagation_excludes_wrong_direction () =
  let g = Digraph.create ~n:3 [ (0, 1) ] in
  (* u1 acts before u0: no arc despite the social link. *)
  let log = Log.of_records ~num_users:3 ~num_actions:1 [ r 1 0 1; r 0 0 5 ] in
  let pg = Propagation.of_log log g ~action:0 in
  Alcotest.(check int) "no arc" 0 (Array.length pg.Propagation.arcs)

let test_sphere () =
  let g = Digraph.create ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  let log =
    Log.of_records ~num_users:4 ~num_actions:1 [ r 0 0 0; r 1 0 2; r 2 0 4; r 3 0 10 ]
  in
  let pg = Propagation.of_log log g ~action:0 in
  (* Labels: (0,1)=2, (1,2)=2, (2,3)=6. *)
  Alcotest.(check (list int)) "tau=4" [ 1; 2 ] (Propagation.sphere pg ~src:0 ~tau:4);
  Alcotest.(check (list int)) "tau=10" [ 1; 2; 3 ] (Propagation.sphere pg ~src:0 ~tau:10);
  Alcotest.(check (list int)) "tau=1" [] (Propagation.sphere pg ~src:0 ~tau:1);
  Alcotest.(check int) "sphere excludes src" 2 (Propagation.sphere_size pg ~src:0 ~tau:4)

let test_score_hand_computed () =
  let g = Digraph.create ~n:3 [ (0, 1); (1, 2) ] in
  (* action 0: 0@0, 1@1, 2@2; action 1: 0@0. *)
  let log = Log.of_records ~num_users:3 ~num_actions:2 [ r 0 0 0; r 1 0 1; r 2 0 2; r 0 1 0 ] in
  let scores = Propagation.score log g ~tau:5 in
  (* score(0) = |{1,2}| / a_0 = 2/2 = 1; score(1) = 1/1; score(2) = 0/1. *)
  Alcotest.(check (float 1e-9)) "score 0" 1. scores.(0);
  Alcotest.(check (float 1e-9)) "score 1" 1. scores.(1);
  Alcotest.(check (float 1e-9)) "score 2" 0. scores.(2)

let test_score_zero_activity () =
  let g = Digraph.create ~n:2 [ (0, 1) ] in
  let log = Log.of_records ~num_users:2 ~num_actions:1 [ r 1 0 0 ] in
  let scores = Propagation.score log g ~tau:5 in
  Alcotest.(check (float 1e-9)) "inactive user scores 0" 0. scores.(0)

let test_score_seeds_score_higher () =
  (* In cascades, seeds sit at the top of propagation trees: their
     average sphere should beat the population average. *)
  let s = st () in
  let g = Generate.barabasi_albert s ~n:60 ~m:3 in
  let planted = Cascade.uniform_probabilities ~p:0.4 g in
  let log = Cascade.generate s planted { Cascade.num_actions = 60; seeds_per_action = 1; max_delay = 2 } in
  let scores = Propagation.score log g ~tau:20 in
  let avg = Array.fold_left ( +. ) 0. scores /. 60. in
  let best = Array.fold_left max neg_infinity scores in
  Alcotest.(check bool) "a clear leader exists" true (best > 2. *. avg && best > 0.)

let test_of_arcs_validation () =
  Alcotest.check_raises "non-positive label"
    (Invalid_argument "Propagation.of_arcs: label must be positive")
    (fun () ->
      ignore (Propagation.of_arcs ~n:2 ~action:0 [ { Propagation.src = 0; dst = 1; delta = 0 } ]))

(* --- maximisation ----------------------------------------------------------- *)

let test_spread_deterministic_graph () =
  let g = Digraph.create ~n:3 [ (0, 1); (1, 2) ] in
  let model = { Maximize.graph = g; probability = (fun _ _ -> 1.) } in
  let s = st () in
  Alcotest.(check (float 1e-9)) "p=1 chain spreads fully" 3.
    (Maximize.spread s model ~seeds:[ 0 ] ~samples:10);
  Alcotest.(check (float 1e-9)) "tail seed" 1. (Maximize.spread s model ~seeds:[ 2 ] ~samples:10)

let test_greedy_picks_root () =
  let g = Digraph.create ~n:4 [ (0, 1); (0, 2); (0, 3) ] in
  let model = { Maximize.graph = g; probability = (fun _ _ -> 1.) } in
  let s = st () in
  let seeds, spread = Maximize.greedy s model ~k:1 ~samples:20 in
  Alcotest.(check (list int)) "root chosen" [ 0 ] seeds;
  Alcotest.(check (float 1e-9)) "full spread" 4. spread

let test_celf_matches_greedy () =
  let s = st () in
  let g = Generate.erdos_renyi_gnm s ~n:30 ~m:120 in
  let model = { Maximize.graph = g; probability = (fun _ _ -> 0.2) } in
  let sg = State.create ~seed:99 () and sc = State.create ~seed:99 () in
  let _, spread_g = Maximize.greedy sg model ~k:3 ~samples:300 in
  let evals_greedy = Maximize.evaluations () in
  let _, spread_c = Maximize.celf sc model ~k:3 ~samples:300 in
  let evals_celf = Maximize.evaluations () in
  Alcotest.(check bool) "similar spread" true (abs_float (spread_g -. spread_c) /. spread_g < 0.15);
  Alcotest.(check bool) "celf does fewer evaluations" true (evals_celf < evals_greedy)

let test_of_strengths_clamps () =
  let g = Digraph.create ~n:2 [ (0, 1) ] in
  let model = Maximize.of_strengths g [ ((0, 1), 1.7) ] in
  Alcotest.(check (float 1e-9)) "clamped to 1" 1. (model.Maximize.probability 0 1);
  Alcotest.(check (float 1e-9)) "missing arc is 0" 0. (model.Maximize.probability 1 0)

(* --- RIS ----------------------------------------------------------------------- *)

module Ris = Spe_influence.Ris

let test_ris_singleton_chain () =
  (* p = 1 chain 0 -> 1 -> 2: every RR set targeting node v contains
     {0..v}; the best single seed is node 0. *)
  let g = Digraph.create ~n:3 [ (0, 1); (1, 2) ] in
  let model = { Maximize.graph = g; probability = (fun _ _ -> 1.) } in
  let s = st () in
  let rr = Ris.sample s model ~count:300 in
  Alcotest.(check (list int)) "root selected" [ 0 ] (Ris.select rr ~k:1);
  Alcotest.(check (float 1e-9)) "root covers everything" 1. (Ris.coverage rr [ 0 ]);
  Alcotest.(check bool) "spread estimate = n" true
    (abs_float (Ris.estimate_spread rr ~n:3 [ 0 ] -. 3.) < 1e-9)

let test_ris_spread_matches_monte_carlo () =
  (* RIS spread estimates agree with forward Monte-Carlo. *)
  let s = st () in
  let g = Generate.erdos_renyi_gnm s ~n:30 ~m:120 in
  let model = { Maximize.graph = g; probability = (fun _ _ -> 0.15) } in
  let rr = Ris.sample s model ~count:20_000 in
  let seeds = [ 0; 7 ] in
  let ris_est = Ris.estimate_spread rr ~n:30 seeds in
  let mc = Maximize.spread (State.create ~seed:5 ()) model ~seeds ~samples:20_000 in
  Alcotest.(check bool)
    (Printf.sprintf "ris %.2f vs mc %.2f" ris_est mc)
    true
    (abs_float (ris_est -. mc) < 0.15 *. mc)

let test_ris_select_competitive_with_celf () =
  let s = st () in
  let g = Generate.barabasi_albert s ~n:40 ~m:3 in
  let model = { Maximize.graph = g; probability = (fun _ _ -> 0.1) } in
  let rr = Ris.sample s model ~count:10_000 in
  let ris_seeds = Ris.select rr ~k:3 in
  let celf_seeds, _ = Maximize.celf (State.create ~seed:9 ()) model ~k:3 ~samples:200 in
  let eval seeds = Maximize.spread (State.create ~seed:10 ()) model ~seeds ~samples:3000 in
  let ris_spread = eval ris_seeds and celf_spread = eval celf_seeds in
  Alcotest.(check bool)
    (Printf.sprintf "ris %.2f within 10%% of celf %.2f" ris_spread celf_spread)
    true
    (ris_spread > 0.9 *. celf_spread)

let test_ris_zero_probability () =
  (* Dead model: every RR set is a singleton, best seed covers 1/n. *)
  let s = st () in
  let g = Generate.erdos_renyi_gnm s ~n:10 ~m:30 in
  let model = { Maximize.graph = g; probability = (fun _ _ -> 0.) } in
  let rr = Ris.sample s model ~count:500 in
  Alcotest.(check (float 1e-9)) "singleton sets" 1. (Ris.average_size rr);
  Alcotest.(check bool) "single seed covers ~1/10" true (Ris.coverage rr [ 0 ] < 0.25)

let test_ris_validation () =
  let s = st () in
  let g = Digraph.create ~n:2 [ (0, 1) ] in
  let model = { Maximize.graph = g; probability = (fun _ _ -> 0.5) } in
  Alcotest.check_raises "count" (Invalid_argument "Ris.sample: need at least one set")
    (fun () -> ignore (Ris.sample s model ~count:0));
  let rr = Ris.sample s model ~count:10 in
  Alcotest.check_raises "k" (Invalid_argument "Ris.select: k out of range") (fun () ->
      ignore (Ris.select rr ~k:5))

(* --- held-out evaluation --------------------------------------------------------- *)

module Evaluate = Spe_influence.Evaluate

let test_split_partitions_traces () =
  let s = st () in
  let g = Generate.erdos_renyi_gnm s ~n:20 ~m:80 in
  let planted = Cascade.uniform_probabilities ~p:0.4 g in
  let log = Cascade.generate s planted { Cascade.num_actions = 40; seeds_per_action = 1; max_delay = 2 } in
  let { Evaluate.train; test } = Evaluate.split_by_action s log ~train_fraction:0.6 in
  Alcotest.(check int) "records partitioned" (Log.size log) (Log.size train + Log.size test);
  (* No action straddles the split. *)
  List.iter
    (fun a ->
      if Log.by_action train a <> [] && Log.by_action test a <> [] then
        Alcotest.failf "action %d straddles the split" a)
    (List.init 40 (fun a -> a))

let test_score_prefers_truth () =
  (* On held-out traces, the planted model must outscore both a too-low
     and a too-high constant model. *)
  let s = st () in
  let g = Generate.erdos_renyi_gnm s ~n:25 ~m:120 in
  let p_true = 0.35 in
  let planted = Cascade.uniform_probabilities ~p:p_true g in
  let log = Cascade.generate s planted { Cascade.num_actions = 120; seeds_per_action = 2; max_delay = 2 } in
  let eval p = (Evaluate.score ~probability:(fun _ _ -> p) log g ~h:2).Evaluate.log_likelihood in
  let at_truth = eval p_true in
  Alcotest.(check bool) "truth beats underestimate" true (at_truth > eval 0.05);
  Alcotest.(check bool) "truth beats overestimate" true (at_truth > eval 0.9)

let test_generalisation_improves_with_data () =
  (* The paper's accuracy motivation: more training traces -> better
     held-out likelihood of the learned model. *)
  let s = st () in
  let g = Generate.erdos_renyi_gnm s ~n:25 ~m:120 in
  let planted = Cascade.uniform_probabilities ~p:0.35 g in
  let test_log =
    Cascade.generate (State.create ~seed:201 ()) planted
      { Cascade.num_actions = 150; seeds_per_action = 2; max_delay = 2 }
  in
  let heldout traces =
    let train =
      Cascade.generate s planted { Cascade.num_actions = traces; seeds_per_action = 2; max_delay = 2 }
    in
    let ct = Counters.compute_graph train ~h:2 g in
    let est = Link_strength.all_eq1 ct in
    let table = Hashtbl.create 64 in
    Array.iteri (fun k pair -> Hashtbl.replace table pair est.(k)) ct.Counters.pairs;
    let probability u v = Option.value ~default:0.05 (Hashtbl.find_opt table (u, v)) in
    (Evaluate.score ~probability test_log g ~h:2).Evaluate.log_likelihood
  in
  let small = heldout 5 and large = heldout 300 in
  Alcotest.(check bool)
    (Printf.sprintf "ll %.4f (5 traces) < %.4f (300 traces)" small large)
    true (small < large)

let test_score_validation () =
  let g = Digraph.create ~n:2 [ (0, 1) ] in
  let empty = Log.empty ~num_users:2 ~num_actions:1 in
  Alcotest.check_raises "no exposures" (Invalid_argument "Evaluate.score: no exposures in the log")
    (fun () -> ignore (Evaluate.score ~probability:(fun _ _ -> 0.5) empty g ~h:2))

let test_ris_select_auto () =
  let s = st () in
  let g = Generate.barabasi_albert s ~n:40 ~m:3 in
  let model = { Maximize.graph = g; probability = (fun _ _ -> 0.1) } in
  let seeds, drawn = Ris.select_auto s model ~k:3 ~initial:500 () in
  Alcotest.(check int) "three seeds" 3 (List.length seeds);
  Alcotest.(check bool) "at least two rounds drawn" true (drawn >= 2 * 500);
  (* Quality: within 15% of a large fixed-budget run. *)
  let big = Ris.sample (State.create ~seed:17 ()) model ~count:30_000 in
  let ref_seeds = Ris.select big ~k:3 in
  let eval sds = Maximize.spread (State.create ~seed:18 ()) model ~seeds:sds ~samples:2000 in
  Alcotest.(check bool) "competitive quality" true (eval seeds > 0.85 *. eval ref_seeds)

(* --- QCheck ------------------------------------------------------------------ *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"b monotone in h" ~count:60 small_nat
      (fun seed ->
        let s = State.create ~seed () in
        let g = Generate.erdos_renyi_gnm s ~n:15 ~m:60 in
        let planted = Cascade.uniform_probabilities ~p:0.5 g in
        let log = Cascade.generate s planted { Cascade.num_actions = 10; seeds_per_action = 1; max_delay = 4 } in
        let pairs = Array.of_list (Digraph.edges g) in
        let c2 = Counters.compute log ~h:2 ~pairs and c5 = Counters.compute log ~h:5 ~pairs in
        Array.for_all2 (fun b2 b5 -> b2 <= b5) c2.Counters.b c5.Counters.b);
    Test.make ~name:"strengths lie in [0, 1]" ~count:60 small_nat
      (fun seed ->
        let s = State.create ~seed () in
        let g = Generate.erdos_renyi_gnm s ~n:15 ~m:60 in
        let planted = Cascade.uniform_probabilities ~p:0.5 g in
        let log = Cascade.generate s planted Cascade.default_params in
        let ct = Counters.compute_graph log ~h:3 g in
        Array.for_all (fun p -> p >= 0. && p <= 1.) (Link_strength.all_eq1 ct));
    Test.make ~name:"sphere monotone in tau" ~count:60 small_nat
      (fun seed ->
        let s = State.create ~seed () in
        let g = Generate.erdos_renyi_gnm s ~n:15 ~m:60 in
        let planted = Cascade.uniform_probabilities ~p:0.5 g in
        let log = Cascade.generate s planted Cascade.default_params in
        let pg = Propagation.of_log log g ~action:0 in
        List.for_all
          (fun v ->
            Propagation.sphere_size pg ~src:v ~tau:2
            <= Propagation.sphere_size pg ~src:v ~tau:6)
          (List.init 15 (fun v -> v)));
    (* The windowed-stream invariant behind the epoch-delta pipeline:
       whatever bounded out-of-order arrival order a seeded source
       produces, the accumulator's snapshot equals a from-scratch batch
       compute over the records still in the window.  (Late arrivals —
       delivered after their own expiry — are skipped by the
       accumulator and excluded by the filter for the same reason:
       their time is at most [now - w].) *)
    Test.make ~name:"windowed stream = window-filtered batch" ~count:40 small_nat
      (fun seed ->
        let module Source = Spe_actionlog.Source in
        let s = State.create ~seed:(succ seed) () in
        let g = Generate.erdos_renyi_gnm s ~n:15 ~m:60 in
        let planted = Cascade.uniform_probabilities ~p:0.5 g in
        let log =
          Cascade.generate s planted
            { Cascade.num_actions = 10; seeds_per_action = 1; max_delay = 4 }
        in
        let pairs = Array.of_list (Digraph.edges g) in
        let w = 1 + State.next_int s 8 in
        let jitter = State.next_int s 4 in
        let src =
          Source.create
            (State.create ~seed:(seed + 7) ())
            log ~rate:0.7 ~burstiness:0.3 ~jitter ()
        in
        let acc =
          Stream.create ~window:w ~num_users:(Log.num_users log)
            ~num_actions:(Log.num_actions log) ~h:3 ~pairs ()
        in
        List.iter
          (fun (r : Log.record) ->
            Stream.advance acc ~now:(max (Stream.now acc) r.Log.time);
            Stream.add acc r)
          (Source.take_until src ~arrival:max_int);
        let now = Stream.now acc in
        let windowed =
          Log.of_records ~num_users:(Log.num_users log)
            ~num_actions:(Log.num_actions log)
            (List.filter (fun (r : Log.record) -> r.Log.time > now - w) (Log.records log))
        in
        let expected = Counters.compute windowed ~h:3 ~pairs in
        counters_equal expected (Stream.snapshot acc)
        && Stream.activity acc = expected.Counters.a
        && Stream.lag_counters acc = expected.Counters.c);
    Test.make ~name:"score denominator uses a_i" ~count:40 small_nat
      (fun seed ->
        let s = State.create ~seed () in
        let g = Generate.erdos_renyi_gnm s ~n:12 ~m:40 in
        let planted = Cascade.uniform_probabilities ~p:0.4 g in
        let log = Cascade.generate s planted Cascade.default_params in
        let scores = Propagation.score log g ~tau:10 in
        let a = Log.user_activity log in
        Array.for_all2 (fun sc ai -> (ai > 0) || sc = 0.) scores a);
  ]

let () =
  Alcotest.run "spe_influence"
    [
      ( "counters",
        [
          Alcotest.test_case "hand computed" `Quick test_counters_hand_computed;
          Alcotest.test_case "window sensitivity" `Quick test_counters_window_sensitivity;
          Alcotest.test_case "b = sum c" `Quick test_counters_b_equals_sum_c;
          Alcotest.test_case "simultaneity excluded" `Quick test_counters_simultaneous_not_counted;
          Alcotest.test_case "add" `Quick test_counters_add;
          Alcotest.test_case "exclusive-split additivity" `Quick test_counters_split_sum_identity;
        ] );
      ( "link-strength",
        [
          Alcotest.test_case "eq1" `Quick test_eq1;
          Alcotest.test_case "eq1 zero denominator" `Quick test_eq1_zero_denominator;
          Alcotest.test_case "eq2 uniform = eq1" `Quick test_eq2_uniform_equals_eq1;
          Alcotest.test_case "decay weights" `Quick test_eq2_decay_weights;
          Alcotest.test_case "decay favours fast follows" `Quick test_eq2_favors_fast_followers;
          Alcotest.test_case "weights validation" `Quick test_weights_validation;
          Alcotest.test_case "ground truth recovery" `Slow test_ground_truth_recovery;
        ] );
      ( "counter-engines",
        [
          Alcotest.test_case "sparse = dense" `Quick test_sparse_matches_dense;
          Alcotest.test_case "stream = batch" `Quick test_stream_matches_batch;
          Alcotest.test_case "snapshot isolation" `Quick test_stream_snapshot_isolated;
          Alcotest.test_case "duplicate rejection" `Quick test_stream_rejects_duplicates;
        ] );
      ( "estimator-variants",
        [
          Alcotest.test_case "jaccard hand computed" `Quick test_jaccard_hand_computed;
          Alcotest.test_case "jaccard bounded" `Quick test_jaccard_bounded;
          Alcotest.test_case "jaccard vs busy targets" `Quick test_jaccard_penalises_busy_targets;
          Alcotest.test_case "partial credit splits" `Quick test_partial_credit_splits;
          Alcotest.test_case "pc = eq1 on single parent" `Quick test_partial_credit_equals_eq1_single_parent;
          Alcotest.test_case "pc total preserved" `Quick test_partial_credit_total_preserved;
        ] );
      ( "discretization",
        [
          Alcotest.test_case "rebin" `Quick test_rebin;
          Alcotest.test_case "rebin identity" `Quick test_rebin_step_one_identity;
          Alcotest.test_case "rebin widens windows" `Quick test_rebin_coarsens_counters;
          Alcotest.test_case "jitter bounds" `Quick test_jitter_bounds;
          Alcotest.test_case "span" `Quick test_span;
        ] );
      ( "propagation",
        [
          Alcotest.test_case "PG construction" `Quick test_propagation_graph;
          Alcotest.test_case "direction of time" `Quick test_propagation_excludes_wrong_direction;
          Alcotest.test_case "spheres" `Quick test_sphere;
          Alcotest.test_case "score hand computed" `Quick test_score_hand_computed;
          Alcotest.test_case "score zero activity" `Quick test_score_zero_activity;
          Alcotest.test_case "leaders emerge" `Quick test_score_seeds_score_higher;
          Alcotest.test_case "of_arcs validation" `Quick test_of_arcs_validation;
        ] );
      ( "ris",
        [
          Alcotest.test_case "chain" `Quick test_ris_singleton_chain;
          Alcotest.test_case "spread vs monte carlo" `Quick test_ris_spread_matches_monte_carlo;
          Alcotest.test_case "competitive with celf" `Slow test_ris_select_competitive_with_celf;
          Alcotest.test_case "dead model" `Quick test_ris_zero_probability;
          Alcotest.test_case "validation" `Quick test_ris_validation;
        ] );
      ( "maximize",
        [
          Alcotest.test_case "deterministic spread" `Quick test_spread_deterministic_graph;
          Alcotest.test_case "greedy picks root" `Quick test_greedy_picks_root;
          Alcotest.test_case "celf vs greedy" `Slow test_celf_matches_greedy;
          Alcotest.test_case "of_strengths" `Quick test_of_strengths_clamps;
        ] );
      ( "evaluation",
        [
          Alcotest.test_case "split partitions traces" `Quick test_split_partitions_traces;
          Alcotest.test_case "score prefers truth" `Quick test_score_prefers_truth;
          Alcotest.test_case "generalisation vs data" `Quick test_generalisation_improves_with_data;
          Alcotest.test_case "score validation" `Quick test_score_validation;
          Alcotest.test_case "ris select_auto" `Slow test_ris_select_auto;
        ] );
      ("properties", List.map (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 4242 |])) qcheck_tests);
    ]
