(* Tests for the second estimand family: the fixed-point rank oracle
   (precision against the exact float recursion, damping edge cases),
   the distributed Protocol_rank plan (bit-identical to the plaintext
   oracle across engines and shard counts), the DP release layer
   (replayable seeded sampler, correct Laplace moments, exact
   degeneration at epsilon = infinity), and the typed validation
   errors beside the existing pipeline checks. *)

module State = Spe_rng.State
module Digraph = Spe_graph.Digraph
module Log = Spe_actionlog.Log
module Oracle = Spe_rank.Oracle
module Protocol_rank = Spe_rank.Protocol_rank
module Dp_release = Spe_privacy.Dp_release
module Proto = Spe_serve.Serve_proto
module Client = Spe_serve.Client

let check = Alcotest.check
let checkb = Alcotest.(check bool)

let aggregate_activity ~n logs =
  let a = Array.make n 0 in
  Array.iter
    (fun l -> Array.iteri (fun i v -> a.(i) <- a.(i) + v) (Log.user_activity l))
    logs;
  a

let small_config ?(mode = Oracle.Pagerank) ?(iterations = 4) ?(fbits = 14) () =
  {
    Protocol_rank.oracle = { Oracle.default_config with Oracle.mode; iterations; fbits };
    modulus = 1 lsl 40;
  }

(* --- oracle ------------------------------------------------------------------ *)

let test_oracle_precision_on_edge_cases () =
  let cases =
    [
      (* A dangling sink: node 2 has no out-edges. *)
      ("dangling", Digraph.create ~n:3 [ (0, 1); (1, 2) ], [| 3; 0; 1 |]);
      (* Two disconnected components. *)
      ("disconnected", Digraph.create ~n:4 [ (0, 1); (1, 0); (2, 3) ], [| 1; 2; 3; 4 |]);
      (* A single node with no edges at all. *)
      ("singleton", Digraph.create ~n:1 [], [| 5 |]);
      (* Entirely zero activity: the smoothed teleport still works. *)
      ("zero-activity", Digraph.create ~n:2 [ (0, 1) ], [| 0; 0 |]);
    ]
  in
  List.iter
    (fun (label, g, activity) ->
      List.iter
        (fun config ->
          let fx = Oracle.to_floats config (Oracle.fixed config g ~activity) in
          let fl = Oracle.float_reference config g ~activity in
          let bound = Oracle.precision_bound config g in
          Array.iteri
            (fun i v ->
              checkb
                (Printf.sprintf "%s: node %d within the precision bound" label i)
                true
                (abs_float (v -. fl.(i)) <= bound))
            fx;
          (* Teleport keeps every node alive, disconnected or not. *)
          Array.iteri
            (fun i v ->
              checkb (Printf.sprintf "%s: node %d has positive rank" label i) true (v > 0.))
            fx)
        [
          { Oracle.default_config with Oracle.iterations = 8 };
          { Oracle.default_config with Oracle.mode = Oracle.Degree };
        ])
    cases

let test_oracle_zero_iterations_is_teleport () =
  let g = Digraph.create ~n:3 [ (0, 1); (1, 2) ] in
  let activity = [| 4; 0; 2 |] in
  let config = { Oracle.default_config with Oracle.iterations = 0 } in
  check
    Alcotest.(array int)
    "no iterations releases the teleport"
    (Oracle.teleport config ~n:3 ~activity)
    (Oracle.fixed config g ~activity)

let test_oracle_float_reference_mass () =
  let g = Digraph.create ~n:5 [ (0, 1); (1, 2); (2, 0); (3, 0) ] in
  let fl =
    Oracle.float_reference
      { Oracle.default_config with Oracle.iterations = 30 }
      g ~activity:[| 1; 0; 3; 0; 7 |]
  in
  let total = Array.fold_left ( +. ) 0. fl in
  checkb "pagerank reference conserves unit mass" true (abs_float (total -. 1.) < 1e-9)

let test_oracle_degree_mode_orders_by_in_degree () =
  let g = Digraph.create ~n:4 [ (1, 0); (2, 0); (3, 0); (2, 1); (3, 1); (3, 2) ] in
  let config = { Oracle.default_config with Oracle.mode = Oracle.Degree } in
  let r = Oracle.fixed config g ~activity:[| 2; 2; 2; 2 |] in
  checkb "uniform activity: degree centrality orders by in-degree" true
    (r.(0) > r.(1) && r.(1) > r.(2) && r.(2) > r.(3))

let test_oracle_validation () =
  let expect_invalid label f =
    match f () with
    | _ -> Alcotest.fail (label ^ " should be rejected")
    | exception Invalid_argument _ -> ()
  in
  let g = Digraph.create ~n:2 [ (0, 1) ] in
  expect_invalid "damping 1" (fun () ->
      Oracle.fixed { Oracle.default_config with Oracle.damping = 1. } g ~activity:[| 0; 0 |]);
  expect_invalid "negative damping" (fun () ->
      Oracle.validate { Oracle.default_config with Oracle.damping = -0.1 });
  expect_invalid "negative iterations" (fun () ->
      Oracle.validate { Oracle.default_config with Oracle.iterations = -1 });
  expect_invalid "fbits too large" (fun () ->
      Oracle.validate { Oracle.default_config with Oracle.fbits = 31 });
  expect_invalid "activity length" (fun () ->
      Oracle.fixed Oracle.default_config g ~activity:[| 1 |]);
  expect_invalid "negative activity" (fun () ->
      Oracle.fixed Oracle.default_config g ~activity:[| 1; -2 |])

(* --- the distributed protocol ------------------------------------------------ *)

let test_rank_matches_oracle_across_shards () =
  let config = small_config () in
  let seed = 402 in
  let g, logs = Util.workload ~seed ~n:12 ~edges:30 ~actions:6 ~m:3 in
  let expected =
    Oracle.fixed config.Protocol_rank.oracle g
      ~activity:(aggregate_activity ~n:(Digraph.n g) logs)
  in
  List.iter
    (fun shards ->
      let plan =
        Protocol_rank.plan (State.create ~seed:(seed + 1) ()) ~graph:g ~logs ~shards config
      in
      let r = Util.run_plan `Sim plan in
      check
        Alcotest.(array int)
        (Printf.sprintf "k = %d bit-identical to the oracle" shards)
        expected r.Protocol_rank.ranks_fx;
      check
        Alcotest.(array int)
        (Printf.sprintf "k = %d reconstructs the aggregate activity" shards)
        (aggregate_activity ~n:(Digraph.n g) logs)
        r.Protocol_rank.activity)
    [ 1; 2; 4 ]

let test_rank_cross_engine () =
  let config = small_config () in
  let seed = 404 in
  let g, logs = Util.workload ~seed ~n:12 ~edges:30 ~actions:6 ~m:3 in
  let expected =
    Oracle.fixed config.Protocol_rank.oracle g
      ~activity:(aggregate_activity ~n:(Digraph.n g) logs)
  in
  List.iter
    (fun (label, engine) ->
      List.iter
        (fun shards ->
          let plan =
            Protocol_rank.plan
              (State.create ~seed:(seed + 1) ())
              ~graph:g ~logs ~shards config
          in
          let r = Util.run_plan engine plan in
          check
            Alcotest.(array int)
            (Printf.sprintf "%s k = %d bit-identical to the oracle" label shards)
            expected r.Protocol_rank.ranks_fx)
        [ 1; 2; 4 ])
    [ ("sim", `Sim); ("memory", `Memory); ("socket", `Socket) ]

let test_rank_degree_mode_distributed () =
  let config = small_config ~mode:Oracle.Degree () in
  let seed = 406 in
  let g, logs = Util.workload ~seed ~n:10 ~edges:24 ~actions:5 ~m:2 in
  let plan =
    Protocol_rank.plan (State.create ~seed:(seed + 1) ()) ~graph:g ~logs ~shards:2 config
  in
  let r = Util.run_plan `Sim plan in
  check
    Alcotest.(array int)
    "degree mode bit-identical to the oracle"
    (Oracle.fixed config.Protocol_rank.oracle g
       ~activity:(aggregate_activity ~n:(Digraph.n g) logs))
    r.Protocol_rank.ranks_fx

let test_rank_validation () =
  let expect_invalid label f =
    match f () with
    | _ -> Alcotest.fail (label ^ " should be rejected")
    | exception Invalid_argument _ -> ()
  in
  let g, logs = Util.workload ~seed:408 ~n:8 ~edges:16 ~actions:5 ~m:2 in
  let st () = State.create ~seed:1 () in
  let config = small_config () in
  expect_invalid "one provider" (fun () ->
      Protocol_rank.plan (st ()) ~graph:g ~logs:[| logs.(0) |] ~shards:1 config);
  expect_invalid "zero shards" (fun () ->
      Protocol_rank.plan (st ()) ~graph:g ~logs ~shards:0 config);
  expect_invalid "empty graph" (fun () ->
      Protocol_rank.plan (st ()) ~graph:(Digraph.create ~n:0 []) ~logs ~shards:1 config);
  expect_invalid "universe mismatch" (fun () ->
      Protocol_rank.plan (st ())
        ~graph:(Digraph.create ~n:(Digraph.n g + 1) [])
        ~logs ~shards:1 config);
  expect_invalid "modulus below the scale" (fun () ->
      Protocol_rank.plan (st ()) ~graph:g ~logs ~shards:1
        { config with Protocol_rank.modulus = 1 lsl 10 })

(* A live 4-daemon deployment serving the Rank job kind: the
   spe-serve/4 reply must be bit-identical to the plaintext oracle,
   and the rank scrape gauges must advance. *)
let test_rank_daemon_job () =
  Util.with_deployment (fun client daemons _roster ~graph ~logs ->
      let iterations = 6 in
      let spec =
        {
          Proto.default_spec with
          Proto.pipeline = Proto.Rank;
          seed = 321;
          shards = 2;
          iterations;
          fbits = 16;
        }
      in
      let oracle_config =
        { Oracle.default_config with Oracle.iterations; fbits = 16 }
      in
      let expected =
        Oracle.fixed oracle_config graph
          ~activity:(aggregate_activity ~n:(Digraph.n graph) logs)
      in
      match Client.run_jobs client [ spec ] ~deadline:(Unix.gettimeofday () +. 60.) with
      | [ Client.Result (Proto.Rank_summary { ranks_fx; fbits }) ] ->
        check Alcotest.int "reply carries the spec's fbits" 16 fbits;
        check Alcotest.(array int) "bit-identical over live daemons" expected ranks_fx;
        check Alcotest.int "rank job gauge advanced" 1
          (Util.gauge daemons 0 "rank_jobs_completed");
        check Alcotest.int "iteration gauge advanced" iterations
          (Util.gauge daemons 0 "rank_iterations_run")
      | [ Client.Result (Proto.Failed { detail; _ }) ] ->
        Alcotest.fail ("rank job failed: " ^ detail)
      | _ -> Alcotest.fail "rank job did not complete")

(* --- the DP release ---------------------------------------------------------- *)

let dp ?(epsilon = 0.5) ?(sensitivity = 1.) ?(seed = 7) () =
  { Dp_release.epsilon; sensitivity; seed }

let test_dp_infinite_epsilon_is_exact () =
  let v = [| 0.5; -1.25; 3.125; 0. |] in
  let out = Dp_release.values (dp ~epsilon:infinity ()) v in
  checkb "epsilon = infinity is byte-for-byte exact" true (out = v);
  checkb "and a fresh copy" true (out != v);
  let rows = [ ((0, 1), 0.5); ((2, 0), 0.75) ] in
  checkb "strengths too" true (Dp_release.strengths (dp ~epsilon:infinity ()) rows = rows)

let test_dp_release_is_replayable () =
  let v = Array.init 32 (fun i -> float_of_int i /. 7.) in
  let a = Dp_release.values (dp ()) v in
  let b = Dp_release.values (dp ()) v in
  checkb "same seed replays byte for byte" true (a = b);
  let c = Dp_release.values (dp ~seed:8 ()) v in
  checkb "a different seed perturbs differently" true (c <> a);
  checkb "noise was actually added" true (a <> v)

let test_dp_public_entries_are_stable () =
  let v = Array.init 16 (fun i -> float_of_int i) in
  let all_private = Dp_release.values (dp ()) v in
  let half = Dp_release.values ~public:(fun i -> i mod 2 = 0) (dp ()) v in
  Array.iteri
    (fun i x ->
      if i mod 2 = 0 then check (Alcotest.float 0.) "public entry exact" v.(i) x
      else
        (* One draw per entry whether public or not: the private
           entries' noise must not shift when others go public. *)
        check (Alcotest.float 0.) "private entry noise unchanged" all_private.(i) x)
    half

let test_dp_hubs_predicate () =
  let g = Digraph.create ~n:4 [ (0, 1); (1, 0); (2, 0); (0, 2); (1, 2) ] in
  let public = Dp_release.hubs ~degree_threshold:3 g in
  checkb "hub-to-hub arc is public" true (public (0, 1));
  checkb "arc touching a low-degree node stays private" true (not (public (0, 3)))

let test_dp_mean_abs_error () =
  check (Alcotest.float 1e-12) "mae" 0.5
    (Dp_release.mean_abs_error [| 0.; 1. |] [| 0.5; 0.5 |]);
  check (Alcotest.float 1e-12) "mae on empty" 0. (Dp_release.mean_abs_error [||] [||]);
  (match Dp_release.mean_abs_error [| 0. |] [||] with
  | _ -> Alcotest.fail "length mismatch should be rejected"
  | exception Invalid_argument _ -> ())

let test_dp_validation () =
  List.iter
    (fun (label, params) ->
      match Dp_release.validate params with
      | _ -> Alcotest.fail (label ^ " should be rejected")
      | exception Invalid_argument _ -> ())
    [
      ("zero epsilon", dp ~epsilon:0. ());
      ("negative epsilon", dp ~epsilon:(-1.) ());
      ("nan epsilon", dp ~epsilon:nan ());
      ("zero sensitivity", dp ~sensitivity:0. ());
    ]

(* --- QCheck ------------------------------------------------------------------ *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"fixed-point oracle within the precision bound" ~count:25
      (pair small_nat (int_range 0 8))
      (fun (seed, iterations) ->
        let g, logs = Util.workload ~seed ~n:10 ~edges:25 ~actions:6 ~m:2 in
        let activity = aggregate_activity ~n:(Digraph.n g) logs in
        List.for_all
          (fun config ->
            let fx = Oracle.to_floats config (Oracle.fixed config g ~activity) in
            let fl = Oracle.float_reference config g ~activity in
            let bound = Oracle.precision_bound config g in
            Array.for_all Fun.id
              (Array.mapi (fun i v -> abs_float (v -. fl.(i)) <= bound) fx))
          [
            { Oracle.default_config with Oracle.iterations };
            { Oracle.default_config with Oracle.iterations; fbits = 10 };
            { Oracle.default_config with Oracle.mode = Oracle.Degree };
          ]);
    Test.make ~name:"distributed rank equals the oracle on random workloads" ~count:8
      (triple small_nat (int_range 2 4) (oneofl [ 1; 2; 4 ]))
      (fun (seed, m, shards) ->
        let g, logs = Util.workload ~seed ~n:10 ~edges:25 ~actions:6 ~m in
        let config = small_config ~iterations:3 () in
        let plan =
          Protocol_rank.plan
            (State.create ~seed:(seed + 1) ())
            ~graph:g ~logs ~shards config
        in
        let r = Util.run_plan `Sim plan in
        r.Protocol_rank.ranks_fx
        = Oracle.fixed config.Protocol_rank.oracle g
            ~activity:(aggregate_activity ~n:(Digraph.n g) logs));
    Test.make ~name:"dp release replays and degenerates at infinity" ~count:20
      (pair small_nat (int_range 1 64))
      (fun (seed, len) ->
        let v = Array.init len (fun i -> float_of_int ((i * 13) mod 7) /. 3.) in
        let p = dp ~seed () in
        Dp_release.values p v = Dp_release.values p v
        && Dp_release.values { p with Dp_release.epsilon = infinity } v = v);
    Test.make ~name:"dp noise matches the Laplace moments" ~count:5
      (int_range 1 1000)
      (fun seed ->
        (* Laplace(b): mean 0, variance 2 b^2.  With n = 20000 draws the
           empirical moments concentrate well inside the tolerances. *)
        let epsilon = 0.5 and sensitivity = 1. in
        let b = sensitivity /. epsilon in
        let n = 20000 in
        let out =
          Dp_release.values (dp ~epsilon ~sensitivity ~seed ()) (Array.make n 0.)
        in
        let mean = Array.fold_left ( +. ) 0. out /. float_of_int n in
        let var =
          Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. out
          /. float_of_int n
        in
        abs_float mean < 0.1 && abs_float (var -. (2. *. b *. b)) < 0.2 *. 2. *. b *. b);
  ]

let () =
  Alcotest.run "rank"
    [
      ( "oracle",
        [
          Alcotest.test_case "edge-case precision" `Quick test_oracle_precision_on_edge_cases;
          Alcotest.test_case "zero iterations" `Quick test_oracle_zero_iterations_is_teleport;
          Alcotest.test_case "reference mass" `Quick test_oracle_float_reference_mass;
          Alcotest.test_case "degree ordering" `Quick test_oracle_degree_mode_orders_by_in_degree;
          Alcotest.test_case "validation" `Quick test_oracle_validation;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "shards match oracle" `Quick test_rank_matches_oracle_across_shards;
          Alcotest.test_case "cross-engine" `Quick test_rank_cross_engine;
          Alcotest.test_case "degree mode" `Quick test_rank_degree_mode_distributed;
          Alcotest.test_case "validation" `Quick test_rank_validation;
          Alcotest.test_case "daemon job" `Quick test_rank_daemon_job;
        ] );
      ( "dp-release",
        [
          Alcotest.test_case "infinite epsilon" `Quick test_dp_infinite_epsilon_is_exact;
          Alcotest.test_case "replayable" `Quick test_dp_release_is_replayable;
          Alcotest.test_case "public entries" `Quick test_dp_public_entries_are_stable;
          Alcotest.test_case "hubs predicate" `Quick test_dp_hubs_predicate;
          Alcotest.test_case "mean abs error" `Quick test_dp_mean_abs_error;
          Alcotest.test_case "validation" `Quick test_dp_validation;
        ] );
      ("properties", List.map (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 4242 |])) qcheck_tests);
    ]
