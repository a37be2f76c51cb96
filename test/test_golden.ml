(* Golden draws: MD5 digests of seeded outputs, pinned so that a
   rewrite of a draw kernel cannot change a single drawn bit unnoticed.

   The central-vs-distributed suites cannot catch such a change, since
   both sides share the kernels; these digests were taken from the
   straightforward implementations (boxed xoshiro words, a sorted
   tuple table for the obfuscation, a Hashtbl rank for slices), before
   the allocation-free kernels replaced them.  Every case also digests
   the generator's next output after the kernel ran, which pins how
   many draws the kernel consumed. *)

module State = Spe_rng.State
module Digraph = Spe_graph.Digraph
module Generate = Spe_graph.Generate
module Obfuscate = Spe_graph.Obfuscate
module P2d = Spe_mpc.Protocol2_distributed
module Proto = Spe_serve.Serve_proto
module Job = Spe_serve.Job
module Plan = Spe_core.Plan

(* Digest of the comma-joined strings [f] emits. *)
let digest f =
  let b = Buffer.create 4096 in
  f (fun s ->
      Buffer.add_string b s;
      Buffer.add_char b ',');
  Digest.to_hex (Digest.string (Buffer.contents b))

let add_int add i = add (string_of_int i)
let add_ints add a = Array.iter (add_int add) a
let add_tail add st = add (Int64.to_string (State.next_int64 st))

let check_table name expected actual =
  Alcotest.(check (list (pair string string))) name expected actual

(* --- State ------------------------------------------------------------ *)

let seeds = [ 1; 42; 0x2545F4914F6CDD1D ]

let draw_kinds =
  [
    ("next_int64", fun st _ -> Int64.to_string (State.next_int64 st));
    ("next_int 1", fun st _ -> string_of_int (State.next_int st 1));
    ("next_int 7", fun st _ -> string_of_int (State.next_int st 7));
    ("next_int 2^40", fun st _ -> string_of_int (State.next_int st (1 lsl 40)));
    ("next_int 2^61", fun st _ -> string_of_int (State.next_int st (1 lsl 61)));
    ("next_float", fun st _ -> Int64.to_string (Int64.bits_of_float (State.next_float st)));
    ("next_bits", fun st i -> string_of_int (State.next_bits st (i mod 63)));
    ("next_bool", fun st _ -> string_of_bool (State.next_bool st));
    ("split", fun st _ -> Int64.to_string (State.next_int64 (State.split st)));
  ]

let rng_digests () =
  List.concat_map
    (fun (kind, draw) ->
      List.map
        (fun seed ->
          let st = State.create ~seed () in
          ( Printf.sprintf "%s seed %d" kind seed,
            digest (fun add ->
                for i = 0 to 99 do
                  add (draw st i)
                done;
                add_tail add st) ))
        seeds)
    draw_kinds

let expected_rng =
  [
    ("next_int64 seed 1", "21af5d0438af280c9eb8fa64b37e5e7b");
    ("next_int64 seed 42", "eb44bb59e49ded22ef237e5b8bf50a1d");
    ("next_int64 seed 2685821657736338717", "0807b858098a22da60e1dbf70a449ecd");
    ("next_int 1 seed 1", "715f855e6cdecd2caa71a5302c5f556c");
    ("next_int 1 seed 42", "7ebb1660793d544954f94e827fc9bd5f");
    ("next_int 1 seed 2685821657736338717", "3b183bc42dbda929604e18498732bef9");
    ("next_int 7 seed 1", "b25425056c84ca72ee845296b21d1f37");
    ("next_int 7 seed 42", "62c9670fa318df9760ca0f2fb350af9c");
    ("next_int 7 seed 2685821657736338717", "e6c8d6dc41cd2738ab19de33918677b5");
    ("next_int 2^40 seed 1", "c5f0d0f936dbd937b9ff11babdf192f2");
    ("next_int 2^40 seed 42", "e8d97f351f81add073737bd0ec47baf8");
    ("next_int 2^40 seed 2685821657736338717", "7907da7dea4c9c87581333f37d5f47ca");
    ("next_int 2^61 seed 1", "8440aa873377388d82ff36d06205f1c4");
    ("next_int 2^61 seed 42", "f3dcbda75bd2ec75e92fd577fa90eaa7");
    ("next_int 2^61 seed 2685821657736338717", "7e9ba1739a532c5d3acaaa00d5983c98");
    ("next_float seed 1", "dd71aa825563ed92d770e219cb97ccb8");
    ("next_float seed 42", "99b9d540bb35a038b7533760f2b60b05");
    ("next_float seed 2685821657736338717", "2fd95ff5e2efc3dc8bf27c49a4363572");
    ("next_bits seed 1", "21cb319acd0fdc549c7bd113eb725fcf");
    ("next_bits seed 42", "1c1412f920ed3de2a374923b11dc6e5d");
    ("next_bits seed 2685821657736338717", "96022dd2ffcd668012c260da208790e5");
    ("next_bool seed 1", "39417e6665e50722df149322b6d1a21a");
    ("next_bool seed 42", "b335129d5ff2d82ad40a09dba3d06e8b");
    ("next_bool seed 2685821657736338717", "9349213a7753db2f59d8a4d437ace953");
    ("split seed 1", "5d4c99ffcbd4366fe6e2b34232351f72");
    ("split seed 42", "6b327cc7fd5b10fe8e3cbcfdb8369980");
    ("split seed 2685821657736338717", "66a55891973043a6d70a8b41b42e6c0c");
  ]

let test_golden_rng () = check_table "seeded draws" expected_rng (rng_digests ())

(* --- Obfuscate --------------------------------------------------------- *)

(* (label, n, arcs or a G(n, m) size, c).  n = 3 at c = 10 and n = 2 at
   c = 2 ask for more pairs than exist: the perfect-hiding limit. *)
let obfuscation_cases =
  let er ~seed ~n ~m = Generate.erdos_renyi_gnm (State.create ~seed ()) ~n ~m in
  [
    ("n=2 c=1", Digraph.create ~n:2 [ (0, 1) ], 1.);
    ("n=2 c=2", Digraph.create ~n:2 [ (0, 1) ], 2.);
    ("n=3 c=1.5", Digraph.create ~n:3 [ (0, 1); (2, 0) ], 1.5);
    ("n=3 c=10", Digraph.create ~n:3 [ (0, 1); (2, 0) ], 10.);
    ("n=50 c=2", er ~seed:5 ~n:50 ~m:120, 2.);
    ("n=50 c=30", er ~seed:6 ~n:50 ~m:120, 30.);
    ("n=300 c=3", er ~seed:7 ~n:300 ~m:900, 3.);
  ]

let obfuscation_digests () =
  List.map
    (fun (label, g, c) ->
      let st = State.create ~seed:(Digraph.n g + 11) () in
      let o = Obfuscate.make st g ~c in
      ( label,
        digest (fun add ->
            add_int add (Obfuscate.size o);
            Obfuscate.iteri o (fun i u v -> add (Printf.sprintf "%d:%d:%d" i u v));
            add_tail add st) ))
    obfuscation_cases

let expected_obfuscation =
  [
    ("n=2 c=1", "ce6f04740eaf116203bcaf9052f0f63d");
    ("n=2 c=2", "132edc4070024781417844eda2cabbef");
    ("n=3 c=1.5", "7fe32ab9b418b0c4130c2b918cb5720e");
    ("n=3 c=10", "bd29e00b02b47b598337ed040b0fbb0a");
    ("n=50 c=2", "963c896db47912eb52e7c49400b78a95");
    ("n=50 c=30", "368052181adb24ae4d2713245043604e");
    ("n=300 c=3", "cfd31f978ed1494362730347c647d2d8");
  ]

let test_golden_obfuscation () =
  check_table "obfuscated pair sets" expected_obfuscation (obfuscation_digests ())

(* --- Protocol 2 draw and slices ------------------------------------------ *)

let draw_cases =
  [
    ("m=2 S=2^40", 2, 1 lsl 40, 60, 50);
    ("m=3 S=2^20", 3, 1 lsl 20, 7, 37);
    ("m=2 S=2^61", 2, 1 lsl 61, 1000, 23);
  ]

(* Cut points per shard count; the k = 3 cut holds an empty slice. *)
let cuts length = [ [ 0; length ]; [ 0; length / 2; length ]; [ 0; 5; 5; length ] ]

let add_randomness add (r : P2d.randomness) =
  Array.iter (Array.iter (add_ints add)) r.P2d.rpieces;
  add_ints add r.P2d.masks;
  add_ints add (r.P2d.perm :> int array)

let draw_digests () =
  List.concat_map
    (fun (label, m, modulus, input_bound, length) ->
      let st = State.create ~seed:(m + length) () in
      let r = P2d.draw st ~m ~modulus ~input_bound ~length in
      let drawn =
        ( label ^ " draw",
          digest (fun add ->
              add_randomness add r;
              add_tail add st) )
      in
      let sliced =
        List.map
          (fun points ->
            let bounds = Array.of_list points in
            ( Printf.sprintf "%s slices k=%d" label (Array.length bounds - 1),
              digest (fun add ->
                  for s = 0 to Array.length bounds - 2 do
                    let sl = P2d.slice r ~start:bounds.(s) ~len:(bounds.(s + 1) - bounds.(s)) in
                    add_int add sl.P2d.start;
                    add_ints add sl.P2d.positions;
                    add_randomness add sl.P2d.randomness
                  done) ))
          (cuts length)
      in
      drawn :: sliced)
    draw_cases

let expected_draws =
  [
    ("m=2 S=2^40 draw", "d05462378fa2f96adf08330da6ec317e");
    ("m=2 S=2^40 slices k=1", "ca71f3f93524ce28416cd446e0df06d9");
    ("m=2 S=2^40 slices k=2", "55a12767af4909d46df5bc7ffd30ebe6");
    ("m=2 S=2^40 slices k=3", "657a6432ac2cba7839784915803c3cb9");
    ("m=3 S=2^20 draw", "b130715d0a86c5f19ba279b5ba502c00");
    ("m=3 S=2^20 slices k=1", "5fd616378e133f753818c5425ca13413");
    ("m=3 S=2^20 slices k=2", "7de55ddc6c6370fc24eb174559330360");
    ("m=3 S=2^20 slices k=3", "8f8eb29d4fab66eaa576235500f8d991");
    ("m=2 S=2^61 draw", "2620a9d7391a3681c654929088af2b62");
    ("m=2 S=2^61 slices k=1", "e4515b654e0b4d83cd76d92b5409d687");
    ("m=2 S=2^61 slices k=2", "06aa4e4e2607db11693ccdb04564ef59");
    ("m=2 S=2^61 slices k=3", "ed6987164ec30dcb66be684b1e9fe3e0");
  ]

let test_golden_protocol2 () = check_table "protocol 2 draws" expected_draws (draw_digests ())

(* --- Job.build replies on the simulated wire ----------------------------- *)

let job_cases =
  let base = { Proto.default_spec with Proto.shards = 2 } in
  let links = { base with Proto.pipeline = Proto.Links; seed = 5; h = 2; c_factor = 2.; modulus_bits = 40 } in
  [
    ("links", (30, 80, 6), links);
    ( "scores",
      (12, 40, 4),
      { base with Proto.pipeline = Proto.Scores; seed = 6; tau = 6; key_bits = 128; modulus_bits = 20 } );
    ( "stream",
      (20, 60, 6),
      {
        links with
        Proto.pipeline = Proto.Stream;
        seed = 7;
        epoch_ticks = 25;
        window = 6;
        epochs = 3;
        rate = 0.5;
        burstiness = 0.4;
        jitter = 2;
      } );
    ("rank", (20, 60, 6), { base with Proto.pipeline = Proto.Rank; seed = 8; iterations = 6; fbits = 16 });
  ]

let job_digests () =
  List.map
    (fun (label, (n, edges, actions), spec) ->
      let graph, logs = Util.workload ~seed:(31 + n) ~n ~edges ~actions ~m:2 in
      let planned = Job.build spec { Job.graph; logs } in
      let plan = Plan.make ~shards:1 ~stages:(Job.stages planned) ~result:ignore in
      ignore (Plan.execute ~engine:`Sim plan);
      let reply = Job.reply_of planned in
      (label, Digest.to_hex (Digest.bytes (Proto.encode (Proto.Job_result { job = 0; reply })))))
    job_cases

let expected_jobs =
  [
    ("links", "bc03895ccfbd9b90dd85373ea3a7d9d0");
    ("scores", "7118ee343b7b5ec4df30544be8da307f");
    ("stream", "76c83bc464413b285d14166536272cac");
    ("rank", "4bb4f95a7dbffc500a1852a5652eba63");
  ]

let test_golden_jobs () = check_table "sim-wire replies" expected_jobs (job_digests ())

let () =
  Alcotest.run "spe_golden"
    [
      ( "golden",
        [
          Alcotest.test_case "seeded generator outputs" `Quick test_golden_rng;
          Alcotest.test_case "obfuscated pair sets" `Quick test_golden_obfuscation;
          Alcotest.test_case "protocol 2 draws and slices" `Quick test_golden_protocol2;
          Alcotest.test_case "Job.build replies on the sim wire" `Quick test_golden_jobs;
        ] );
    ]
