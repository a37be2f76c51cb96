(* Tests for the serve subsystem: the shared address parser (clean
   errors, never a raw Unix_error), the spe-serve/2 frame codec
   (round-trip + strict rejection, like the inner Frame tests), the
   scheduler's typed admission control, the metrics scrape endpoint,
   and the live-deployment integration paths — daemons in-process over
   a unix-domain roster serving sequential and bursty job loads
   bit-identically to the central Driver oracle with exactly one Hello
   exchange per mesh connection, the mesh's failure paths (a dead peer,
   a provider that cannot reach its peer, hostile or silent inbound
   connections), and the whole-party kill campaign. *)

module Addr = Spe_serve.Addr
module Proto = Spe_serve.Serve_proto
module Scheduler = Spe_serve.Scheduler
module Job = Spe_serve.Job
module Daemon = Spe_serve.Daemon
module Client = Spe_serve.Client
module Transport = Spe_net.Transport
module Schedule = Spe_chaos.Schedule
module Harness = Spe_chaos.Harness
module Driver = Spe_core.Driver
module Protocol4 = Spe_core.Protocol4
module State = Spe_rng.State
module Json = Spe_obs.Obs_io.Json
module Frame = Spe_net.Frame
module Runtime = Spe_mpc.Runtime
module Wire = Spe_mpc.Wire
module Session = Spe_mpc.Session
module Nat = Spe_bignum.Nat
module Plan = Spe_core.Plan
module Metrics = Spe_obs.Metrics

let check = Alcotest.check
let checkb = Alcotest.(check bool)

(* --- Addr ------------------------------------------------------------------ *)

let test_addr_parse () =
  (match Addr.parse "unix:/tmp/spe.sock" with
  | Ok (Transport.Socket.Unix_domain p) -> check Alcotest.string "unix path" "/tmp/spe.sock" p
  | _ -> Alcotest.fail "unix address did not parse");
  (match Addr.parse "127.0.0.1:9000" with
  | Ok (Transport.Socket.Tcp (h, p)) ->
    check Alcotest.string "host" "127.0.0.1" h;
    check Alcotest.int "port" 9000 p
  | _ -> Alcotest.fail "tcp address did not parse");
  (match Addr.parse "localhost:80" with
  | Ok (Transport.Socket.Tcp (h, _)) -> check Alcotest.string "localhost folds" "127.0.0.1" h
  | _ -> Alcotest.fail "localhost did not parse");
  List.iter
    (fun bad ->
      match Addr.parse bad with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" bad)
      | Error msg -> checkb (bad ^ " has a message") true (String.length msg > 0))
    [ ""; "no-colon"; "host:"; "host:notaport"; "host:70000"; "host:-1"; "unix:"; "nosuchhostname.invalid:80" ]

let test_addr_party () =
  (match Addr.party_of_string "H" with
  | Ok 0 -> ()
  | _ -> Alcotest.fail "H should be party 0");
  (match Addr.party_of_string "P3" with
  | Ok 3 -> ()
  | _ -> Alcotest.fail "P3 should be party 3");
  List.iter
    (fun bad ->
      match Addr.party_of_string bad with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" bad)
      | Error _ -> ())
    [ ""; "P0"; "P"; "Q2"; "H2" ];
  (match Addr.party_of_string "p1" with
  | Ok 1 -> ()
  | _ -> Alcotest.fail "party names are case-insensitive");
  check Alcotest.string "party 0 name" "H" (Addr.party_name 0);
  check Alcotest.string "party 2 name" "P2" (Addr.party_name 2)

let test_addr_roster () =
  let spec = "P2=unix:/tmp/p2.sock,H=127.0.0.1:9000,P1=127.0.0.1:9001" in
  (match Addr.roster_of_string spec with
  | Error msg -> Alcotest.fail msg
  | Ok roster ->
    check Alcotest.int "roster size" 3 (Array.length roster);
    check Alcotest.string "H first" "127.0.0.1:9000" (Addr.to_string roster.(0));
    check Alcotest.string "P2 last" "unix:/tmp/p2.sock" (Addr.to_string roster.(2));
    (* Round-trip through the printer. *)
    match Addr.roster_of_string (Addr.roster_to_string roster) with
    | Ok again -> checkb "round-trips" true (again = roster)
    | Error msg -> Alcotest.fail msg);
  List.iter
    (fun bad ->
      match Addr.roster_of_string bad with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" bad)
      | Error _ -> ())
    [
      "";
      "H=127.0.0.1:9000";  (* no providers *)
      "H=127.0.0.1:9000,P2=127.0.0.1:9002";  (* gap: P1 missing *)
      "H=127.0.0.1:9000,P1=127.0.0.1:9001,P1=127.0.0.1:9002";  (* duplicate *)
      "P1=127.0.0.1:9001,P2=127.0.0.1:9002";  (* no host *)
      "H=127.0.0.1:9000,P1=nonsense";  (* bad address *)
    ]

(* --- the spe-serve/2 codec -------------------------------------------------- *)

let sample_spec =
  {
    Proto.pipeline = Proto.Links;
    seed = 42;
    shards = 3;
    h = 2;
    c_factor = 2.5;
    modulus_bits = 40;
    tau = 6;
    key_bits = 128;
    pack_slots = 4;
    epoch_ticks = 25;
    window = 6;
    epochs = 5;
    rate = 0.5;
    burstiness = 0.375;
    jitter = 2;
    damping = 0.875;
    iterations = 12;
    fbits = 18;
    rank_degree = true;
  }

let roundtrip frame = Proto.decode (Proto.encode frame)

(* One valid frame of every tag and every reply kind: the round-trip
   corpus, and the seeds the decoder fuzzer mutates. *)
let sample_frames =
  [
    Proto.Hello { role = Proto.Party 0; version = Proto.version; workload = 0x123456789 };
    Proto.Hello { role = Proto.Client; version = Proto.version; workload = 0 };
    Proto.Session_frame { sid = 65537; body = Bytes.of_string "\x00\x01\xff" };
    Proto.Job_submit { job = 7; spec = sample_spec };
    Proto.Job_submit
      { job = 8; spec = { sample_spec with Proto.pipeline = Proto.Scores } };
    Proto.Job_submit
      { job = 11; spec = { sample_spec with Proto.pipeline = Proto.Stream } };
    Proto.Job_submit
      { job = 13; spec = { sample_spec with Proto.pipeline = Proto.Rank } };
    Proto.Job_result
      {
        job = 13;
        reply = Proto.Rank_summary { ranks_fx = [| 0; 123456; 1 lsl 20 |]; fbits = 20 };
      };
    Proto.Job_result
      { job = 7; reply = Proto.Strengths [ ((0, 1), 0.5); ((3, 2), 0.125) ] };
    Proto.Job_result { job = 9; reply = Proto.Scores [| 1.5; 0.0; nan; 3.25 |] };
    Proto.Job_result
      {
        job = 12;
        reply =
          Proto.Stream_summary
            {
              digests = [| 0x1fff_ffff_ffff_ffff; 0; 42 |];
              recomputed = [| 18; 0; 3 |];
              strengths = [ ((1, 0), 0.25); ((4, 5), 0.75) ];
            };
      };
    Proto.Job_result
      {
        job = 10;
        reply = Proto.Failed { kind = Proto.Peer_down; detail = "P2 died" };
      };
    Proto.Busy { job = 3; queued = 64; max_queue = 64 };
    Proto.Job_cancel { job = 5 };
    Proto.Shutdown;
  ]

let test_proto_roundtrip () =
  List.iter
    (fun frame ->
      let back = roundtrip frame in
      (* NaN-tolerant structural equality: compare re-encodings, which
         are bit-exact for floats. *)
      checkb "frame round-trips" true (Proto.encode back = Proto.encode frame))
    sample_frames

(* The mesh decodes frames in place out of a link's read slab and
   encodes session frames straight into its write slab: both must be
   byte-for-byte the whole-buffer codec. *)
let test_proto_slices () =
  let frames =
    [
      Proto.Session_frame { sid = (7 lsl 16) + 3; body = Bytes.of_string "inner-frame" };
      Proto.Session_frame { sid = 0; body = Bytes.empty };
      Proto.Job_submit { job = 7; spec = sample_spec };
      Proto.Job_cancel { job = 5 };
      Proto.Shutdown;
    ]
  in
  List.iter
    (fun frame ->
      let enc = Proto.encode frame in
      let n = Bytes.length enc in
      let padded = Bytes.make (n + 7) '\xee' in
      Bytes.blit enc 0 padded 3 n;
      checkb "slice decodes like the whole buffer" true
        (Proto.encode (Proto.decode_slice padded 3 n) = enc))
    frames;
  let body = Bytes.of_string "\x00\x01\xff" in
  let sid = 65537 in
  let direct = Bytes.make (Proto.session_frame_length body + 2) '\x00' in
  Proto.put_session_frame direct 2 ~sid body;
  checkb "in-place session frame = encode" true
    (Bytes.sub direct 2 (Proto.session_frame_length body)
    = Proto.encode (Proto.Session_frame { sid; body }));
  let expect_invalid what buf off len =
    match Proto.decode_slice buf off len with
    | _ -> Alcotest.fail (what ^ " should have been rejected")
    | exception Invalid_argument _ -> ()
  in
  let enc = Proto.encode (Proto.Session_frame { sid; body }) in
  let n = Bytes.length enc in
  expect_invalid "session body past the slice" enc 0 (n - 1);
  expect_invalid "trailing byte in the slice" (Bytes.extend enc 0 1) 0 (n + 1);
  expect_invalid "slice outside the buffer" enc 1 n

let test_proto_rejects_malformed () =
  let expect_invalid what bytes =
    match Proto.decode bytes with
    | _ -> Alcotest.fail (what ^ " should have been rejected")
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "empty frame" (Bytes.create 0);
  expect_invalid "unknown tag" (Bytes.make 4 '\x00');
  let good = Proto.encode (Proto.Job_cancel { job = 5 }) in
  let trailing = Bytes.extend good 0 1 in
  expect_invalid "trailing bytes" trailing;
  let truncated = Bytes.sub good 0 (Bytes.length good - 1) in
  expect_invalid "truncated frame" truncated;
  (* An inner-protocol frame (tags 0-4) must never decode as a serve
     frame. *)
  expect_invalid "inner frame tag" (Bytes.make 8 '\x02')

(* --- decoders on hostile bytes ------------------------------------------------ *)

(* A count field claims far more entries than the frame carries: the
   decoders must refuse it before allocating for the claim.  Each frame
   is a valid encoding of one entry with its count field patched to
   2^20, so an eager decoder reads the first entry and then sizes its
   result by the claim. *)
let test_decode_allocation_bound () =
  let claim = 1 lsl 20 in
  let patched b ~at set =
    let b = Bytes.copy b in
    set b at;
    b
  in
  let u32 b at = Bytes.set_int32_be b at (Int32.of_int claim) in
  let bounded what decode bytes =
    let before = Gc.allocated_bytes () in
    (match decode bytes with
    | _ -> Alcotest.fail (what ^ ": a claim the frame cannot hold was accepted")
    | exception Invalid_argument _ -> ());
    let spent = Gc.allocated_bytes () -. before in
    checkb (Printf.sprintf "%s: %.0f bytes allocated" what spent) true (spent < 65536.)
  in
  (* Job_result: tag, u63 job, reply kind, then the reply's fields. *)
  let result reply = Proto.encode (Proto.Job_result { job = 1; reply }) in
  let one = [ ((0, 1), 0.5) ] in
  List.iter
    (fun (what, reply, at, set) -> bounded what Proto.decode (patched (result reply) ~at set))
    [
      ("strengths", Proto.Strengths one, 10, u32);
      ("scores", Proto.Scores [| 0.5 |], 10, u32);
      ("rank", Proto.Rank_summary { ranks_fx = [| 7 |]; fbits = 20 }, 12, u32);
      ( "stream strengths",
        Proto.Stream_summary { digests = [||]; recomputed = [||]; strengths = one },
        12,
        u32 );
      ( "stream epochs",
        Proto.Stream_summary { digests = [| 9 |]; recomputed = [| 1 |]; strengths = [] },
        10,
        fun b at -> Bytes.set_uint16_be b at 0xFFFF );
    ];
  (* Data: tag, u32 round, u32 seq, u16 src, u16 dst, then the payload:
     kind, and for tuples a u16 arity and one u63 modulus per column. *)
  let data payload =
    Frame.encode (Frame.Data { round = 1; seq = 0; src = Wire.Provider 0; dst = Wire.Host; payload })
  in
  List.iter
    (fun (what, payload, at) -> bounded what Frame.decode (patched (data payload) ~at u32))
    [
      ("arity-0 tuples", Runtime.Tuples { moduli = [||]; rows = [||] }, 16);
      ("tuples", Runtime.Tuples { moduli = [| 4; 1 lsl 20 |]; rows = [| [| 3; 5 |] |] }, 32);
      ("nats", Runtime.Nats { width_bits = 12; values = [| Nat.of_int 5 |] }, 22);
    ]

let qcheck_decoder_tests =
  let open QCheck in
  let input = make (Util.fuzz_input ~seeds:(List.map Proto.encode sample_frames)) in
  [
    Test.make ~name:"Serve_proto.decode: round-trips or rejects" ~count:3000 input
      (Util.decodes_or_rejects ~decode:Proto.decode ~encode:Proto.encode);
    (* The same bytes inside a larger buffer: the in-place slice decoder
       must agree with the whole-buffer one, value for value and
       rejection for rejection. *)
    Test.make ~name:"Serve_proto.decode_slice agrees with decode" ~count:3000
      (pair input (pair (int_range 0 5) (int_range 0 5)))
      (fun (bytes, (pre, post)) ->
        let n = Bytes.length bytes in
        let buf = Bytes.make (pre + n + post) '\xee' in
        Bytes.blit bytes 0 buf pre n;
        let outcome f = match f () with v -> Some v | exception Invalid_argument _ -> None in
        compare
          (outcome (fun () -> Proto.decode_slice buf pre n))
          (outcome (fun () -> Proto.decode bytes))
        = 0);
  ]

(* --- scheduler admission ---------------------------------------------------- *)

let test_scheduler_admission () =
  let s = Scheduler.create ~max_queue:2 ~max_active:1 () in
  checkb "1st accepted" true (Scheduler.submit s 1 = Scheduler.Accepted);
  checkb "2nd accepted" true (Scheduler.submit s 2 = Scheduler.Accepted);
  (match Scheduler.submit s 3 with
  | Scheduler.Busy { queued = 2; max_queue = 2 } -> ()
  | _ -> Alcotest.fail "3rd submit should be Busy {queued=2}");
  check Alcotest.int "depth" 2 (Scheduler.depth s);
  (* A worker claims one; a queue slot frees up. *)
  (match Scheduler.take s with
  | Some 1 -> ()
  | _ -> Alcotest.fail "take should yield the first job");
  check Alcotest.int "active" 1 (Scheduler.active s);
  checkb "refill accepted" true (Scheduler.submit s 4 = Scheduler.Accepted);
  Scheduler.finish s;
  check Alcotest.int "active after finish" 0 (Scheduler.active s);
  let drained = Scheduler.stop s in
  checkb "stop returns the queue in order" true (drained = [ 2; 4 ]);
  checkb "take after stop" true (Scheduler.take s = None);
  (match Scheduler.submit s 5 with
  | Scheduler.Busy _ -> ()
  | _ -> Alcotest.fail "submit after stop should be Busy");
  let st = Scheduler.stats s in
  check Alcotest.int "submitted" 3 st.Scheduler.submitted;
  check Alcotest.int "rejected" 2 st.Scheduler.rejected;
  check Alcotest.int "completed" 1 st.Scheduler.completed

(* --- job validation --------------------------------------------------------- *)

(* The daemon-side twin of the CLI's typed usage errors (the --shards 0
   family): every flag the CLI bounces — zero shards, negative epoch or
   window, out-of-range modulus bits, bad rank parameters — must also
   bounce off Job.validate, so a hand-rolled client cannot smuggle a
   bad spec past the daemons. *)
let test_job_validate () =
  let graph, logs = Util.workload ~seed:31 ~n:10 ~edges:24 ~actions:5 ~m:2 in
  let w = { Job.graph; logs } in
  let ok name spec =
    match Job.validate spec w with
    | Ok () -> ()
    | Error msg -> Alcotest.fail (Printf.sprintf "%s should validate: %s" name msg)
  in
  let bad name spec =
    match Job.validate spec w with
    | Ok () -> Alcotest.fail (Printf.sprintf "%s should be rejected" name)
    | Error msg -> checkb (name ^ " has a detail") true (String.length msg > 0)
  in
  ok "default links" Proto.default_spec;
  (match Job.validate Proto.default_spec { Job.graph; logs = [| logs.(0) |] } with
  | Ok () -> Alcotest.fail "single provider should be rejected"
  | Error _ -> ());
  bad "shards 0" { Proto.default_spec with Proto.shards = 0 };
  bad "shards -3" { Proto.default_spec with Proto.shards = -3 };
  bad "modulus_bits 1" { Proto.default_spec with Proto.modulus_bits = 1 };
  bad "modulus_bits 62" { Proto.default_spec with Proto.modulus_bits = 62 };
  bad "links h 0" { Proto.default_spec with Proto.h = 0 };
  bad "links c_factor 0.5" { Proto.default_spec with Proto.c_factor = 0.5 };
  let scores = { Proto.default_spec with Proto.pipeline = Proto.Scores } in
  ok "default scores" scores;
  bad "scores tau 0" { scores with Proto.tau = 0 };
  bad "scores key_bits 8" { scores with Proto.key_bits = 8 };
  bad "scores pack_slots 0" { scores with Proto.pack_slots = 0 };
  let stream =
    {
      Proto.default_spec with
      Proto.pipeline = Proto.Stream;
      epoch_ticks = 25;
      epochs = 3;
      rate = 0.6;
    }
  in
  ok "valid stream" stream;
  bad "stream epoch_ticks 0" { stream with Proto.epoch_ticks = 0 };
  bad "stream epoch_ticks -1" { stream with Proto.epoch_ticks = -1 };
  bad "stream window -1" { stream with Proto.window = -1 };
  bad "stream epochs 0" { stream with Proto.epochs = 0 };
  bad "stream rate 0" { stream with Proto.rate = 0. };
  bad "stream burstiness 1" { stream with Proto.burstiness = 1. };
  bad "stream jitter -2" { stream with Proto.jitter = -2 };
  let rank = { Proto.default_spec with Proto.pipeline = Proto.Rank } in
  ok "default rank" rank;
  bad "rank damping 1" { rank with Proto.damping = 1. };
  bad "rank damping -0.1" { rank with Proto.damping = -0.1 };
  bad "rank iterations -1" { rank with Proto.iterations = -1 };
  bad "rank fbits 3" { rank with Proto.fbits = 3 };
  bad "rank fbits 31" { rank with Proto.fbits = 31 };
  bad "rank fbits = modulus_bits" { rank with Proto.fbits = 20; modulus_bits = 20 }

(* --- live deployments ------------------------------------------------------- *)

(* A small links workload: 3 providers like the chaos campaigns, so the
   mesh is a real 4-daemon clique (shared with test_rank via Util). *)
let links_workload = Util.links_workload

let links_spec ~pseed ~shards =
  {
    Proto.default_spec with
    Proto.pipeline = Proto.Links;
    seed = pseed;
    shards;
    h = 2;
    c_factor = 2.;
    modulus_bits = 40;
  }

let links_oracle ~pseed ~graph ~logs =
  let r =
    Driver.link_strengths_exclusive (State.create ~seed:pseed ()) ~graph ~logs
      (Protocol4.default_config ~h:2)
  in
  r.Driver.strengths

(* Start one in-process daemon per party over a temp unix-domain
   roster, run [f client daemons roster], then shut everything down
   (shared with test_rank via Util). *)
let with_deployment = Util.with_deployment
let gauge = Util.gauge

(* Satellite: N >= 3 sequential sharded sessions over one connection
   set, bit-identical to the central Driver oracle, with exactly one
   Hello exchange per mesh connection in the accounting. *)
let test_daemon_sequential_jobs () =
  with_deployment (fun client daemons _roster ~graph ~logs ->
      let m = Array.length logs in
      let pseed = links_workload.Schedule.wseed + 1 in
      let expected = Proto.Strengths (links_oracle ~pseed ~graph ~logs) in
      for _round = 1 to 3 do
        match
          Client.run_jobs client
            [ links_spec ~pseed ~shards:2 ]
            ~deadline:(Unix.gettimeofday () +. 60.)
        with
        | [ Client.Result reply ] ->
          checkb "bit-identical to the central oracle" true (reply = expected)
        | _ -> Alcotest.fail "job did not complete"
      done;
      (* One Hello exchange per mesh connection, none per job: every
         daemon received exactly one Hello from each of its m peers
         (client hellos are counted separately), no matter how many
         sessions multiplexed over the mesh. *)
      for party = 0 to m do
        check Alcotest.int
          (Printf.sprintf "daemon %s hellos" (Addr.party_name party))
          m
          (gauge daemons party "hellos_received")
      done;
      checkb "H ran sessions" true (gauge daemons 0 "sessions_run" > 0);
      check Alcotest.int "H completed all jobs" 3 (gauge daemons 0 "jobs_completed"))

(* Exact daemon accounting: with every daemon traced, N identical jobs
   move exactly N times the payload the job's plan moves on the sim
   wire, once every daemon has run all its seats of every job. *)
let test_daemon_payload_exact () =
  with_deployment ~trace_all:true (fun client daemons _roster ~graph ~logs ->
      let jobs = 6 in
      let pseed = links_workload.Schedule.wseed + 1 in
      let spec = links_spec ~pseed ~shards:2 in
      let outcomes =
        Client.run_jobs client (List.init jobs (fun _ -> spec))
          ~deadline:(Unix.gettimeofday () +. 60.)
      in
      checkb "every job completed" true
        (List.for_all
           (function Client.Result (Proto.Strengths _) -> true | _ -> false)
           outcomes);
      let wl = { Job.graph; logs } in
      let settle = Unix.gettimeofday () +. 10. in
      Array.iteri
        (fun party _ ->
          let seats, _ = Job.seats ~job:0 ~party (Job.build spec wl) in
          let expected = jobs * List.length (List.concat seats) in
          while gauge daemons party "sessions_run" < expected && Unix.gettimeofday () < settle do
            Thread.delay 0.002
          done;
          check Alcotest.int
            (Printf.sprintf "%s ran all its seats" (Addr.party_name party))
            expected (gauge daemons party "sessions_run"))
        daemons;
      let w = Wire.create () in
      Session.run
        (Plan.to_session
           (Plan.make ~shards:1 ~stages:(Job.stages (Job.build spec wl)) ~result:ignore))
        ~wire:w;
      let merged = Metrics.merge (List.filter_map Daemon.report (Array.to_list daemons)) in
      check Alcotest.int "deployment payload = jobs x the plan's sim payload"
        (jobs * (Wire.stats w).Wire.bits / 8)
        merged.Metrics.payload_bytes)

(* Acceptance: a 50-job concurrent burst under admission control, every
   reply bit-identical. *)
let test_daemon_burst_50 () =
  let workload = { Schedule.wseed = 11; users = 12; edges = 30; actions = 6; providers = 2 } in
  with_deployment ~workload ~max_sessions:4 ~max_queue:64
    (fun client daemons _roster ~graph ~logs ->
      let pseed = workload.Schedule.wseed + 1 in
      let expected = Proto.Strengths (links_oracle ~pseed ~graph ~logs) in
      let jobs = 50 in
      let outcomes =
        Client.run_jobs client
          (List.init jobs (fun _ -> links_spec ~pseed ~shards:2))
          ~deadline:(Unix.gettimeofday () +. 120.)
      in
      check Alcotest.int "all jobs answered" jobs (List.length outcomes);
      List.iteri
        (fun i outcome ->
          match outcome with
          | Client.Result reply ->
            checkb (Printf.sprintf "job %d bit-identical" i) true (reply = expected)
          | Client.Busy _ -> Alcotest.fail (Printf.sprintf "job %d refused from a 64-slot queue" i))
        outcomes;
      check Alcotest.int "H completed all" jobs (gauge daemons 0 "jobs_completed");
      checkb "admission never tripped" true (gauge daemons 0 "busy_rejected" = 0))

(* Backpressure: a tiny queue must refuse part of a burst with the
   typed Busy reply, and what it does admit still completes correctly. *)
let test_daemon_busy_backpressure () =
  let workload = { Schedule.wseed = 11; users = 12; edges = 30; actions = 6; providers = 2 } in
  with_deployment ~workload ~max_sessions:1 ~max_queue:1
    (fun client daemons _roster ~graph ~logs ->
      let pseed = workload.Schedule.wseed + 1 in
      let expected = Proto.Strengths (links_oracle ~pseed ~graph ~logs) in
      let jobs = 8 in
      let outcomes =
        Client.run_jobs client
          (List.init jobs (fun _ -> links_spec ~pseed ~shards:2))
          ~deadline:(Unix.gettimeofday () +. 120.)
      in
      let busy, completed =
        List.partition (function Client.Busy _ -> true | _ -> false) outcomes
      in
      checkb "some jobs were refused" true (busy <> []);
      checkb "some jobs completed" true (completed <> []);
      List.iter
        (function
          | Client.Result reply ->
            checkb "admitted jobs still bit-identical" true (reply = expected)
          | Client.Busy { queued; max_queue } ->
            check Alcotest.int "busy names the bound" 1 max_queue;
            checkb "busy names the depth" true (queued >= 0))
        outcomes;
      let st = gauge daemons 0 "busy_rejected" in
      check Alcotest.int "every refusal counted" (List.length busy) st)

(* The scrape endpoint: live gauges + cumulative report, over both the
   raw and the HTTP framing. *)
let test_daemon_scrape () =
  let dir = Filename.temp_file "spe-scrape" "" in
  Unix.unlink dir;
  let maddr = Transport.Socket.Unix_domain dir in
  with_deployment ~metrics_addr:maddr (fun client _daemons _roster ~graph ~logs ->
      let pseed = links_workload.Schedule.wseed + 1 in
      let expected = Proto.Strengths (links_oracle ~pseed ~graph ~logs) in
      (match
         Client.run_jobs client
           [ links_spec ~pseed ~shards:2 ]
           ~deadline:(Unix.gettimeofday () +. 60.)
       with
      | [ Client.Result reply ] -> checkb "job ok" true (reply = expected)
      | _ -> Alcotest.fail "job did not complete");
      let doc = Client.scrape maddr in
      let json = Json.of_string doc in
      (match Json.member "version" json with
      | Json.String "spe-serve-metrics/1" -> ()
      | _ -> Alcotest.fail "scrape document version");
      (match Json.member "party" json with
      | Json.String "H" -> ()
      | _ -> Alcotest.fail "scrape document party");
      (match Json.member "gauges" json with
      | Json.Obj gauges ->
        List.iter
          (fun key ->
            match List.assoc_opt key gauges with
            | Some (Json.Int _) -> ()
            | _ -> Alcotest.fail (Printf.sprintf "gauge %s missing from scrape" key))
          [
            "queue_depth"; "active_jobs"; "active_sessions"; "jobs_submitted";
            "jobs_completed"; "busy_rejected"; "hellos_sent"; "hellos_received";
            "reactor_iterations"; "reactor_timer_fires"; "reactor_ready_depth";
            "reactor_pending_timers";
          ];
        (match List.assoc_opt "jobs_completed" gauges with
        | Some (Json.Int n) -> checkb "completed gauge counts" true (n >= 1)
        | _ -> Alcotest.fail "jobs_completed gauge");
        (* The daemon ran a whole job on its loop thread by now, so the
           reactor liveness gauges must be moving. *)
        (match List.assoc_opt "reactor_iterations" gauges with
        | Some (Json.Int n) -> checkb "reactor loop iterated" true (n > 0)
        | _ -> Alcotest.fail "reactor_iterations gauge")
      | _ -> Alcotest.fail "scrape gauges object");
      (* Tracing was on, so the cumulative spe-metrics/2 report is
         attached. *)
      (match Json.member "report" json with
      | Json.Obj _ -> ()
      | _ -> Alcotest.fail "scrape report should be a merged spe-metrics/2 document");
      (* The same endpoint speaks HTTP when asked with a GET line. *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Addr.sockaddr maddr);
      let req = Bytes.of_string "GET /metrics HTTP/1.0\r\n\r\n" in
      ignore (Unix.write fd req 0 (Bytes.length req));
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
      in
      drain ();
      Unix.close fd;
      let http = Buffer.contents buf in
      checkb "HTTP status line" true
        (String.length http > 15 && String.sub http 0 15 = "HTTP/1.0 200 OK");
      checkb "HTTP body carries the document" true
        (let marker = "spe-serve-metrics/1" in
         let rec find i =
           if i + String.length marker > String.length http then false
           else String.sub http i (String.length marker) = marker || find (i + 1)
         in
         find 0))

(* Satellite: --pack-slots travels in the job spec now (PR 8's daemons
   refused it), and a packed scores job over the mesh stays
   bit-identical to the central oracle with the same packing. *)
let test_daemon_scores_pack_slots () =
  with_deployment (fun client _daemons _roster ~graph ~logs ->
      let pseed = links_workload.Schedule.wseed + 3 in
      let module Protocol6 = Spe_core.Protocol6 in
      let config =
        { Protocol6.default_config with Protocol6.key_bits = 128; pack_slots = 4 }
      in
      let r =
        Driver.user_scores_exclusive (State.create ~seed:pseed ()) ~graph ~logs ~tau:2
          ~modulus:(1 lsl 20) config
      in
      let expected = Proto.Scores r.Driver.scores in
      let spec =
        {
          Proto.default_spec with
          Proto.pipeline = Proto.Scores;
          seed = pseed;
          shards = 2;
          modulus_bits = 20;
          tau = 2;
          key_bits = 128;
          pack_slots = 4;
        }
      in
      match Client.run_jobs client [ spec ] ~deadline:(Unix.gettimeofday () +. 120.) with
      | [ Client.Result reply ] ->
        checkb "packed scores job bit-identical to the central oracle" true
          (reply = expected)
      | _ -> Alcotest.fail "packed scores job did not complete")

(* Tentpole: a stream job over the mesh.  Every daemon replays the
   identical seeded ingestion and runs the concatenated epoch-delta
   stages; the reply must be bit-identical to building and running the
   same plan locally, and the per-epoch gauges must advance. *)
let test_daemon_stream_job () =
  with_deployment (fun client daemons _roster ~graph ~logs ->
      let module Plan = Spe_core.Plan in
      let pseed = links_workload.Schedule.wseed + 5 in
      let epochs = 4 in
      let spec =
        {
          Proto.default_spec with
          Proto.pipeline = Proto.Stream;
          seed = pseed;
          h = 2;
          c_factor = 2.;
          modulus_bits = 40;
          epoch_ticks = 25;
          window = 6;
          epochs;
          rate = 0.5;
          burstiness = 0.4;
          jitter = 2;
        }
      in
      (* The local oracle: the identical plan the daemons rebuild, run
         on the in-process memory engine (delta releases are
         engine-independent — pinned by the spe_delta suite). *)
      let expected =
        let planned = Job.build spec { Job.graph; logs } in
        let plan = Plan.make ~shards:1 ~stages:(Job.stages planned) ~result:ignore in
        ignore (Plan.execute ~workers:2 ~engine:`Memory plan);
        Job.reply_of planned
      in
      (match expected with
      | Proto.Stream_summary { digests; recomputed; strengths } ->
        check Alcotest.int "oracle released every epoch" epochs (Array.length digests);
        checkb "first epoch recomputed something" true (recomputed.(0) > 0);
        checkb "final strengths non-empty" true (strengths <> [])
      | _ -> Alcotest.fail "stream oracle reply shape");
      (match Client.run_jobs client [ spec ] ~deadline:(Unix.gettimeofday () +. 120.) with
      | [ Client.Result reply ] ->
        checkb "stream job bit-identical to the local plan" true (reply = expected)
      | _ -> Alcotest.fail "stream job did not complete");
      (* Per-epoch gauges: every daemon walks every stage, so H saw all
         the releases. *)
      check Alcotest.int "H released every epoch" epochs (gauge daemons 0 "epochs_released");
      check Alcotest.int "H tracked the last epoch" (epochs - 1) (gauge daemons 0 "last_epoch");
      checkb "H ran epoch recompute sessions" true (gauge daemons 0 "epoch_sessions_run" > 0);
      (* Mesh gauges: once the trailing Fin frames have landed, every
         frame one daemon sent another received, and the links batched
         frames into fewer writes everywhere. *)
      let total name = Array.fold_left (fun acc d -> acc + List.assoc name (Daemon.gauges d)) 0 daemons in
      let settle = Unix.gettimeofday () +. 2. in
      while
        total "mesh_frames_sent" <> total "mesh_frames_received" && Unix.gettimeofday () < settle
      do
        Thread.delay 0.02
      done;
      check Alcotest.int "mesh frames sent = received" (total "mesh_frames_sent")
        (total "mesh_frames_received");
      Array.iteri
        (fun party _ ->
          let writes = gauge daemons party "mesh_writes"
          and frames = gauge daemons party "mesh_frames_sent" in
          checkb
            (Printf.sprintf "%s batches: %d writes < %d frames" (Addr.party_name party) writes frames)
            true (writes < frames))
        daemons)

(* --- the mesh's failure paths ----------------------------------------------- *)

let peer_death_kind = function
  | Proto.Peer_down | Proto.Round_timeout | Proto.Shard_failed -> true
  | Proto.Rejected | Proto.Busy_queue | Proto.Other -> false

let failure_workload = { Schedule.wseed = 11; users = 12; edges = 30; actions = 6; providers = 2 }

(* H and P1 as in-process daemons at their default timeouts, and a mute
   P2: sockets that complete the mesh Hello exchange with H (and with P1
   when [reach_p1]) and then never speak.  [f client daemons kill] runs
   once every daemon has installed the links it should have; [kill ()]
   closes the mute sockets. *)
let with_mute_p2 ?(dial_timeout = 15.) ~reach_p1 f =
  let graph, logs = Harness.workload_inputs failure_workload in
  let workload = { Job.graph; logs } in
  let roster = Transport.Socket.temp_unix_addresses ~m:3 in
  let daemons =
    Array.init 2 (fun party ->
        Daemon.start { (Daemon.default_config ~party ~roster) with Daemon.dial_timeout } workload)
  in
  let mute_dial party =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Addr.sockaddr roster.(party));
    Proto.write fd
      (Proto.Hello { role = Proto.Party 2; version = Proto.version; workload = Job.digest workload });
    (match Proto.read fd with
    | Some (Proto.Hello _) -> ()
    | _ -> Alcotest.fail "no Hello back from the daemon");
    fd
  in
  let mute = ref (List.map mute_dial (if reach_p1 then [ 0; 1 ] else [ 0 ])) in
  let kill () =
    List.iter Unix.close !mute;
    mute := []
  in
  let ready = Unix.gettimeofday () +. 10. in
  while
    (gauge daemons 0 "hellos_received" < 2
    || gauge daemons 1 "hellos_received" < if reach_p1 then 2 else 1)
    && Unix.gettimeofday () < ready
  do
    Thread.delay 0.01
  done;
  let client = Client.connect ~retry_for:10. roster.(0) in
  Fun.protect
    ~finally:(fun () ->
      Client.close client;
      kill ();
      ignore (Client.shutdown_roster ~timeout:15. roster);
      Array.iter (fun d -> Daemon.wait ~timeout:30. d) daemons)
    (fun () -> f client daemons kill)

let expect_typed_failure what client ~within =
  let t0 = Unix.gettimeofday () in
  match Client.next_reply client ~deadline:(t0 +. within) with
  | None -> Alcotest.fail (Printf.sprintf "%s: no reply within %.0f s" what within)
  | Some (_, Client.Result (Proto.Failed { kind; _ })) ->
    checkb (what ^ ": typed peer failure") true (peer_death_kind kind)
  | Some _ -> Alcotest.fail (what ^ ": the job should have failed")

(* A peer whose connection dies mid-job fails the job's sessions at
   once: the mute P2 is killed only once H shows the job's sessions
   open and its first round sent, so every H seat is waiting on P2's
   frames; at the daemons' default 300 s round timeout only the link's
   death can answer the client inside the 30 s wall budget. *)
let test_peer_death_fails_promptly () =
  with_mute_p2 ~reach_p1:true (fun client daemons kill ->
      let spec = links_spec ~pseed:(failure_workload.Schedule.wseed + 1) ~shards:2 in
      ignore (Client.submit client spec);
      let open_by = Unix.gettimeofday () +. 10. in
      while gauge daemons 0 "active_sessions" = 0 && Unix.gettimeofday () < open_by do
        Thread.delay 0.005
      done;
      checkb "the job's sessions opened at H" true (gauge daemons 0 "active_sessions" > 0);
      Thread.delay 0.2;
      kill ();
      expect_typed_failure "dead peer" client ~within:Harness.wall_budget)

(* A provider that fails a job locally tells H: P1 cannot reach the
   mute P2, waits out its mesh deadline (2 s here), and cancels, so the
   client gets a typed failure within seconds instead of after H's
   300 s round timeout. *)
let test_provider_failure_reaches_host () =
  with_mute_p2 ~dial_timeout:2. ~reach_p1:false (fun client daemons _kill ->
      let spec = links_spec ~pseed:(failure_workload.Schedule.wseed + 1) ~shards:2 in
      ignore (Client.submit client spec);
      expect_typed_failure "provider failure" client ~within:15.;
      checkb "P1 counted the failure" true (gauge daemons 1 "jobs_failed" >= 1))

(* Complete one links job from a fresh client connection, on a thread,
   within [seconds]: an acceptor stuck on another connection must not
   hang the test. *)
let fresh_client_job ~seconds roster ~graph ~logs =
  let pseed = links_workload.Schedule.wseed + 1 in
  let expected = Proto.Strengths (links_oracle ~pseed ~graph ~logs) in
  let outcome = ref None in
  let th =
    Thread.create
      (fun () ->
        outcome :=
          Some
            (match Client.connect roster.(0) with
            | exception e -> Error (Printexc.to_string e)
            | c ->
              let r =
                try
                  Ok
                    (Client.run_jobs c
                       [ links_spec ~pseed ~shards:2 ]
                       ~deadline:(Unix.gettimeofday () +. seconds))
                with e -> Error (Printexc.to_string e)
              in
              Client.close c;
              r))
      ()
  in
  let deadline = Unix.gettimeofday () +. seconds in
  while !outcome = None && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  match !outcome with
  | None -> Alcotest.fail "a fresh client got no job through: the acceptor is stuck"
  | Some (Error e) -> Alcotest.fail ("fresh client failed: " ^ e)
  | Some (Ok [ Client.Result reply ]) ->
    Thread.join th;
    checkb "fresh client's job bit-identical" true (reply = expected)
  | Some (Ok _) -> Alcotest.fail "fresh client's job did not complete"

(* The daemon closes [fd] within its dial timeout (2 s here). *)
let expect_closed_by_daemon fd =
  let buf = Bytes.create 64 in
  let deadline = Unix.gettimeofday () +. 8. in
  let rec wait () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then Alcotest.fail "the daemon kept a connection without a Hello"
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> wait ()
      | _ -> (
        match Unix.read fd buf 0 64 with
        | 0 -> ()
        | _ -> wait ()
        | exception Unix.Unix_error _ -> ())
  in
  wait ()

let raw_connect addr =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Addr.sockaddr addr);
  fd

(* A connection that never sends its Hello must not stop the daemon
   accepting anyone else, and is closed after the dial timeout. *)
let test_silent_connection () =
  with_deployment ~dial_timeout:2. (fun _client _daemons roster ~graph ~logs ->
      let silent = raw_connect roster.(0) in
      Fun.protect
        ~finally:(fun () -> Unix.close silent)
        (fun () ->
          fresh_client_job ~seconds:15. roster ~graph ~logs;
          expect_closed_by_daemon silent))

(* A length prefix of 0x7FFFFFF0 followed by 10 bytes: the daemon must
   neither allocate the claimed length nor wait on it. *)
let test_hostile_length_prefix () =
  with_deployment ~dial_timeout:2. (fun _client _daemons roster ~graph ~logs ->
      let hostile = raw_connect roster.(0) in
      Fun.protect
        ~finally:(fun () -> Unix.close hostile)
        (fun () ->
          let bytes = Bytes.make 14 'x' in
          Bytes.set_int32_be bytes 0 0x7FFFFFF0l;
          ignore (Unix.write hostile bytes 0 14);
          fresh_client_job ~seconds:15. roster ~graph ~logs;
          expect_closed_by_daemon hostile))

(* Whole-party chaos: SIGKILL one provider daemon mid-burst; every
   client reply stays typed, survivors match the oracle, the host keeps
   serving, and every forked daemon is reaped. *)
let test_daemon_kill_campaign () =
  match Spe_chaos.Daemon_fault.run ~jobs:3 ~seed:1 Schedule.Links with
  | Harness.Pass -> ()
  | Harness.Fail { oracle; detail } ->
    Alcotest.fail (Printf.sprintf "%s violation: %s" oracle detail)

let () =
  Alcotest.run "serve"
    [
      ( "addr",
        [
          Alcotest.test_case "parses tcp and unix addresses" `Quick test_addr_parse;
          Alcotest.test_case "parses party names" `Quick test_addr_party;
          Alcotest.test_case "parses rosters" `Quick test_addr_roster;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "frames round-trip" `Quick test_proto_roundtrip;
          Alcotest.test_case "rejects malformed frames" `Quick
            test_proto_rejects_malformed;
          Alcotest.test_case "in-place slices match the codec" `Quick test_proto_slices;
        ] );
      ( "decoders",
        Alcotest.test_case "counts bounded by the bytes received" `Quick
          test_decode_allocation_bound
        :: List.map
             (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 1809 |]))
             qcheck_decoder_tests );
      ( "scheduler",
        [ Alcotest.test_case "typed admission control" `Quick test_scheduler_admission ] );
      ( "job",
        [ Alcotest.test_case "spec validation rejects bad flags" `Quick test_job_validate ] );
      ( "deployment",
        [
          Alcotest.test_case "sequential jobs, one hello per peer" `Slow
            test_daemon_sequential_jobs;
          Alcotest.test_case "payload equals jobs x the sim plan" `Slow
            test_daemon_payload_exact;
          Alcotest.test_case "50-job burst bit-identical" `Slow test_daemon_burst_50;
          Alcotest.test_case "busy backpressure" `Slow test_daemon_busy_backpressure;
          Alcotest.test_case "metrics scrape" `Slow test_daemon_scrape;
          Alcotest.test_case "packed scores job" `Slow test_daemon_scores_pack_slots;
          Alcotest.test_case "stream job bit-identical" `Slow test_daemon_stream_job;
        ] );
      ( "failure",
        [
          Alcotest.test_case "dead peer fails the job promptly" `Slow
            test_peer_death_fails_promptly;
          Alcotest.test_case "provider failure reaches the host" `Slow
            test_provider_failure_reaches_host;
          Alcotest.test_case "silent connection does not block accepts" `Slow
            test_silent_connection;
          Alcotest.test_case "hostile length prefix is bounded" `Slow
            test_hostile_length_prefix;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "daemon kill stays typed" `Slow test_daemon_kill_campaign;
        ] );
    ]
