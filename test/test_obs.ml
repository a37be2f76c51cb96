(* Tests for the observability layer: the trace model (spans, counters,
   phase map), metric aggregation under an injected clock, the JSON
   round-trip through Spe_obs's own reader, and — the load-bearing
   invariant — that an instrumented run's Messages/Payload_bytes
   counters agree exactly with the Net_wire accounting and the
   simulated wire, for Protocol 3 and both full pipelines on the
   memory and socket engines (and for the central drivers' transcript
   replay). *)

module State = Spe_rng.State
module Wire = Spe_mpc.Wire
module Session = Spe_mpc.Session
module Generate = Spe_graph.Generate
module Cascade = Spe_actionlog.Cascade
module Partition = Spe_actionlog.Partition
module Protocol4 = Spe_core.Protocol4
module Protocol6 = Spe_core.Protocol6
module Driver = Spe_core.Driver
module Shard = Spe_core.Shard
module Plan = Spe_core.Plan
module Endpoint = Spe_net.Endpoint
module Fault = Spe_net.Fault
module Net_wire = Spe_net.Net_wire
module Trace = Spe_obs.Trace
module Metrics = Spe_obs.Metrics
module Obs_io = Spe_obs.Obs_io

(* A deterministic clock: every read advances by [step] — the library's
   own virtual-clock seam (also what the chaos harness injects). *)
let ticking = Trace.ticking

(* --- the trace model ------------------------------------------------------- *)

let test_trace_basics () =
  let trace = Trace.create ~clock:(ticking ()) () in
  Alcotest.(check bool) "recording" true (Trace.enabled trace);
  let r = Trace.span trace ~party:"P1" ~index:3 Trace.Round "round" (fun () -> 42) in
  Alcotest.(check int) "span returns the body's value" 42 r;
  Trace.count trace ~party:"P1" ~round:3 Trace.Messages 2;
  Trace.count trace Trace.Payload_bytes 0 (* zero deltas are dropped *);
  Trace.note trace ~party:"P1" "hello";
  (match Trace.events trace with
  | [ Trace.Span { kind = Trace.Round; label = "round"; party = Some "P1"; index = Some 3;
                   start; stop };
      Trace.Count { counter = Trace.Messages; delta = 2; round = Some 3; _ };
      Trace.Note { label = "hello"; _ } ] ->
    (* The injected clock ticks 0.5 s per read: create consumes one
       read, the span start/stop the next two. *)
    Alcotest.(check (float 1e-9)) "span start" 0.5 start;
    Alcotest.(check (float 1e-9)) "span stop" 1.0 stop
  | evs -> Alcotest.failf "unexpected event stream (%d events)" (List.length evs));
  Alcotest.check_raises "negative delta rejected"
    (Invalid_argument "Trace.count: negative delta") (fun () ->
      Trace.count trace Trace.Messages (-1))

let test_trace_span_reraises () =
  let trace = Trace.create ~clock:(ticking ()) () in
  (match Trace.span trace Trace.Session "boom" (fun () -> failwith "inner") with
  | () -> Alcotest.fail "expected the body's exception"
  | exception Failure msg ->
    Alcotest.(check string) "exception passes through" "inner" msg);
  match Trace.events trace with
  | [ Trace.Span { kind = Trace.Session; label = "boom"; _ } ] -> ()
  | _ -> Alcotest.fail "span not recorded on raise"

let test_trace_disabled () =
  let trace = Trace.disabled () in
  Alcotest.(check bool) "not recording" false (Trace.enabled trace);
  Trace.count trace Trace.Messages 5;
  Trace.note trace "ignored";
  let r = Trace.span trace Trace.Session "s" (fun () -> 7) in
  Alcotest.(check int) "span still runs the body" 7 r;
  Alcotest.(check int) "no events recorded" 0 (List.length (Trace.events trace));
  (* ... but the phase map is live: Round_timeout depends on it. *)
  Trace.set_phases trace [ ("a", 2); ("b", 1) ];
  Alcotest.(check (option string)) "phase map served" (Some "b") (Trace.phase_of_round trace 3)

let test_phase_of_round () =
  let trace = Trace.create ~clock:(ticking ()) () in
  Alcotest.(check (option string)) "no map" None (Trace.phase_of_round trace 1);
  Trace.set_phases trace [ ("a", 2); ("empty", 0); ("c", 3) ];
  let check r expect =
    Alcotest.(check (option string)) (Printf.sprintf "round %d" r) expect
      (Trace.phase_of_round trace r)
  in
  check 0 None;
  check (-1) None;
  check 1 (Some "a");
  check 2 (Some "a");
  check 3 (Some "c");
  check 5 (Some "c");
  (* Rounds past the map's total (the quiescent finishing round)
     belong to the last phase. *)
  check 6 (Some "c");
  check 100 (Some "c");
  Alcotest.check_raises "negative segment rejected"
    (Invalid_argument "Trace.set_phases: negative rounds") (fun () ->
      Trace.set_phases trace [ ("x", -1) ])

(* --- aggregation ------------------------------------------------------------ *)

(* A synthetic two-party, three-round trace under the ticking clock;
   round 2 carries no messages, so NR = 2 of 3 executed rounds. *)
let test_metrics_synthetic () =
  let trace = Trace.create ~clock:(ticking ~step:1.0 ()) () in
  Trace.set_phases trace [ ("first", 1); ("rest", 2) ];
  Trace.span trace Trace.Session "session" (fun () ->
      for round = 1 to 3 do
        List.iter
          (fun party ->
            Trace.span trace ~party ~index:round Trace.Round "round" (fun () ->
                Trace.span trace ~party ~index:round Trace.Compute "step" (fun () -> ());
                if round <> 2 then begin
                  Trace.count trace ~party ~round Trace.Messages 1;
                  Trace.count trace ~party ~round Trace.Payload_bytes
                    (if round = 1 then 100 else 9)
                end))
          [ "A"; "B" ]
      done);
  let r = Metrics.of_trace ~protocol:"synthetic" ~engine:"test" ~parties:2 trace in
  Alcotest.(check int) "NR counts message-bearing rounds only" 2 r.Metrics.rounds;
  Alcotest.(check int) "NM" 4 r.Metrics.messages;
  Alcotest.(check int) "payload bytes" 218 r.Metrics.payload_bytes;
  Alcotest.(check bool) "no framed bytes recorded" true (r.Metrics.framed_bytes = None);
  Alcotest.(check bool) "no transport bytes recorded" true
    (r.Metrics.transport_bytes = None);
  (match r.Metrics.phases with
  | [ first; rest ] ->
    Alcotest.(check string) "first phase label" "first" first.Metrics.phase;
    Alcotest.(check int) "first phase rounds" 1 first.Metrics.rounds;
    Alcotest.(check int) "first phase messages" 2 first.Metrics.messages;
    Alcotest.(check int) "first phase bytes" 200 first.Metrics.payload_bytes;
    Alcotest.(check int) "rest phase rounds" 1 rest.Metrics.rounds;
    Alcotest.(check int) "rest phase messages" 2 rest.Metrics.messages;
    Alcotest.(check int) "rest phase bytes" 18 rest.Metrics.payload_bytes
  | rows -> Alcotest.failf "expected 2 phase rows, got %d" (List.length rows));
  (match r.Metrics.compute with
  | [ a; b ] ->
    Alcotest.(check string) "compute sorted by party" "A" a.Metrics.party;
    Alcotest.(check int) "A stepped every round" 3 a.Metrics.calls;
    Alcotest.(check int) "B stepped every round" 3 b.Metrics.calls
  | rows -> Alcotest.failf "expected 2 compute rows, got %d" (List.length rows));
  (* 100 -> <=128, 9 -> <=16. *)
  Alcotest.(check bool) "histogram buckets are powers of two" true
    (List.map (fun (h : Metrics.hist_bucket) -> (h.Metrics.le_bytes, h.Metrics.count))
       r.Metrics.payload_hist
    = [ (16, 2); (128, 2) ]);
  (* The session span is the widest interval the clock produced. *)
  Alcotest.(check bool) "wall from the session span" true (r.Metrics.wall_s > 0.);
  Alcotest.(check bool) "trace agrees with itself" true
    (Metrics.equal_accounting r ~messages:4 ~payload_bytes:218)

(* --- JSON ------------------------------------------------------------------- *)

let sample_report () =
  let trace = Trace.create ~clock:(ticking ()) () in
  Trace.set_phases trace [ ("only", 1) ];
  Trace.span trace Trace.Session "session" (fun () ->
      Trace.span trace ~party:"P0" ~index:1 Trace.Round "round" (fun () ->
          Trace.count trace ~party:"P0" ~round:1 Trace.Messages 3;
          Trace.count trace ~party:"P0" ~round:1 Trace.Payload_bytes 1234;
          Trace.count trace ~party:"P0" ~round:1 Trace.Framed_bytes 1300;
          Trace.count trace ~party:"P0" Trace.Transport_bytes 1400;
          Trace.count trace Trace.Retransmits 2;
          Trace.count trace Trace.Nacks 1;
          Trace.count trace Trace.Timeouts 1;
          Trace.count trace Trace.Faults_dropped 1;
          Trace.count trace Trace.Faults_delayed 2));
  Metrics.of_trace ~protocol:"sample" ~engine:"memory" ~parties:3 trace

let test_json_roundtrip () =
  let r = sample_report () in
  let s = Obs_io.report_to_string r in
  let r' = Obs_io.report_of_string s in
  Alcotest.(check bool) "report round-trips through its own reader" true (r = r');
  (* And the bench wrapper too. *)
  let bench = Obs_io.bench_to_string ~generated_by:"test_obs" [ r; r ] in
  (match Obs_io.bench_of_string bench with
  | [ a; b ] -> Alcotest.(check bool) "bench rows round-trip" true (a = r && b = r)
  | rows -> Alcotest.failf "expected 2 bench rows, got %d" (List.length rows));
  (* The machine-facing document is strict about its version tag. *)
  let tampered =
    let sub = Obs_io.schema in
    let i =
      let n = String.length s and m = String.length sub in
      let rec find i =
        if i + m > n then Alcotest.fail "schema tag not found"
        else if String.sub s i m = sub then i
        else find (i + 1)
      in
      find 0
    in
    String.sub s 0 i ^ "spe-metrics/999"
    ^ String.sub s (i + String.length sub) (String.length s - i - String.length sub)
  in
  (match Obs_io.report_of_string tampered with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "unknown schema accepted");
  match Obs_io.Json.of_string (s ^ "{}") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "trailing garbage accepted"

(* Pre-sharding spe-metrics/1 documents (no "shards" field) must still
   read back, with an empty shard table. *)
let test_json_reads_v1 () =
  let r = sample_report () in
  let v2 = Obs_io.report_to_json r in
  let v1 =
    match v2 with
    | Obs_io.Json.Obj fields ->
      Obs_io.Json.Obj
        (List.filter_map
           (fun (k, v) ->
             match k with
             | "schema" -> Some (k, Obs_io.Json.String Obs_io.schema_v1)
             | "shards" -> None
             | _ -> Some (k, v))
           fields)
    | _ -> Alcotest.fail "report did not serialize to an object"
  in
  let r' = Obs_io.report_of_json v1 in
  Alcotest.(check bool) "v1 document accepted, shards empty" true
    (r' = { r with Metrics.shards = [] })

let test_metrics_merge () =
  let shard i =
    let trace = Trace.create ~clock:(ticking ~step:1.0 ()) () in
    Trace.set_phases trace [ ("publish", 1); ("core", 2) ];
    Trace.span trace Trace.Session "session" (fun () ->
        for round = 1 to 3 do
          Trace.span trace ~party:"Host" ~index:round Trace.Round "round" (fun () ->
              Trace.span trace ~party:"Host" ~index:round Trace.Compute "step" (fun () -> ());
              Trace.count trace ~party:"Host" ~round Trace.Messages 1;
              Trace.count trace ~party:"Host" ~round Trace.Payload_bytes (10 * (i + 1));
              Trace.count trace ~party:"Host" ~round Trace.Framed_bytes (12 * (i + 1)))
        done);
    Metrics.of_trace ~protocol:"links" ~engine:"memory" ~parties:4 trace
  in
  let a = shard 0 and b = shard 1 in
  let m = Metrics.merge [ a; b ] in
  Alcotest.(check int) "NR sums" (a.Metrics.rounds + b.Metrics.rounds) m.Metrics.rounds;
  Alcotest.(check int) "NM sums" (a.Metrics.messages + b.Metrics.messages) m.Metrics.messages;
  Alcotest.(check int) "payload sums"
    (a.Metrics.payload_bytes + b.Metrics.payload_bytes)
    m.Metrics.payload_bytes;
  Alcotest.(check (option int)) "framed bytes sum"
    (Some (Option.get a.Metrics.framed_bytes + Option.get b.Metrics.framed_bytes))
    m.Metrics.framed_bytes;
  Alcotest.(check (option int)) "unmeasured transport stays None" None
    m.Metrics.transport_bytes;
  Alcotest.(check int) "parties is the shared party set" 4 m.Metrics.parties;
  (* Phase rows merge by label, preserving the shared map's order. *)
  (match m.Metrics.phases with
  | [ publish; core ] ->
    Alcotest.(check string) "first phase" "publish" publish.Metrics.phase;
    Alcotest.(check string) "second phase" "core" core.Metrics.phase;
    Alcotest.(check int) "phase messages merge" 2 publish.Metrics.messages;
    Alcotest.(check int) "phase bytes merge" 30 publish.Metrics.payload_bytes
  | rows -> Alcotest.failf "expected 2 merged phase rows, got %d" (List.length rows));
  (* One shard row per input, in order, carrying the input's totals. *)
  (match m.Metrics.shards with
  | [ s0; s1 ] ->
    Alcotest.(check int) "shard 0 index" 0 s0.Metrics.shard;
    Alcotest.(check int) "shard 1 index" 1 s1.Metrics.shard;
    Alcotest.(check int) "shard 0 payload" a.Metrics.payload_bytes s0.Metrics.payload_bytes;
    Alcotest.(check int) "shard 1 payload" b.Metrics.payload_bytes s1.Metrics.payload_bytes
  | rows -> Alcotest.failf "expected 2 shard rows, got %d" (List.length rows));
  (* Compute rows merge by party. *)
  (match m.Metrics.compute with
  | [ host ] -> Alcotest.(check int) "compute calls sum" 6 host.Metrics.calls
  | rows -> Alcotest.failf "expected 1 merged compute row, got %d" (List.length rows));
  (* A merged report is still a report: it round-trips with its shard
     table intact. *)
  let m' = Obs_io.report_of_string (Obs_io.report_to_string m) in
  Alcotest.(check bool) "merged report round-trips" true (m = m');
  Alcotest.check_raises "empty merge rejected"
    (Invalid_argument "Metrics.merge: need at least one report") (fun () ->
      ignore (Metrics.merge []))

let test_json_values () =
  let check s v =
    Alcotest.(check bool) (Printf.sprintf "parse %s" s) true (Obs_io.Json.of_string s = v)
  in
  check "null" Obs_io.Json.Null;
  check "true" (Obs_io.Json.Bool true);
  check "-42" (Obs_io.Json.Int (-42));
  check "1.5" (Obs_io.Json.Float 1.5);
  check {|"a\"bA"|} (Obs_io.Json.String "a\"bA");
  check "[1, 2]" (Obs_io.Json.List [ Obs_io.Json.Int 1; Obs_io.Json.Int 2 ]);
  check {|{"k": [true]}|} (Obs_io.Json.Obj [ ("k", Obs_io.Json.List [ Obs_io.Json.Bool true ]) ]);
  List.iter
    (fun v ->
      Alcotest.(check bool) "writer/reader round-trip" true
        (Obs_io.Json.of_string (Obs_io.Json.to_string v) = v))
    [
      Obs_io.Json.Obj
        [ ("a", Obs_io.Json.Float 0.1); ("b", Obs_io.Json.String "x\ny\t\"z\"");
          ("c", Obs_io.Json.List [ Obs_io.Json.Null; Obs_io.Json.Float 1e-17 ]) ];
      Obs_io.Json.Float (-0.0000123);
      Obs_io.Json.Int max_int;
    ];
  List.iter
    (fun s ->
      match Obs_io.Json.of_string s with
      | exception Failure _ -> ()
      | _ -> Alcotest.failf "malformed %S accepted" s)
    [ "{"; "[1,]"; "tru"; "\"unterminated"; "{\"a\" 1}" ]

(* --- accounting equality across the stack ----------------------------------- *)

(* The invariant behind `--metrics`: an instrumented run's
   Messages/Payload_bytes totals equal the Net_wire accounting, which
   in turn equals the simulated wire (test_net proves that half). *)

let logs_of (res : Endpoint.result) =
  Array.map (fun (o : Endpoint.outcome) -> o.Endpoint.sent) res.Endpoint.outcomes

let check_engine_accounting label trace (res : Endpoint.result) =
  let totals = Net_wire.totals (logs_of res) in
  let report =
    Metrics.of_trace ~protocol:label ~engine:"endpoint" ~parties:(Array.length res.Endpoint.outcomes)
      trace
  in
  Alcotest.(check bool)
    (label ^ ": trace NM and MS/8 equal the Net_wire accounting")
    true
    (Metrics.equal_accounting report ~messages:totals.Net_wire.messages
       ~payload_bytes:totals.Net_wire.payload_bytes);
  Alcotest.(check (option int)) (label ^ ": framed bytes equal Net_wire")
    (Some totals.Net_wire.framed_bytes) report.Metrics.framed_bytes;
  (match report.Metrics.transport_bytes with
  | Some t ->
    Alcotest.(check int) (label ^ ": transport bytes equal the endpoint total")
      res.Endpoint.transport_bytes t
  | None -> Alcotest.fail (label ^ ": no transport bytes recorded"));
  report

let check_sim_accounting label trace (w : Wire.t) =
  let stats = Wire.stats w in
  let report = Metrics.of_trace ~protocol:label ~engine:"sim" ~parties:0 trace in
  Alcotest.(check bool)
    (label ^ ": trace NM and MS/8 equal the simulated wire")
    true
    (Metrics.equal_accounting report ~messages:stats.Wire.messages
       ~payload_bytes:(stats.Wire.bits / 8));
  Alcotest.(check int) (label ^ ": NR equals the simulated wire") stats.Wire.rounds
    report.Metrics.rounds;
  report

let test_p3_accounting () =
  let _, _, groups, s1, s2 = Util.p3_batch (State.create ~seed:71 ()) ~groups:4 ~per:3 in
  let session () = Util.p3_session (State.create ~seed:72 ()) ~groups s1 s2 in
  let sim_trace = Trace.create () in
  let w = Wire.create () in
  let _q = Session.run ~trace:sim_trace (session ()) ~wire:w in
  let sim = check_sim_accounting "p3 sim" sim_trace w in
  List.iter
    (fun (engine, run) ->
      let trace = Trace.create () in
      let _q, res = Util.run_session ~trace run (session ()) in
      let report = check_engine_accounting ("p3 " ^ engine) trace res in
      Alcotest.(check bool) ("p3 " ^ engine ^ ": same NM/MS as the sim engine") true
        (Metrics.equal_accounting report ~messages:sim.Metrics.messages
           ~payload_bytes:sim.Metrics.payload_bytes))
    [ ("memory", `Memory); ("socket", `Socket) ]

let pipeline_workload = Util.workload

(* Both full pipelines: trace accounting == Net_wire on memory and
   socket, == the simulated wire on sim, and the phase rows cover the
   whole run (sums equal the totals). *)
let check_pipeline_accounting name session =
  let sim_trace = Trace.create () in
  let w = Wire.create () in
  let _ = Session.run ~trace:sim_trace (session ()) ~wire:w in
  let sim = check_sim_accounting (name ^ " sim") sim_trace w in
  let check_phase_cover label (r : Metrics.report) =
    Alcotest.(check int) (label ^ ": phase messages sum to NM") r.Metrics.messages
      (List.fold_left (fun acc (p : Metrics.phase_row) -> acc + p.Metrics.messages) 0
         r.Metrics.phases);
    Alcotest.(check int) (label ^ ": phase bytes sum to MS/8") r.Metrics.payload_bytes
      (List.fold_left (fun acc (p : Metrics.phase_row) -> acc + p.Metrics.payload_bytes) 0
         r.Metrics.phases);
    Alcotest.(check int) (label ^ ": phase rounds sum to NR") r.Metrics.rounds
      (List.fold_left (fun acc (p : Metrics.phase_row) -> acc + p.Metrics.rounds) 0
         r.Metrics.phases)
  in
  check_phase_cover (name ^ " sim") sim;
  List.iter
    (fun (engine, run) ->
      let trace = Trace.create () in
      let _, res = Util.run_session ~trace run (session ()) in
      let label = name ^ " " ^ engine in
      let report = check_engine_accounting label trace res in
      Alcotest.(check bool) (label ^ ": same NM/MS as the sim engine") true
        (Metrics.equal_accounting report ~messages:sim.Metrics.messages
           ~payload_bytes:sim.Metrics.payload_bytes);
      check_phase_cover label report)
    [ ("memory", `Memory); ("socket", `Socket) ]

let test_links_accounting () =
  let g, logs = pipeline_workload ~seed:171 ~n:24 ~edges:70 ~actions:10 ~m:3 in
  let config = Protocol4.default_config ~h:2 in
  check_pipeline_accounting "links" (fun () ->
      Plan.to_session
        (Shard.links_exclusive (State.create ~seed:172 ()) ~graph:g ~logs ~shards:1 config))

let test_scores_accounting () =
  let g, logs = pipeline_workload ~seed:173 ~n:20 ~edges:60 ~actions:8 ~m:3 in
  let config = { Protocol6.default_config with Protocol6.key_bits = 128 } in
  check_pipeline_accounting "scores" (fun () ->
      Plan.to_session
        (Shard.user_scores_exclusive (State.create ~seed:174 ()) ~graph:g ~logs ~tau:6
           ~modulus:(1 lsl 20) ~shards:1 config))

(* The central drivers replay their transcript into the trace; the
   totals must match the transcript's own (byte-rounded) accounting. *)
let test_central_accounting () =
  let g, logs = pipeline_workload ~seed:175 ~n:24 ~edges:70 ~actions:10 ~m:3 in
  let transcript_bytes t =
    List.fold_left (fun acc (m : Wire.message) -> acc + ((m.Wire.bits + 7) / 8)) 0 t
  in
  let trace = Trace.create () in
  let r =
    Driver.link_strengths_exclusive ~trace (State.create ~seed:176 ()) ~graph:g ~logs
      (Protocol4.default_config ~h:2)
  in
  let report = Metrics.of_trace ~protocol:"links" ~engine:"central" ~parties:4 trace in
  Alcotest.(check bool) "central links: trace equals the transcript accounting" true
    (Metrics.equal_accounting report ~messages:r.Driver.wire.Wire.messages
       ~payload_bytes:(transcript_bytes r.Driver.transcript));
  Alcotest.(check int) "central links: NR equals the wire" r.Driver.wire.Wire.rounds
    report.Metrics.rounds;
  let trace = Trace.create () in
  let r =
    Driver.user_scores_exclusive ~trace (State.create ~seed:177 ()) ~graph:g ~logs ~tau:6
      ~modulus:(1 lsl 20)
      { Protocol6.default_config with Protocol6.key_bits = 128 }
  in
  let report = Metrics.of_trace ~protocol:"scores" ~engine:"central" ~parties:4 trace in
  Alcotest.(check bool) "central scores: trace equals the transcript accounting" true
    (Metrics.equal_accounting report ~messages:r.Driver.wire.Wire.messages
       ~payload_bytes:(transcript_bytes r.Driver.transcript))

(* Loss recovery shows up in the trace — and first-transmission
   accounting still matches Net_wire exactly. *)
let test_fault_accounting () =
  let _, _, groups, s1, s2 = Util.p3_batch (State.create ~seed:79 ()) ~groups:2 ~per:1 in
  let session () = Util.p3_session (State.create ~seed:80 ()) ~groups s1 s2 in
  let fault = Fault.drop_nth [ 1 ] in
  let config = { Endpoint.round_timeout = 0.08; max_retries = 3; linger = 0.5 } in
  let trace = Trace.create () in
  let _q, res = Util.run_session ~config ~fault ~trace `Memory (session ()) in
  let report = check_engine_accounting "p3 lossy memory" trace res in
  Alcotest.(check bool) "the drop was traced" true (report.Metrics.faults_dropped >= 1);
  Alcotest.(check bool) "the recovery was traced" true
    (report.Metrics.nacks >= 1 && report.Metrics.retransmits >= 1
    && report.Metrics.timeouts >= 1)

(* --- qcheck: merge is a commutative monoid on shard reports --------------- *)

(* Metrics.merge is only ever called on a flat list of per-shard
   of_trace reports, but its algebra should still be sane: merging is
   associative and commutative, and the empty report is an identity.
   Compared modulo the per-input [shards] table (re-derived by every
   merge) and phase-row order (first-appearance order is intentionally
   input-order dependent).  Wall times are multiples of 0.5 so float
   summation is exact and associativity holds bit-for-bit. *)

let canon (r : Metrics.report) =
  {
    r with
    Metrics.phases =
      List.sort
        (fun (p : Metrics.phase_row) q -> compare p.Metrics.phase q.Metrics.phase)
        r.Metrics.phases;
    shards = [];
  }

let empty_report =
  {
    Metrics.protocol = "links";
    engine = "memory";
    schedule = None;
    parties = 0;
    rounds = 0;
    messages = 0;
    payload_bytes = 0;
    framed_bytes = None;
    transport_bytes = None;
    retransmits = 0;
    nacks = 0;
    timeouts = 0;
    faults_dropped = 0;
    faults_delayed = 0;
    wall_s = 0.;
    phases = [];
    compute = [];
    payload_hist = [];
    shards = [];
  }

let report_arb =
  let open QCheck.Gen in
  let small = int_bound 50 in
  let halves = map (fun k -> 0.5 *. float_of_int k) (int_bound 20) in
  let phase_row =
    oneofl [ "publish"; "core"; "verdict" ] >>= fun phase ->
    small >>= fun rounds ->
    small >>= fun messages ->
    small >>= fun payload_bytes ->
    halves >>= fun wall_s -> return { Metrics.phase; rounds; messages; payload_bytes; wall_s }
  in
  let compute_row =
    oneofl [ "Host"; "P1"; "P2" ] >>= fun party ->
    small >>= fun calls ->
    halves >>= fun total_s ->
    halves >>= fun max_s -> return { Metrics.party; calls; total_s; max_s }
  in
  let hist_bucket =
    oneofl [ 8; 16; 32; 64 ] >>= fun le_bytes ->
    small >>= fun count -> return { Metrics.le_bytes; count }
  in
  let gen =
    small >>= fun rounds ->
    small >>= fun messages ->
    small >>= fun payload_bytes ->
    opt small >>= fun framed_bytes ->
    opt small >>= fun transport_bytes ->
    small >>= fun retransmits ->
    small >>= fun nacks ->
    small >>= fun timeouts ->
    small >>= fun faults_dropped ->
    small >>= fun faults_delayed ->
    halves >>= fun wall_s ->
    int_range 1 5 >>= fun parties ->
    bool >>= fun scheduled ->
    list_size (int_bound 3) phase_row >>= fun phases ->
    list_size (int_bound 3) compute_row >>= fun compute ->
    list_size (int_bound 3) hist_bucket >>= fun payload_hist ->
    return
      {
        empty_report with
        Metrics.parties;
        rounds;
        messages;
        payload_bytes;
        framed_bytes;
        transport_bytes;
        retransmits;
        nacks;
        timeouts;
        faults_dropped;
        faults_delayed;
        wall_s;
        (* One fixed id: shards of one chaos run share their schedule,
           so commutativity of "first Some wins" is only expected when
           every Some agrees. *)
        schedule = (if scheduled then Some "deadbeefcafe" else None);
        phases;
        compute;
        payload_hist;
      }
  in
  QCheck.make ~print:Obs_io.report_to_string gen

(* Hostile bytes into the spe-metrics and spe-bench readers: arbitrary
   strings and single-byte mutations of real documents. *)
let qcheck_reader_tests =
  let fuzz name read doc =
    QCheck.Test.make ~name ~count:20000
      (QCheck.make
         (Util.fuzz_input ~alphabet:Util.json_alphabet
            ~seeds:[ Bytes.of_string (Util.compact_json doc) ]))
      (Util.reads_or_fails ~read)
  in
  [
    fuzz "Obs_io.report_of_string: a value or Failure" Obs_io.report_of_string
      (Obs_io.report_to_string (sample_report ()));
    fuzz "Obs_io.bench_of_string: a value or Failure" Obs_io.bench_of_string
      (Obs_io.bench_to_string ~generated_by:"test_obs" [ sample_report () ]);
  ]

let merge_associates =
  QCheck.Test.make ~name:"Metrics.merge associates" ~count:200
    (QCheck.triple report_arb report_arb report_arb) (fun (a, b, c) ->
      let flat = canon (Metrics.merge [ a; b; c ]) in
      canon (Metrics.merge [ Metrics.merge [ a; b ]; c ]) = flat
      && canon (Metrics.merge [ a; Metrics.merge [ b; c ] ]) = flat)

let merge_commutes =
  QCheck.Test.make ~name:"Metrics.merge commutes" ~count:200
    (QCheck.pair report_arb report_arb) (fun (a, b) ->
      canon (Metrics.merge [ a; b ]) = canon (Metrics.merge [ b; a ]))

let merge_identity =
  QCheck.Test.make ~name:"Metrics.merge has an identity" ~count:200 report_arb (fun a ->
      canon (Metrics.merge [ a; empty_report ]) = canon (Metrics.merge [ a ])
      && canon (Metrics.merge [ empty_report; a ]) = canon (Metrics.merge [ a ]))

let () =
  Alcotest.run "spe_obs"
    [
      ( "trace",
        [
          Alcotest.test_case "basics" `Quick test_trace_basics;
          Alcotest.test_case "span re-raises" `Quick test_trace_span_reraises;
          Alcotest.test_case "disabled" `Quick test_trace_disabled;
          Alcotest.test_case "phase_of_round" `Quick test_phase_of_round;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "synthetic aggregation" `Quick test_metrics_synthetic;
          Alcotest.test_case "shard merge" `Quick test_metrics_merge;
        ] );
      ( "merge laws",
        List.map
          (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2026 |]))
          [ merge_associates; merge_commutes; merge_identity ] );
      ( "json",
        [
          Alcotest.test_case "report round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "reads spe-metrics/1" `Quick test_json_reads_v1;
          Alcotest.test_case "json values" `Quick test_json_values;
        ]
        @ List.map
            (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 1907 |]))
            qcheck_reader_tests );
      ( "accounting",
        [
          Alcotest.test_case "protocol 3" `Quick test_p3_accounting;
          Alcotest.test_case "links pipeline" `Slow test_links_accounting;
          Alcotest.test_case "scores pipeline" `Slow test_scores_accounting;
          Alcotest.test_case "central replay" `Quick test_central_accounting;
          Alcotest.test_case "fault recovery" `Quick test_fault_accounting;
        ] );
    ]
