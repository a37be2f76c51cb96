(* Tests for the chaos subsystem: the spe-schedule/1 document
   round-trip (golden file + strict rejection, mirroring the
   spe-metrics schema tests), the event-to-fault-policy compiler, the
   invariant oracles' attribution on fatal schedules, schedule
   shrinking against a planted fault-handling bug (the mutation check
   from the acceptance criteria), and a short green campaign across
   both pipelines and both engines. *)

module Schedule = Spe_chaos.Schedule
module Harness = Spe_chaos.Harness
module Campaign = Spe_chaos.Campaign
module Fault = Spe_net.Fault

let links_workload =
  { Schedule.wseed = 97; users = 18; edges = 50; actions = 8; providers = 3 }

let links_base =
  {
    Schedule.seed = 7;
    pipeline = Schedule.Links;
    engine = Schedule.Memory;
    shards = 3;
    workers = 2;
    workload = links_workload;
    events = [];
  }

(* --- the spe-schedule/1 document ------------------------------------------- *)

(* One schedule exercising every event kind.  [seconds] is an exact
   binary fraction so the golden text below is a serialization fixed
   point. *)
let full_schedule =
  {
    links_base with
    Schedule.engine = Schedule.Socket;
    events =
      [
        Schedule.Skew { factor = 1.25 };
        Schedule.Drop { session = 0; src = 0; dst = 1; nth = 1 };
        Schedule.Delay { session = 1; src = 2; dst = 0; nth = 3; seconds = 0.0625 };
        Schedule.Duplicate { session = 2; src = 1; dst = 3; nth = 0 };
        Schedule.Blackhole { session = 0; src = 3; dst = 2; from_nth = 2 };
        Schedule.Kill { session = 4 };
      ];
  }

let golden =
  {|{
  "schema": "spe-schedule/1",
  "seed": 7,
  "pipeline": "links",
  "engine": "socket",
  "shards": 3,
  "workers": 2,
  "workload": {
    "seed": 97,
    "users": 18,
    "edges": 50,
    "actions": 8,
    "providers": 3
  },
  "events": [
    {
      "kind": "skew",
      "factor": 1.25
    },
    {
      "kind": "drop",
      "session": 0,
      "src": 0,
      "dst": 1,
      "nth": 1
    },
    {
      "kind": "delay",
      "session": 1,
      "src": 2,
      "dst": 0,
      "nth": 3,
      "seconds": 0.0625
    },
    {
      "kind": "duplicate",
      "session": 2,
      "src": 1,
      "dst": 3,
      "nth": 0
    },
    {
      "kind": "blackhole",
      "session": 0,
      "src": 3,
      "dst": 2,
      "from_nth": 2
    },
    {
      "kind": "kill",
      "session": 4
    }
  ]
}
|}

let test_schedule_golden_roundtrip () =
  Alcotest.(check string) "serializes to the golden document" golden
    (Schedule.to_string full_schedule);
  let parsed = Schedule.of_string golden in
  Alcotest.(check bool) "golden document parses back to the same schedule" true
    (parsed = full_schedule);
  Alcotest.(check string) "the content id survives the round-trip" (Schedule.id full_schedule)
    (Schedule.id parsed);
  Alcotest.(check string) "the content id is stable" "6b1762545e8c"
    (Schedule.id full_schedule)

(* Replace the first occurrence of [sub] in [s] (which must occur). *)
let tamper ~sub ~by s =
  let n = String.length s and m = String.length sub in
  let rec find i =
    if i + m > n then Alcotest.failf "tamper target %S not found" sub
    else if String.sub s i m = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m)

let test_schedule_rejects_malformed () =
  let reject label doc =
    match Schedule.of_string doc with
    | exception Failure _ -> ()
    | _ -> Alcotest.failf "%s accepted" label
  in
  reject "mis-versioned schema" (tamper ~sub:"spe-schedule/1" ~by:"spe-schedule/999" golden);
  reject "missing schema" (tamper ~sub:{|"schema": "spe-schedule/1",|} ~by:"" golden);
  reject "unknown event kind" (tamper ~sub:{|"kind": "drop"|} ~by:{|"kind": "corrupt"|} golden);
  reject "unknown pipeline"
    (tamper ~sub:{|"pipeline": "links"|} ~by:{|"pipeline": "sideways"|} golden);
  reject "ill-typed field" (tamper ~sub:{|"seed": 7|} ~by:{|"seed": "seven"|} golden);
  reject "truncated document" (String.sub golden 0 (String.length golden / 2));
  reject "not an object" "[1, 2, 3]"

(* A hand-edited replay file whose workload the harness cannot build is
   refused when read, with a message naming the field, instead of an
   exception from deep inside the generators. *)
let rejects_field field ~golden:was ~value () =
  let entry v = Printf.sprintf "%S: %s" field v in
  let named = Printf.sprintf "field %S" field in
  match Schedule.of_string (tamper ~sub:(entry was) ~by:(entry value) golden) with
  | exception Failure msg ->
    let n = String.length named in
    let rec mentions i =
      i + n <= String.length msg && (String.sub msg i n = named || mentions (i + 1))
    in
    if not (mentions 0) then Alcotest.failf "%s: message %S does not name it" field msg
  | _ -> Alcotest.failf "%s = %s accepted" field value

let qcheck_reader_tests =
  [
    QCheck.Test.make ~name:"Schedule.of_string: a value or Failure" ~count:20000
      (QCheck.make
         (Util.fuzz_input ~alphabet:Util.json_alphabet
            ~seeds:[ Bytes.of_string (Util.compact_json golden) ]))
      (Util.reads_or_fails ~read:Schedule.of_string);
  ]

(* A replayed schedule pins its own pipeline; a mismatched --target is
   a hard error naming both values, never a silent run of the wrong
   pipeline. *)
let test_replay_target_check () =
  let ok = function
    | Ok () -> ()
    | Error msg -> Alcotest.fail msg
  in
  ok (Schedule.check_replay_target links_base ~requested:None);
  ok (Schedule.check_replay_target links_base ~requested:(Some Schedule.Links));
  match Schedule.check_replay_target links_base ~requested:(Some Schedule.Scores) with
  | Ok () -> Alcotest.fail "mismatched --target should be refused"
  | Error msg ->
    let contains sub =
      let n = String.length sub in
      let rec go i =
        i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool) "names the schedule's pipeline" true (contains "links");
    Alcotest.(check bool) "names the requested target" true (contains "scores")

(* --- the event-to-policy compiler ------------------------------------------ *)

let test_fault_policy_compiles () =
  let sched =
    {
      links_base with
      Schedule.events =
        [
          Schedule.Duplicate { session = 0; src = 0; dst = 1; nth = 0 };
          Schedule.Drop { session = 0; src = 0; dst = 1; nth = 1 };
          Schedule.Delay { session = 0; src = 0; dst = 1; nth = 2; seconds = 0.125 };
          Schedule.Blackhole { session = 0; src = 2; dst = 1; from_nth = 1 };
          Schedule.Drop { session = 1; src = 0; dst = 1; nth = 0 };
        ];
    }
  in
  (match Schedule.fault_for sched ~session:0 with
  | None -> Alcotest.fail "session 0 has events, expected a policy"
  | Some policy ->
    let next () = Fault.decide policy ~src:0 ~dst:1 in
    Alcotest.(check bool) "frame 0 duplicated" true (next () = Fault.Duplicate);
    Alcotest.(check bool) "frame 1 dropped" true (next () = Fault.Drop);
    Alcotest.(check bool) "frame 2 delayed" true (next () = Fault.Delay 0.125);
    Alcotest.(check bool) "frame 3 delivered" true (next () = Fault.Deliver);
    (* An independent per-link counter: the 2 -> 1 blackhole starts at
       its own frame 1, untouched by the 0 -> 1 traffic above. *)
    Alcotest.(check bool) "blackhole link delivers before from_nth" true
      (Fault.decide policy ~src:2 ~dst:1 = Fault.Deliver);
    Alcotest.(check bool) "blackhole link drops from from_nth on" true
      (Fault.decide policy ~src:2 ~dst:1 = Fault.Drop
      && Fault.decide policy ~src:2 ~dst:1 = Fault.Drop);
    (* Untargeted links pass through. *)
    Alcotest.(check bool) "other links deliver" true
      (Fault.decide policy ~src:1 ~dst:0 = Fault.Deliver));
  (match Schedule.fault_for sched ~session:2 with
  | None -> ()
  | Some _ -> Alcotest.fail "session 2 has no events, expected no policy");
  Alcotest.(check bool) "kills_session only on kill events" true
    ((not (Schedule.kills_session sched 0))
    && Schedule.kills_session
         { sched with Schedule.events = [ Schedule.Kill { session = 3 } ] }
         3)

(* --- invariant oracles on fatal schedules ---------------------------------- *)

let test_kill_attribution () =
  let sched =
    { links_base with Schedule.events = [ Schedule.Kill { session = 1 } ] }
  in
  match Harness.run sched with
  | Harness.Pass -> ()
  | Harness.Fail { oracle; detail } ->
    Alcotest.failf "kill schedule should pass attribution, got %s: %s" oracle detail

let test_blackhole_attribution () =
  let sched =
    {
      links_base with
      Schedule.events =
        [ Schedule.Blackhole { session = 0; src = 0; dst = 1; from_nth = 0 } ];
    }
  in
  match Harness.run sched with
  | Harness.Pass -> ()
  | Harness.Fail { oracle; detail } ->
    Alcotest.failf "blackhole schedule should pass attribution, got %s: %s" oracle detail

let test_out_of_range_schedule_rejected () =
  let sched =
    { links_base with Schedule.events = [ Schedule.Kill { session = 99 } ] }
  in
  match Harness.run sched with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "a schedule naming an unknown session must be refused"

(* --- the planted-bug mutation check ---------------------------------------- *)

(* The acceptance-criterion mutation check: a deliberately planted
   fault-handling bug — modelled as the result oracle breaking whenever
   a frame is dropped by party 0 — must be caught by the harness and
   shrunk to a minimal schedule of at most 3 fault events that replays
   deterministically. *)
let test_planted_bug_caught_and_shrunk () =
  let bug (sched : Schedule.t) =
    List.exists
      (function Schedule.Drop d -> d.src = 0 | _ -> false)
      sched.Schedule.events
  in
  let sched =
    {
      links_base with
      Schedule.events =
        [
          Schedule.Skew { factor = 1.25 };
          Schedule.Duplicate { session = 0; src = 1; dst = 0; nth = 2 };
          Schedule.Drop { session = 0; src = 0; dst = 1; nth = 1 };
          Schedule.Drop { session = 1; src = 1; dst = 2; nth = 3 };
          Schedule.Delay { session = 2; src = 0; dst = 1; nth = 0; seconds = 0.0625 };
        ];
    }
  in
  (match Harness.run ~bug sched with
  | Harness.Fail { oracle = "result"; _ } -> ()
  | Harness.Pass -> Alcotest.fail "the planted bug went uncaught"
  | Harness.Fail { oracle; _ } -> Alcotest.failf "expected a result violation, got %s" oracle);
  let shrunk, failure = Campaign.shrink ~bug sched in
  Alcotest.(check string) "the shrunk schedule still violates the result oracle" "result"
    failure.Harness.oracle;
  Alcotest.(check bool)
    (Printf.sprintf "shrunk to at most 3 fault events (got %d)"
       (List.length shrunk.Schedule.events))
    true
    (List.length shrunk.Schedule.events <= 3);
  Alcotest.(check bool) "every surviving event is load-bearing" true
    (List.for_all
       (function Schedule.Drop d -> d.src = 0 | _ -> false)
       shrunk.Schedule.events);
  (* The reproducer replays deterministically: same verdict, twice,
     after a serialization round-trip. *)
  let replayed = Schedule.of_string (Schedule.to_string shrunk) in
  let verdicts =
    List.map (fun () -> Harness.run ~bug replayed) [ (); () ]
  in
  Alcotest.(check bool) "replay is deterministic" true
    (List.for_all
       (function
         | Harness.Fail f -> f = failure
         | Harness.Pass -> false)
       verdicts)

(* --- a short campaign ------------------------------------------------------ *)

let test_short_campaign_green () =
  let progress = ref 0 in
  let summary =
    Campaign.run
      ~on_result:(fun _ _ _ -> incr progress)
      ~seeds:8 ~seed:1100
      ~targets:
        [
          (Schedule.Links, Schedule.Memory);
          (Schedule.Scores, Schedule.Memory);
          (Schedule.Links, Schedule.Socket);
          (Schedule.Scores, Schedule.Socket);
        ]
      ()
  in
  Alcotest.(check int) "every seed ran" 8 !progress;
  Alcotest.(check int) "every seed reported" 8 summary.Campaign.runs;
  (match summary.Campaign.violations with
  | [] -> ()
  | v :: _ ->
    Alcotest.failf "campaign found a violation (seed %d, %s: %s)" v.Campaign.seed
      v.Campaign.failure.Harness.oracle v.Campaign.failure.Harness.detail);
  (* Generation is deterministic in the seed. *)
  let a = Harness.generate ~seed:1103 Schedule.Scores Schedule.Socket in
  let b = Harness.generate ~seed:1103 Schedule.Scores Schedule.Socket in
  Alcotest.(check bool) "generate is deterministic" true (a = b && Schedule.id a = Schedule.id b)

let () =
  Alcotest.run "spe_chaos"
    [
      ( "schedule",
        [
          Alcotest.test_case "golden round-trip" `Quick test_schedule_golden_roundtrip;
          Alcotest.test_case "rejects malformed documents" `Quick
            test_schedule_rejects_malformed;
          Alcotest.test_case "replay --target mismatch refused" `Quick
            test_replay_target_check;
          Alcotest.test_case "compiles events to a fault policy" `Quick
            test_fault_policy_compiles;
          Alcotest.test_case "refuses shards < 1" `Quick
            (rejects_field "shards" ~golden:"3" ~value:"0");
          Alcotest.test_case "refuses providers < 2" `Quick
            (rejects_field "providers" ~golden:"3" ~value:"1");
          Alcotest.test_case "refuses users < 2" `Quick
            (rejects_field "users" ~golden:"18" ~value:"0");
          Alcotest.test_case "refuses edges past n(n-1)" `Quick
            (rejects_field "edges" ~golden:"50" ~value:(string_of_int ((18 * 17) + 1)));
          Alcotest.test_case "refuses actions < 1" `Quick
            (rejects_field "actions" ~golden:"8" ~value:"0");
          Alcotest.test_case "refuses skew factor <= 0 or not finite" `Quick (fun () ->
              List.iter
                (fun value -> rejects_field "factor" ~golden:"1.25" ~value ())
                [ "0"; "-1"; "1e999" ]);
          Alcotest.test_case "refuses delay seconds < 0" `Quick
            (rejects_field "seconds" ~golden:"0.0625" ~value:"-0.5");
          Alcotest.test_case "refuses nth < 0" `Quick
            (rejects_field "nth" ~golden:"1" ~value:"-1");
          Alcotest.test_case "refuses from_nth < 0" `Quick
            (rejects_field "from_nth" ~golden:"2" ~value:"-1");
          Alcotest.test_case "refuses workers < 1" `Quick
            (rejects_field "workers" ~golden:"2" ~value:"0");
        ]
        @ List.map
            (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 1907 |]))
            qcheck_reader_tests );
      ( "oracles",
        [
          Alcotest.test_case "kill attribution" `Quick test_kill_attribution;
          Alcotest.test_case "blackhole attribution" `Quick test_blackhole_attribution;
          Alcotest.test_case "out-of-range schedules refused" `Quick
            test_out_of_range_schedule_rejected;
        ] );
      ( "shrinking",
        [
          Alcotest.test_case "planted bug caught and shrunk" `Slow
            test_planted_bug_caught_and_shrunk;
        ] );
      ( "campaign",
        [ Alcotest.test_case "short campaign runs green" `Slow test_short_campaign_green ] );
    ]
