module State = Spe_rng.State
module Generate = Spe_graph.Generate
module Cascade = Spe_actionlog.Cascade
module Partition = Spe_actionlog.Partition
module Session = Spe_mpc.Session
module Protocol4 = Spe_core.Protocol4
module Protocol6 = Spe_core.Protocol6
module Driver = Spe_core.Driver
module Plan = Spe_core.Plan
module Shard = Spe_core.Shard
module Endpoint = Spe_net.Endpoint
module Frame = Spe_net.Frame
module Net_wire = Spe_net.Net_wire
module Trace = Spe_obs.Trace
module Metrics = Spe_obs.Metrics

type failure = { oracle : string; detail : string }
type outcome = Pass | Fail of failure

(* The un-skewed endpoint round timeout.  Recoverable delays are capped
   well below [base_timeout *. min skew] so a delayed frame can never
   push a round past its deadline on its own; a blackhole starves a
   link outright and fails in about [(max_retries + 1) * timeout].
   Deliberately tight — a campaign amortizes hundreds of runs, and a
   spurious timeout on a loaded machine only triggers the Nack
   machinery (which the accounting oracle already tolerates: it skips
   the closed-form equality whenever retransmissions happened). *)
let base_timeout = 0.25
let wall_budget = 30.

let workload_inputs (w : Schedule.workload) =
  let s = State.create ~seed:w.Schedule.wseed () in
  let g = Generate.erdos_renyi_gnm s ~n:w.Schedule.users ~m:w.Schedule.edges in
  let planted = Cascade.uniform_probabilities ~p:0.3 g in
  let log =
    Cascade.generate s planted
      { Cascade.num_actions = w.Schedule.actions; seeds_per_action = 2; max_delay = 3 }
  in
  (g, Partition.exclusive s log ~m:w.Schedule.providers)

(* The plan under test, with the central-oracle comparison folded into
   the result thunk: building the plan never runs the central pipeline
   (generate only needs the session layout), judging a completed run
   does. *)
let oracle_plan (sched : Schedule.t) : bool Plan.t =
  let w = sched.Schedule.workload in
  let g, logs = workload_inputs w in
  let pseed = w.Schedule.wseed + 1 in
  match sched.Schedule.pipeline with
  | Schedule.Links ->
    let config = Protocol4.default_config ~h:2 in
    let plan =
      Shard.links_exclusive (State.create ~seed:pseed ()) ~graph:g ~logs
        ~shards:sched.Schedule.shards config
    in
    Plan.map
      (fun (r : Protocol4.result) ->
        let central =
          Driver.link_strengths_exclusive (State.create ~seed:pseed ()) ~graph:g ~logs
            config
        in
        r.Protocol4.strengths = central.Driver.strengths
        && r.Protocol4.pair_estimates = central.Driver.detail.Protocol4.pair_estimates
        && r.Protocol4.pairs = central.Driver.detail.Protocol4.pairs)
      plan
  | Schedule.Scores ->
    let config = { Protocol6.default_config with Protocol6.key_bits = 128 } in
    let tau = 6 and modulus = 1 lsl 20 in
    let plan =
      Shard.user_scores_exclusive (State.create ~seed:pseed ()) ~graph:g ~logs ~tau
        ~modulus ~shards:sched.Schedule.shards config
    in
    Plan.map
      (fun (r : Shard.scores) ->
        let central =
          Driver.user_scores_exclusive (State.create ~seed:pseed ()) ~graph:g ~logs ~tau
            ~modulus config
        in
        r.Shard.scores = central.Driver.scores && r.Shard.graphs = central.Driver.graphs)
      plan

let all_sessions (plan : _ Plan.t) =
  Array.concat (List.map (fun (st : Plan.stage) -> st.Plan.sessions) plan.Plan.stages)

(* ---------- generation ---------- *)

let default_workload = function
  | Schedule.Links ->
    { Schedule.wseed = 97; users = 18; edges = 50; actions = 8; providers = 3 }
  | Schedule.Scores ->
    { Schedule.wseed = 98; users = 14; edges = 40; actions = 8; providers = 2 }

let generate ~seed pipeline engine =
  let base =
    {
      Schedule.seed;
      pipeline;
      engine;
      shards = 3;
      workers = 2;
      workload = default_workload pipeline;
      events = [];
    }
  in
  let layout =
    Array.map (fun s -> Array.length s.Session.parties) (all_sessions (oracle_plan base))
  in
  let ns = Array.length layout in
  let st = State.create ~seed () in
  let events = ref [] in
  let push e = events := e :: !events in
  if State.next_float st < 0.3 then
    push (Schedule.Skew { factor = 0.75 +. (State.next_float st *. 0.75) });
  (* Draw the fatal event first: when it is a blackhole, every drop and
     delay is confined to the blackholed session, so no sibling shard
     can reach a retransmission wait that a pool teardown would convert
     into a competing Round_timeout (which would muddy attribution). *)
  let confine =
    if State.next_float st < 0.15 then
      if State.next_bool st then (
        push (Schedule.Kill { session = State.next_int st ns });
        None)
      else begin
        let session = State.next_int st ns in
        let m = layout.(session) in
        let src = State.next_int st m in
        let dst = (src + 1 + State.next_int st (m - 1)) mod m in
        push (Schedule.Blackhole { session; src; dst; from_nth = State.next_int st 3 });
        Some session
      end
    else None
  in
  let pick_link () =
    let session =
      match confine with Some s -> s | None -> State.next_int st ns
    in
    let m = layout.(session) in
    let src = State.next_int st m in
    let dst = (src + 1 + State.next_int st (m - 1)) mod m in
    (session, src, dst)
  in
  (* At most two drops per directed link: the endpoints retry up to
     three times, so two losses always recover. *)
  let drop_count = Hashtbl.create 8 in
  for _ = 1 to State.next_int st 4 do
    let ((session, src, dst) as key) = pick_link () in
    let c = Option.value ~default:0 (Hashtbl.find_opt drop_count key) in
    if c < 2 then begin
      Hashtbl.replace drop_count key (c + 1);
      push (Schedule.Drop { session; src; dst; nth = State.next_int st 6 })
    end
  done;
  for _ = 1 to State.next_int st 3 do
    let session, src, dst = pick_link () in
    push
      (Schedule.Delay
         {
           session;
           src;
           dst;
           nth = State.next_int st 6;
           seconds = 0.05 +. (State.next_float st *. 0.1);
         })
  done;
  for _ = 1 to State.next_int st 3 do
    let session, src, dst = pick_link () in
    push (Schedule.Duplicate { session; src; dst; nth = State.next_int st 6 })
  done;
  { base with Schedule.events = List.rev !events }

(* ---------- the oracles ---------- *)

let eor_len =
  Frame.framed_length (Frame.End_of_round { round = 1; sender = 0; total = 0; to_dst = 0 })

let fin_len = Frame.framed_length (Frame.Fin { sender = 0 })

(* Pool groups dial no Hellos, so the closed form has no Hello term
   (same shape as the accounting checks in test_net). *)
let expected_transport_bytes ~m ~rounds ~data_framed =
  data_framed + (m * (rounds + 1) * (m - 1) * eor_len) + (m * (m - 1) * fin_len)

let has_duplicate (sched : Schedule.t) session =
  List.exists
    (function Schedule.Duplicate d -> d.session = session | _ -> false)
    sched.Schedule.events

let check_accounting sched ~sid ~protocol ~engine gi trace m (res : Endpoint.result) =
  let report = Metrics.of_trace ~schedule:sid ~protocol ~engine ~parties:m trace in
  let logs = Array.map (fun (o : Endpoint.outcome) -> o.Endpoint.sent) res.Endpoint.outcomes in
  let totals = Net_wire.totals logs in
  let rounds =
    Array.fold_left (fun acc (o : Endpoint.outcome) -> max acc o.Endpoint.rounds) 0
      res.Endpoint.outcomes
  in
  let acct oracle detail = Some { oracle; detail } in
  if
    not
      (Metrics.equal_accounting report ~messages:totals.Net_wire.messages
         ~payload_bytes:totals.Net_wire.payload_bytes)
  then
    acct "accounting"
      (Printf.sprintf
         "session %d: trace NM/MS %d/%d disagree with the wire logs %d/%d" gi
         report.Metrics.messages report.Metrics.payload_bytes totals.Net_wire.messages
         totals.Net_wire.payload_bytes)
  else if report.Metrics.framed_bytes <> Some totals.Net_wire.framed_bytes then
    acct "accounting"
      (Printf.sprintf "session %d: traced framed bytes disagree with the wire logs" gi)
  else if report.Metrics.transport_bytes <> Some res.Endpoint.transport_bytes then
    acct "accounting"
      (Printf.sprintf
         "session %d: traced transport bytes disagree with the endpoint counter" gi)
  else begin
    let expected =
      expected_transport_bytes ~m ~rounds ~data_framed:totals.Net_wire.framed_bytes
    in
    let tb = res.Endpoint.transport_bytes in
    if tb < expected then
      acct "accounting"
        (Printf.sprintf "session %d: transport bytes %d below the framing closed form %d"
           gi tb expected)
    else if
      report.Metrics.retransmits = 0
      && report.Metrics.nacks = 0
      && (not (has_duplicate sched gi))
      && tb <> expected
    then
      acct "accounting"
        (Printf.sprintf
           "session %d: no retransmissions or duplicates, yet transport bytes %d differ \
            from the closed form %d"
           gi tb expected)
    else None
  end

(* A replay file may have been edited by hand: refuse schedules whose
   events point outside the plan they describe. *)
let check_references (sched : Schedule.t) sessions =
  let ns = Array.length sessions in
  let party session p = p >= 0 && p < Array.length sessions.(session).Session.parties in
  let link session src dst =
    if not (session >= 0 && session < ns && party session src && party session dst) then
      failwith
        (Printf.sprintf
           "schedule event targets session %d link %d->%d, outside this plan" session src
           dst)
  in
  List.iter
    (fun ev ->
      match ev with
      | Schedule.Drop e -> link e.session e.src e.dst
      | Schedule.Delay e -> link e.session e.src e.dst
      | Schedule.Duplicate e -> link e.session e.src e.dst
      | Schedule.Blackhole e -> link e.session e.src e.dst
      | Schedule.Kill e ->
        if not (e.session >= 0 && e.session < ns) then
          failwith
            (Printf.sprintf "schedule kill targets session %d, outside this plan"
               e.session)
      | Schedule.Skew _ -> ())
    sched.Schedule.events

let run ?(bug = fun _ -> false) (sched : Schedule.t) =
  let plan = oracle_plan sched in
  let sessions = all_sessions plan in
  check_references sched sessions;
  let sid = Schedule.id sched in
  let skew = Schedule.skew sched in
  let config =
    {
      Endpoint.round_timeout = base_timeout *. skew;
      max_retries = 3;
      linger = 2. *. base_timeout *. skew;
    }
  in
  let protocol = Schedule.pipeline_name sched.Schedule.pipeline in
  let engine = Schedule.engine_name sched.Schedule.engine in
  let t0 = Unix.gettimeofday () in
  match
    Plan.execute ~config ~workers:sched.Schedule.workers
      ~faults:(fun session -> Schedule.fault_for sched ~session)
      ~kills:(Schedule.kills_session sched)
      ~traces:(fun _ -> Trace.create ~clock:(Trace.ticking ()) ())
      ~engine:
        (match sched.Schedule.engine with
        | Schedule.Memory -> `Memory
        | Schedule.Socket -> `Socket)
      plan
  with
  | exception e -> (
    let elapsed = Unix.gettimeofday () -. t0 in
    match (Schedule.fatal sched, e) with
    | None, _ ->
      Fail
        {
          oracle = "termination";
          detail =
            "recoverable faults must recover, yet the run failed: "
            ^ Printexc.to_string e;
        }
    | Some _, _ when elapsed > wall_budget ->
      Fail
        {
          oracle = "termination";
          detail = Printf.sprintf "typed failure, but only after %.1f s" elapsed;
        }
    | Some fatal_ev, Endpoint.Shard_failed { shard = global; exn; _ } -> (
      match (fatal_ev, exn) with
      | Schedule.Kill { session }, Endpoint.Worker_killed when global = session -> Pass
      | Schedule.Kill { session }, _ ->
        Fail
          {
            oracle = "attribution";
            detail =
              Printf.sprintf
                "the schedule kills session %d, but the pool blamed session %d (%s)"
                session global (Printexc.to_string exn);
          }
      | ( Schedule.Blackhole { session; src; _ },
          Endpoint.Round_timeout { missing; _ } )
        when global = session
             && List.mem sessions.(session).Session.parties.(src) missing -> Pass
      | Schedule.Blackhole { session; src; dst; _ }, _ ->
        Fail
          {
            oracle = "attribution";
            detail =
              Printf.sprintf
                "the schedule blackholes session %d link %d->%d, but the pool blamed \
                 session %d (%s)"
                session src dst global (Printexc.to_string exn);
          }
      | (Schedule.Drop _ | Schedule.Delay _ | Schedule.Duplicate _ | Schedule.Skew _), _
        ->
        (* fatal sched returns only Kill/Blackhole *)
        assert false)
    | Some _, _ ->
      Fail
        {
          oracle = "termination";
          detail = "the failure escaped the pool untyped: " ^ Printexc.to_string e;
        })
  | matches_oracle, runs ->
    let elapsed = Unix.gettimeofday () -. t0 in
    if elapsed > wall_budget then
      Fail
        {
          oracle = "termination";
          detail = Printf.sprintf "completed, but only after %.1f s" elapsed;
        }
    else begin
      let acct =
        List.mapi (fun gi r -> (gi, r)) runs
        |> List.find_map (fun (gi, (r : Plan.run)) ->
               check_accounting sched ~sid ~protocol ~engine gi r.Plan.trace r.Plan.parties
                 r.Plan.endpoint)
      in
      match acct with
      | Some f -> Fail f
      | None ->
        if bug sched then
          Fail
            {
              oracle = "result";
              detail = "merged result differs from the central oracle (planted bug)";
            }
        else if not matches_oracle then
          Fail
            {
              oracle = "result";
              detail = "merged result differs from the central oracle";
            }
        else Pass
    end
