(* The daemon kill target: real OS-level party isolation.

   The in-process campaigns ({!Harness.run}) fault individual frames and
   pool workers inside one process; this module faults a whole party.
   It forks one {!Spe_serve.Daemon} per party over a temp unix-domain
   roster, submits a burst of jobs from a client, SIGKILLs one provider
   daemon mid-flight, and judges the aftermath with the same oracle
   vocabulary as the schedule harness:

   - {b termination}: every submitted job gets a reply within the wall
     budget — a killed peer must never hang a client — and every forked
     daemon is reaped at the end (no leaked processes).
   - {b attribution}: failed jobs carry a typed peer-death kind
     ([Peer_down], [Round_timeout] or [Shard_failed]), never a generic
     rejection.
   - {b result}: jobs that did complete are bit-identical to the
     central [Driver] oracle.
   - {b recovery}: after the kill, the host daemon still answers — a
     probe job submitted once the burst settled gets its own typed
     reply. *)

module Daemon = Spe_serve.Daemon
module Client = Spe_serve.Client
module Serve_proto = Spe_serve.Serve_proto
module Job = Spe_serve.Job
module Driver = Spe_core.Driver
module Protocol4 = Spe_core.Protocol4
module Protocol6 = Spe_core.Protocol6
module State = Spe_rng.State

let fail oracle fmt = Printf.ksprintf (fun detail -> Harness.Fail { Harness.oracle; detail }) fmt

(* The same fixed workloads and configs as the schedule harness's
   oracle, expressed as a wire spec the daemons rebuild from. *)
let spec_of ~pseed = function
  | Schedule.Links ->
    {
      Serve_proto.default_spec with
      Serve_proto.pipeline = Serve_proto.Links;
      seed = pseed;
      shards = 3;
      h = 2;
      c_factor = 2.;
      modulus_bits = 40;
    }
  | Schedule.Scores ->
    {
      Serve_proto.default_spec with
      Serve_proto.pipeline = Serve_proto.Scores;
      seed = pseed;
      shards = 3;
      modulus_bits = 20;
      tau = 6;
      key_bits = 128;
    }

let oracle_reply pipeline ~pseed ~graph ~logs =
  match pipeline with
  | Schedule.Links ->
    let r =
      Driver.link_strengths_exclusive (State.create ~seed:pseed ()) ~graph ~logs
        (Protocol4.default_config ~h:2)
    in
    Serve_proto.Strengths r.Driver.strengths
  | Schedule.Scores ->
    let config = { Protocol6.default_config with Protocol6.key_bits = 128 } in
    let r =
      Driver.user_scores_exclusive (State.create ~seed:pseed ()) ~graph ~logs ~tau:6
        ~modulus:(1 lsl 20) config
    in
    Serve_proto.Scores r.Driver.scores

let peer_death_kind = function
  | Serve_proto.Peer_down | Serve_proto.Round_timeout | Serve_proto.Shard_failed -> true
  | Serve_proto.Rejected | Serve_proto.Busy_queue | Serve_proto.Other -> false

(* Reap every forked daemon; SIGKILL stragglers past the deadline.
   Returns the pids that had to be forced. *)
let reap_children pids ~deadline =
  let forced = ref [] in
  List.iter
    (fun pid ->
      let rec poll () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ ->
          if Unix.gettimeofday () >= deadline then begin
            forced := pid :: !forced;
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            ignore (Unix.waitpid [] pid)
          end
          else begin
            Thread.delay 0.05;
            poll ()
          end
        | _ -> ()
        | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
      in
      poll ())
    pids;
  !forced

let run ?(jobs = 4) ~seed pipeline =
  let w = Harness.default_workload pipeline in
  let graph, logs = Harness.workload_inputs w in
  let pseed = w.Schedule.wseed + 1 in
  let spec = spec_of ~pseed pipeline in
  let m = w.Schedule.providers in
  Spe_serve.Addr.with_temp_roster ~parties:(m + 1) @@ fun roster ->
  let workload = { Job.graph; logs } in
  let config party =
    {
      (Daemon.default_config ~party ~roster) with
      Daemon.max_sessions = 2;
      dial_timeout = 15.;
    }
  in
  let pids =
    List.init (m + 1) (fun party -> Daemon.spawn (config party) workload)
  in
  let victim = 1 + (seed mod m) in
  let finally_reap () =
    reap_children pids ~deadline:(Unix.gettimeofday () +. 10.)
  in
  match Client.connect ~retry_for:15. roster.(0) with
  | exception Client.Connection_lost msg ->
    List.iter (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) pids;
    ignore (finally_reap ());
    fail "termination" "could not reach the host daemon: %s" msg
  | client ->
    let verdict =
      match
        let submitted = List.init jobs (fun _ -> Client.submit client spec) in
        (* Let the burst get into flight, then kill one provider. *)
        Thread.delay 0.3;
        (try Unix.kill (List.nth pids victim) Sys.sigkill with Unix.Unix_error _ -> ());
        let deadline = Unix.gettimeofday () +. Harness.wall_budget in
        let replies = Hashtbl.create 8 in
        let rec collect () =
          if Hashtbl.length replies < List.length submitted then
            match Client.next_reply client ~deadline with
            | None -> Error (fail "termination" "job replies missing after the kill: a client hung")
            | Some (job, outcome) ->
              Hashtbl.replace replies job outcome;
              collect ()
          else Ok ()
        in
        match collect () with
        | Error f -> f
        | Ok () -> (
          let expected = lazy (oracle_reply pipeline ~pseed ~graph ~logs) in
          let bad =
            List.filter_map
              (fun job ->
                match Hashtbl.find_opt replies job with
                | None -> Some (Printf.sprintf "job %d: no reply" job)
                | Some (Client.Busy _) ->
                  Some (Printf.sprintf "job %d: Busy from a near-empty queue" job)
                | Some (Client.Result (Serve_proto.Failed { kind; detail })) ->
                  if peer_death_kind kind then None
                  else
                    Some
                      (Printf.sprintf "job %d: untyped failure %s (%s)" job
                         (Serve_proto.failure_kind_name kind)
                         detail)
                | Some (Client.Result reply) ->
                  if reply = Lazy.force expected then None
                  else Some (Printf.sprintf "job %d: result differs from the central oracle" job))
              submitted
          in
          match bad with
          | _ :: _ -> fail "attribution" "%s" (String.concat "; " bad)
          | [] -> (
            (* Recovery probe: the host must still be answering. *)
            let probe = Client.submit client spec in
            match Client.next_reply client ~deadline:(Unix.gettimeofday () +. Harness.wall_budget) with
            | None -> fail "termination" "post-kill probe job got no reply: daemon wedged"
            | Some (job, _) when job <> probe ->
              fail "termination" "post-kill probe got a stale reply for job %d" job
            | Some (_, Client.Result (Serve_proto.Failed { kind; _ }))
              when peer_death_kind kind ->
              Harness.Pass
            | Some (_, Client.Result (Serve_proto.Failed { kind; detail })) ->
              fail "attribution" "post-kill probe failed untyped: %s (%s)"
                (Serve_proto.failure_kind_name kind) detail
            | Some (_, _) ->
              (* A full result would mean the dead peer took part. *)
              fail "result" "post-kill probe succeeded despite a dead provider"))
      with
      | verdict -> verdict
      | exception Client.Connection_lost msg ->
        fail "termination" "client connection died: %s" msg
    in
    Client.close client;
    ignore (Client.shutdown_roster ~timeout:10. roster);
    let forced = finally_reap () in
    (match verdict with
    | Harness.Pass when forced <> [] ->
      fail "termination" "%d daemon(s) had to be SIGKILLed at cleanup" (List.length forced)
    | v -> v)
