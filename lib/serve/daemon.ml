(* One long-lived party daemon: `spe serve` runs this.

   A daemon is one seat of the deployment — H (id 0) or P_k (id k) —
   listening on its roster address.  The connection mesh is established
   once: daemon d dials every peer with a lower id and accepts the
   higher ones, each connection opening with exactly one Hello exchange
   (Serve_proto) that checks the protocol version and the workload
   digest.  All later traffic — job control and the session-tagged
   inner protocol frames — multiplexes over those same connections, so
   the dial and the Hello are paid once per deployment, not once per
   shard session.

   Job flow (coordinator model): clients connect to H and submit specs.
   H owns admission — a bounded scheduler queue feeding up to
   [max_sessions] concurrent jobs on its reactor; a full queue is
   refused with the typed [Busy] reply.  When H starts a job it
   assigns the global job number, broadcasts [Job_submit] to the
   provider daemons, and every daemon independently rebuilds the
   identical plan from [(spec, workload)] and runs its own party's
   seats over the mux ([Endpoint.run_party_async]).  H reads the
   merged result from its plan closures and answers the client; on any
   failure it broadcasts [Job_cancel], aborts the job's sessions, and
   answers with a typed [Failed] reply instead — a dead peer daemon
   surfaces as [Peer_down] at every client, never a hang, and the
   daemon keeps serving (new jobs fail fast and typed until the peer
   returns).  A provider that fails a job locally broadcasts
   [Job_cancel] too, so H and the other providers never wait on it.

   Threads: one, the reactor loop.  Every socket, accepted or dialed,
   is a [Transport.Socket.Link] on it from its first byte, whose Hello
   makes it a mesh link or a client link; a client's replies are queued
   and flushed, so one that stops reading never blocks the loop.  The
   dial and shutdown are chains of loop tasks and timers.  Two other
   threads touch a daemon: [start]'s caller, which posts the dials and
   waits for their results, and the scrape endpoint's, which reads the
   gauges. *)

module Endpoint = Spe_net.Endpoint
module Codec = Spe_mpc.Codec
module Transport = Spe_net.Transport
module Link = Spe_net.Transport.Socket.Link
module Mux = Spe_net.Mux
module Reactor = Spe_net.Reactor
module Trace = Spe_obs.Trace
module Metrics = Spe_obs.Metrics

type config = {
  party : int;  (** Daemon id: 0 = H, k = P_k. *)
  roster : Addr.t array;  (** Address by daemon id, H first. *)
  listen : Addr.t option;  (** Bind override; default [roster.(party)]. *)
  max_sessions : int;  (** Concurrent jobs at H (admission control bound). *)
  max_queue : int;  (** Bounded admission queue at H. *)
  metrics_addr : Addr.t option;  (** Scrape endpoint; also enables tracing. *)
  round_timeout : float;
  linger : float;
  dial_timeout : float;  (** How long to keep retrying the mesh dial. *)
}

let default_config ~party ~roster =
  {
    party;
    roster;
    listen = None;
    max_sessions = 4;
    max_queue = 64;
    metrics_addr = None;
    round_timeout = Endpoint.reliable_config.Endpoint.round_timeout;
    linger = Endpoint.reliable_config.Endpoint.linger;
    dial_timeout = 30.;
  }

(* [client] names the submitting client's link in [links]. *)
type host_job = { client : int; client_job : int; spec : Serve_proto.spec }

(* What a daemon socket serves, once its Hello has settled it. *)
type role = Greeting | Mesh of int  (** The peer daemon's id. *) | Client

type conn = { link : Link.t; mutable role : role }

type t = {
  config : config;
  workload : Job.workload;
  wdigest : int;
  mux : Mux.t;
  reactor : Reactor.t;
      (** The daemon's one event loop: every job — host and provider
          side — runs on it as a task chain, every session seat as an
          endpoint machine, every connection as a descriptor callback.
          Every mutable field below is the loop's alone. *)
  loop : Thread.t;  (** The thread driving [reactor]. *)
  listener : Unix.file_descr;
  links : (int, conn) Hashtbl.t;
      (** Every open socket but the listener, by connection number; a
          client link's number names the client. *)
  mutable next_conn : int;
  mutable dialing : int;  (** Mesh dials that have not given their result yet. *)
  peers : Link.t option array;  (** By daemon id; [None] = not connected. *)
  lost : bool array;
      (** By daemon id: the peer's installed link died and no new one
          has installed since.  New jobs fail at once on a lost peer
          instead of waiting for it. *)
  mesh : Link.stats;  (** Cumulative over every mesh link, from its Hello on. *)
  scheduler : host_job Scheduler.t;  (** Meaningful at H only. *)
  mutable next_job : int;  (** Global job numbers (H assigns). *)
  jobs : (int, int list) Hashtbl.t;  (** Running job -> its sids (cancel). *)
  mutable scrape : Spe_obs.Scrape.t option;  (** Set by [start] before the loop serves. *)
  mutable stopping : bool;
  stopped : bool Atomic.t;  (** Set by the last shutdown task; ends the loop. *)
  (* Gauges. *)
  hellos_sent : int Atomic.t;
  hellos_received : int Atomic.t;
  clients_accepted : int Atomic.t;
  clients_dropped : int Atomic.t;
  active_jobs : int Atomic.t;  (** Provider-side jobs in flight. *)
  jobs_completed : int Atomic.t;
  jobs_failed : int Atomic.t;
  sessions_run : int Atomic.t;
  (* Stream-job gauges: advanced as epoch-tagged stages quiesce. *)
  epochs_released : int Atomic.t;
  epoch_sessions_run : int Atomic.t;
      (** Sessions of the publish and recompute stages across all
          released epochs: per stream job, one publish session plus
          one recompute session per epoch that dirtied a group. *)
  last_epoch : int Atomic.t;  (** Highest released epoch, -1 before any. *)
  (* Rank-job gauges: completed rank jobs and the power iterations they ran. *)
  rank_jobs_completed : int Atomic.t;
  rank_iterations_run : int Atomic.t;
  report : Metrics.report option Atomic.t;
      (** Every seat's report folded into one (with tracing): the loop
          writes it, the scrape thread and {!report} read it. *)
  (* Deferred sid cleanup: (reap-after, sids) in completion order. *)
  reap : (float * int list) Queue.t;
}

let m_of t = Array.length t.config.roster - 1

let listen_addr config =
  match config.listen with Some a -> a | None -> config.roster.(config.party)

(* A unix-domain listener's path goes before the bind and after the close. *)
let unlink_listener config =
  match listen_addr config with
  | Transport.Socket.Unix_domain path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Transport.Socket.Tcp _ -> ()

(* --- metrics ------------------------------------------------------------ *)

(* Fold each seat's report into one as it is recorded, so a traced
   daemon's memory does not grow with its jobs.  A daemon's report is
   not one sharded run, so its [shards] stay empty. *)
let record_report t r =
  let total = Option.fold (Atomic.get t.report) ~none:r ~some:(fun t -> Metrics.merge [ t; r ]) in
  Atomic.set t.report (Some { total with Metrics.shards = [] })

let tracing t = t.config.metrics_addr <> None

(* The scrape gauges.  Called from the scrape thread and from tests
   while the loop runs: every value is an atomic or a loop-written
   counter (the scheduler's among them) whose read may lag. *)
let gauges t =
  let sched = Scheduler.stats t.scheduler in
  [
    ("queue_depth", Scheduler.depth t.scheduler);
    ("active_jobs", Scheduler.active t.scheduler + Atomic.get t.active_jobs);
    ("active_sessions", Mux.open_sessions t.mux);
    ("max_sessions", t.config.max_sessions);
    ("max_queue", t.config.max_queue);
    ("jobs_submitted", sched.Scheduler.submitted);
    ("jobs_completed", Atomic.get t.jobs_completed);
    ("jobs_failed", Atomic.get t.jobs_failed);
    ("busy_rejected", sched.Scheduler.rejected);
    ("hellos_sent", Atomic.get t.hellos_sent);
    ("hellos_received", Atomic.get t.hellos_received);
    ("clients_accepted", Atomic.get t.clients_accepted);
    ("clients_dropped", Atomic.get t.clients_dropped);
    ("sessions_run", Atomic.get t.sessions_run);
    (* Stream gauges: per-epoch release progress of stream jobs. *)
    ("epochs_released", Atomic.get t.epochs_released);
    ("epoch_sessions_run", Atomic.get t.epoch_sessions_run);
    ("last_epoch", Atomic.get t.last_epoch);
    (* Rank gauges: second-family job progress. *)
    ("rank_jobs_completed", Atomic.get t.rank_jobs_completed);
    ("rank_iterations_run", Atomic.get t.rank_iterations_run);
    (* Reactor gauges: the loop's live vital signs. *)
    ("reactor_iterations", Reactor.iterations t.reactor);
    ("reactor_timer_fires", Reactor.timer_fires t.reactor);
    ("reactor_ready_depth", Reactor.ready_depth t.reactor);
    ("reactor_pending_timers", Reactor.pending_timers t.reactor);
    (* Mesh gauges: frames against syscalls, the batching ratio. *)
    ("mesh_frames_sent", t.mesh.Link.frames_sent);
    ("mesh_writes", t.mesh.Link.writes);
    ("mesh_frames_received", t.mesh.Link.frames_received);
    ("mesh_reads", t.mesh.Link.reads);
  ]

let render_scrape t () =
  let module Json = Spe_obs.Obs_io.Json in
  let report =
    match Atomic.get t.report with None -> Json.Null | Some r -> Spe_obs.Obs_io.report_to_json r
  in
  Json.to_string
    (Json.Obj
       [
         ("version", Json.String "spe-serve-metrics/1");
         ("protocol", Json.String Serve_proto.protocol);
         ("party", Json.String (Addr.party_name t.config.party));
         ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (gauges t)));
         ("report", report);
       ])
  ^ "\n"

(* --- session execution --------------------------------------------------- *)

let endpoint_config t =
  {
    Endpoint.default_config with
    Endpoint.round_timeout = t.config.round_timeout;
    linger = t.config.linger;
  }

(* One seat of one session as an endpoint machine on the daemon's
   reactor.  [on_done] fires on the loop thread, exactly once. *)
let run_seat_async t ~protocol (seat : Job.seat) ~on_done =
  match Mux.open_session t.mux ~sid:seat.Job.sid ~peers:seat.Job.peers with
  | exception e -> on_done (Error e)
  | transport, index ->
    assert (index = seat.Job.index);
    let trace = if tracing t then Trace.create () else Trace.disabled () in
    let start = if tracing t then Trace.now trace else 0. in
    Endpoint.run_party_async ~config:(endpoint_config t) ~trace ~reactor:t.reactor
      ~transport ~session:seat.Job.session ~index
      ~on_done:(fun res ->
        (try transport.Transport.close () with _ -> ());
        match res with
        | Error _ as e -> on_done e
        | Ok _outcome ->
          (* Report first: a reader that sees the new [sessions_run]
             must also see this seat's report. *)
          if tracing t then begin
            Trace.record_span trace Trace.Session "session" ~start ~stop:(Trace.now trace);
            record_report t
              (Metrics.of_trace ~protocol ~engine:"serve"
                 ~parties:(Array.length seat.Job.session.Spe_mpc.Session.parties)
                 trace)
          end;
          Atomic.incr t.sessions_run;
          on_done (Ok ()))
      ()

(* Run one stage's seats concurrently (the in-stage sessions are
   mutually independent, like the worker pool's), abort the whole job's
   sessions on the first failure so sibling seats — here and in every
   other daemon — unwind promptly, and surface the root cause.
   [on_done] receives [None] on success, [Some root_cause] otherwise. *)
let run_stage_async t ~protocol ~all_sids seats ~on_done =
  match seats with
  | [] -> on_done None
  | seats ->
    let n = List.length seats in
    let errors = Array.make n None in
    let remaining = ref n in
    let abort_all () = List.iter (fun sid -> Mux.abort t.mux ~sid) all_sids in
    let seat_done i res =
      (match res with
      | Ok () -> ()
      | Error e ->
        errors.(i) <- Some e;
        abort_all ());
      decr remaining;
      if !remaining = 0 then
        (* Prefer a root cause over the Closed echo the abort caused. *)
        on_done
          (match Array.find_map (function Some Transport.Closed -> None | e -> e) errors with
          | None -> Array.find_map Fun.id errors
          | root -> root)
    in
    List.iteri (fun i seat -> run_seat_async t ~protocol seat ~on_done:(seat_done i)) seats

(* Epoch gauge bookkeeping: the plan's stages carry their epoch
   ([Plan.stage.epoch]), so as each epoch-tagged stage quiesces we can
   advance the stream gauges — a "release"-labelled stage marks the
   epoch as released, and the sessions of the recompute stages count
   toward [epoch_sessions_run].  Only the loop writes the gauges. *)
let note_stage_done t (stage : Spe_core.Plan.stage) =
  match stage.Spe_core.Plan.epoch with
  | None -> ()
  | Some epoch ->
    if stage.Spe_core.Plan.label = "release" then begin
      Atomic.incr t.epochs_released;
      if epoch > Atomic.get t.last_epoch then Atomic.set t.last_epoch epoch
    end
    else
      ignore
        (Atomic.fetch_and_add t.epoch_sessions_run
           (Array.length stage.Spe_core.Plan.sessions))

(* Late retransmits can trail a session by up to the linger, so a
   finished sid stays in the mux's finished set that long, twice over. *)
let defer_reap t sids =
  Queue.push (Unix.gettimeofday () +. (2. *. t.config.linger), sids) t.reap

(* This daemon's seats of one job, stage after stage.  Registers the
   job for [Job_cancel], defers the sids to the reaper on the way out
   (late retransmits can trail a session by up to the linger), and
   reports [None] or the root-cause failure to [on_done]. *)
let run_job_async t ~job ~spec planned ~on_done =
  let protocol = Serve_proto.pipeline_name spec.Serve_proto.pipeline in
  let per_stage, all_sids = Job.seats ~job ~party:t.config.party planned in
  Hashtbl.replace t.jobs job all_sids;
  let conclude res =
    Hashtbl.remove t.jobs job;
    defer_reap t all_sids;
    on_done res
  in
  let rec stages = function
    | [] ->
      (if spec.Serve_proto.pipeline = Serve_proto.Rank then begin
         Atomic.incr t.rank_jobs_completed;
         ignore
           (Atomic.fetch_and_add t.rank_iterations_run
              (if spec.Serve_proto.rank_degree then 1 else spec.Serve_proto.iterations))
       end);
      conclude None
    | (plan_stage, seats) :: rest ->
      run_stage_async t ~protocol ~all_sids seats ~on_done:(function
        | None ->
          note_stage_done t plan_stage;
          stages rest
        | Some _ as failure -> conclude failure)
  in
  stages (List.combine (Job.stages planned) per_stage)

let reap_finished t =
  let now = Unix.gettimeofday () in
  let rec go () =
    match Queue.peek_opt t.reap with
    | Some (when_, sids) when when_ <= now ->
      ignore (Queue.pop t.reap);
      List.iter (fun sid -> Mux.forget t.mux ~sid) sids;
      go ()
    | _ -> ()
  in
  go ()

let failure_of_exn = function
  | Endpoint.Round_timeout _ as e ->
    (Serve_proto.Round_timeout, Printexc.to_string e)
  | Transport.Closed -> (Serve_proto.Peer_down, "a peer daemon's connection died")
  | e -> (Serve_proto.Shard_failed, Printexc.to_string e)

(* --- host side ----------------------------------------------------------- *)

let queue_frame link frame =
  Link.queue link (Serve_proto.encoded_length frame) (fun buf pos ->
      ignore (Serve_proto.encode_into frame buf ~pos))

(* One control frame onto a link, written now as far as the kernel
   takes it; the rest leaves when the link is writable, so a slow
   reader holds the frame in memory, never the loop.  A dead link
   drops it. *)
let send_frame link frame =
  try
    queue_frame link frame;
    Link.flush link
  with Transport.Closed -> ()

(* Job control leaves at once rather than with the next poll: H builds
   its own plan right after broadcasting a submit, and the providers'
   builds should not queue behind it. *)
let broadcast t frame = Array.iter (Option.iter (fun link -> send_frame link frame)) t.peers

let mesh_complete t =
  List.filter
    (fun p -> p <> t.config.party && Option.is_none t.peers.(p))
    (List.init (m_of t + 1) Fun.id)

(* How long a job waits for this daemon's mesh: a peer may still be
   dialing (the dial retries for [dial_timeout]), but a job must not
   sit out a long round timeout for a peer that never comes. *)
let mesh_deadline t =
  Unix.gettimeofday () +. Float.min t.config.dial_timeout (Float.min 10. t.config.round_timeout)

(* Wait for the mesh without holding the loop: re-check on a short
   reactor timer until complete or the deadline passes.  Only a peer
   that has not connected yet is worth the wait (start-up); one whose
   link died fails the job at once, until it connects again. *)
let await_mesh_async t ~deadline k =
  let rec check () =
    match mesh_complete t with
    | [] -> k (Ok ())
    | missing ->
      if List.exists (fun p -> t.lost.(p)) missing || Unix.gettimeofday () >= deadline then
        k
          (Error
             (Printf.sprintf "peer daemon%s %s not connected"
                (if List.length missing > 1 then "s" else "")
                (String.concat ", " (List.map Addr.party_name missing))))
      else ignore (Reactor.at t.reactor (Unix.gettimeofday () +. 0.02) check)
  in
  check ()

(* Past this many reply bytes that the kernel has not taken, H drops a
   client and its replies: far above what a reading client leaves (CI's
   500-job stress smoke replies under 0.9 MB in all). *)
let max_unread = 4 lsl 20

(* A client that has hung up, or was dropped, is not answered. *)
let send_client t ~client frame =
  match Hashtbl.find_opt t.links client with
  | Some { link; role = Client } ->
    send_frame link frame;
    if Link.pending link > max_unread then begin
      Atomic.incr t.clients_dropped;
      Link.close link
    end
  | _ -> ()

let reply_to t ~client ~job reply = send_client t ~client (Serve_proto.Job_result { job; reply })

(* The host's job pump: claim queued jobs while active slots are free
   and launch each as a task chain on the loop.  Re-entered from every
   job conclusion and from a post after every accepted submission, so
   [max_sessions] bounds the jobs in flight. *)
let rec pump t =
  match Scheduler.take_opt t.scheduler with
  | None -> ()
  | Some job ->
    start_host_job t job;
    pump t

and start_host_job t { client; client_job; spec } =
  reap_finished t;
  let conclude () =
    Scheduler.finish t.scheduler;
    pump t
  in
  let fail kind detail =
    Atomic.incr t.jobs_failed;
    reply_to t ~client ~job:client_job (Serve_proto.Failed { kind; detail });
    conclude ()
  in
  (* Tear job [g] down everywhere, then answer typed.  A failed stage
     has already aborted the job's sessions here. *)
  let abandon g e =
    broadcast t (Serve_proto.Job_cancel { job = g });
    let kind, detail = failure_of_exn e in
    fail kind detail
  in
  match Job.validate spec t.workload with
  | Error detail -> fail Serve_proto.Rejected detail
  | Ok () ->
    await_mesh_async t
      ~deadline:(mesh_deadline t)
      (function
        | Error detail -> fail Serve_proto.Peer_down detail
        | Ok () -> (
          let g = t.next_job in
          t.next_job <- g + 1;
          match
            broadcast t (Serve_proto.Job_submit { job = g; spec });
            Job.build spec t.workload
          with
          | exception e -> abandon g e
          | planned ->
            run_job_async t ~job:g ~spec planned ~on_done:(function
              | Some e -> abandon g e
              | None -> (
                match Job.reply_of planned with
                | reply ->
                  Atomic.incr t.jobs_completed;
                  reply_to t ~client ~job:client_job reply;
                  conclude ()
                | exception e -> abandon g e))))

(* --- provider side ------------------------------------------------------- *)

(* Any local failure is broadcast as [Job_cancel]: H turns it into
   aborted seats and a typed reply, and the other providers abort too,
   instead of all of them waiting out the round timeout. *)
let start_provider_job t ~job spec =
  Atomic.incr t.active_jobs;
  reap_finished t;
  let fail () =
    Atomic.incr t.jobs_failed;
    broadcast t (Serve_proto.Job_cancel { job });
    Atomic.decr t.active_jobs
  in
  match Job.validate spec t.workload with
  | Error _ -> fail ()
  | Ok () ->
    (* The job reached us over H's link, but a link to another provider
       may still be coming up. *)
    await_mesh_async t ~deadline:(mesh_deadline t) (function
      | Error _ -> fail ()
      | Ok () -> (
        match Job.build spec t.workload with
        | exception _ -> fail ()
        | planned ->
          run_job_async t ~job ~spec planned ~on_done:(function
            | None ->
              Atomic.incr t.jobs_completed;
              Atomic.decr t.active_jobs
            | Some _ -> fail ())))

let cancel_job t ~job =
  match Hashtbl.find_opt t.jobs job with
  | Some sids -> List.iter (fun sid -> Mux.abort t.mux ~sid) sids
  | None ->
    (* The job may not have started here yet (or has finished); poison
       its whole sid range so a later open fails immediately, and reap
       the poison like a finished job's sids. *)
    let sids = List.init 256 (fun gidx -> Job.sid ~job ~gidx) in
    List.iter (fun sid -> Mux.abort t.mux ~sid) sids;
    defer_reap t sids

(* --- connection plumbing -------------------------------------------------- *)

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* One inbound mesh frame, sliced in place out of the link's read slab
   on the loop thread.  [false] (a malformed frame) kills the link. *)
let rec on_mesh_frame t buf off len =
  match Serve_proto.decode_slice buf off len with
  | exception Codec.Malformed _ -> false
  | Serve_proto.Session_frame { sid; body } ->
    Mux.deliver t.mux ~sid body;
    true
  | Serve_proto.Job_submit { job; spec } ->
    if t.config.party <> 0 then
      Reactor.post t.reactor (fun () -> start_provider_job t ~job spec);
    true
  | Serve_proto.Job_cancel { job } ->
    cancel_job t ~job;
    true
  | Serve_proto.Shutdown ->
    stop t;
    true
  | Serve_proto.Hello _ | Serve_proto.Job_result _ | Serve_proto.Busy _ -> true

(* One client frame, on the loop thread; [false] (a malformed frame)
   closes the client's link. *)
and on_client_frame t ~client buf off len =
  match Serve_proto.decode_slice buf off len with
  | exception Codec.Malformed _ -> false
  | Serve_proto.Job_submit { job; spec } ->
    (if t.config.party <> 0 then
       reply_to t ~client ~job
         (Serve_proto.Failed
            { kind = Serve_proto.Rejected; detail = "only the host daemon accepts jobs" })
     else
       match Scheduler.submit t.scheduler { client; client_job = job; spec } with
       | Scheduler.Accepted -> Reactor.post t.reactor (fun () -> pump t)
       | Scheduler.Busy { queued; max_queue } ->
         send_client t ~client (Serve_proto.Busy { job; queued; max_queue }));
    true
  | Serve_proto.Shutdown ->
    stop t;
    true
  | Serve_proto.Session_frame _ | Serve_proto.Hello _ | Serve_proto.Job_result _
  | Serve_proto.Busy _ | Serve_proto.Job_cancel _ -> true

(* --- shutdown ------------------------------------------------------------ *)

(* Graceful shutdown, as loop tasks paced by a 10 ms reactor timer:
   refuse the queued jobs with a typed reply, let the running ones
   finish (up to 60 s), close the listener and the links still short of
   their Hello, give the client links until the same deadline to take
   their replies (and a dial still running the 0.1 s it takes to give
   up), then close every link and end the loop. *)
and initiate_shutdown t =
  if not t.stopping then begin
    t.stopping <- true;
    List.iter
      (fun { client; client_job; _ } ->
        Atomic.incr t.jobs_failed;
        reply_to t ~client ~job:client_job
          (Serve_proto.Failed { kind = Serve_proto.Rejected; detail = "daemon shutting down" }))
      (Scheduler.stop t.scheduler);
    let deadline = Unix.gettimeofday () +. 60. in
    let rec wait_while busy k =
      if busy () && Unix.gettimeofday () < deadline then
        ignore (Reactor.at t.reactor (Unix.gettimeofday () +. 0.01) (fun () -> wait_while busy k))
      else k ()
    in
    let links role =
      Hashtbl.fold (fun _ c acc -> if role c.role then c.link :: acc else acc) t.links []
    in
    wait_while
      (fun () -> Scheduler.active t.scheduler > 0 || Atomic.get t.active_jobs > 0)
      (fun () ->
        Reactor.forget_fd t.reactor t.listener;
        unlink_listener t.config;
        close_fd t.listener;
        List.iter Link.close (links (( = ) Greeting));
        wait_while
          (fun () ->
            t.dialing > 0
            || List.exists (fun link -> Link.pending link > 0) (links (( = ) Client)))
          (fun () ->
            List.iter Link.close (links (fun _ -> true));
            Option.iter (fun s -> try Spe_obs.Scrape.stop s with _ -> ()) t.scrape;
            Atomic.set t.stopped true))
  end

and stop t = Reactor.post t.reactor (fun () -> initiate_shutdown t)

(* --- every socket one link: the Hello, the accept and the dial ------------- *)

(* A link died (EOF, socket error or malformed frame).  If it was still
   the peer's current link, every session seated with that peer fails
   now; a replaced link's death changes nothing. *)
let link_died t ~peer =
  match t.peers.(peer) with
  | Some link when not (Link.alive link) ->
    t.peers.(peer) <- None;
    t.lost.(peer) <- true;
    Mux.fail_peer t.mux ~peer
  | _ -> ()

let my_hello t =
  Serve_proto.Hello
    { role = Serve_proto.Party t.config.party; version = Serve_proto.version; workload = t.wdigest }

(* Our Hello, flushed at once; [false] if the link died writing it. *)
let send_hello t link =
  send_frame link (my_hello t);
  if Link.alive link then Atomic.incr t.hellos_sent;
  Link.alive link

type hello = Peer of int | Mismatch of int | Client_hello | Refused

(* The one check of a link's first frame, on either end of it: our
   protocol version, then a client, or a party whose id is in the
   roster and not ours, with our workload digest or another. *)
let check_hello t buf off len =
  match Serve_proto.decode_slice buf off len with
  | Serve_proto.Hello { role = Serve_proto.Party p; version; workload }
    when version = Serve_proto.version && p >= 0 && p <= m_of t && p <> t.config.party ->
    if workload = t.wdigest then Peer p else Mismatch p
  | Serve_proto.Hello { role = Serve_proto.Client; version; _ }
    when version = Serve_proto.version ->
    Client_hello
  | _ | (exception Codec.Malformed _) -> Refused

(* A link whose Hello names [peer] joins the mesh, replacing any older
   one, and counts into the mesh stats from now on (Hellos stay out).
   [hellos_received = m] means the mesh is usable. *)
let join_mesh t c ~peer =
  c.role <- Mesh peer;
  Link.count_into c.link t.mesh;
  let old = t.peers.(peer) in
  t.peers.(peer) <- Some c.link;
  t.lost.(peer) <- false;
  Option.iter Link.close old;
  (* Session frames are encoded straight into the link's outbound
     slab and leave with the loop's next poll. *)
  Mux.set_writer t.mux ~peer (fun ~sid body ->
      queue_frame c.link (Serve_proto.Session_frame { sid; body }));
  Atomic.incr t.hellos_received

(* Every daemon socket, accepted or dialed, is one link from its first
   byte.  Its first frame must be the peer's Hello, before [deadline]
   and no longer than a Hello's 13 bytes, so a silent connection and a
   hostile length prefix both close.  [on_hello] settles the role, and
   the frames behind the Hello go to it; a link left [Greeting] closes,
   and [on_lost] runs if a link closes while [Greeting]. *)
let open_link t fd ~deadline ~on_hello ~on_lost =
  let id = t.next_conn in
  t.next_conn <- id + 1;
  let self = ref None in
  let conn () = Option.get !self in
  let timer = Reactor.at t.reactor deadline (fun () -> Link.close (conn ()).link) in
  let on_frame buf off len =
    let c = conn () in
    match c.role with
    | Greeting ->
      Reactor.cancel t.reactor timer;
      on_hello c (check_hello t buf off len);
      if c.role <> Greeting then Link.bound c.link max_int;
      c.role <> Greeting
    | Mesh _ -> on_mesh_frame t buf off len
    | Client -> on_client_frame t ~client:id buf off len
  in
  let on_close () =
    Hashtbl.remove t.links id;
    Reactor.cancel t.reactor timer;
    match (conn ()).role with Greeting -> on_lost () | Mesh peer -> link_died t ~peer | Client -> ()
  in
  let c = { link = Link.create ~reactor:t.reactor ~on_frame ~on_close fd; role = Greeting } in
  self := Some c;
  Link.bound c.link (Serve_proto.encoded_length (my_hello t));
  Hashtbl.replace t.links id c;
  c

(* An accepted link's Hello.  A party or a client of our version gets
   our Hello back; so does a party that loaded another workload, before
   its link closes, so that its dial reports the mismatch at once. *)
let on_accepted_hello t c = function
  | Peer peer -> if send_hello t c.link then join_mesh t c ~peer
  | Mismatch _ -> ignore (send_hello t c.link)
  | Client_hello ->
    Atomic.incr t.clients_accepted;
    if send_hello t c.link then c.role <- Client
  | Refused -> ()

(* The listener is non-blocking: take the whole backlog.  A descriptor
   past select's limit cannot join the loop and is closed. *)
let rec accept_all t =
  match Unix.accept t.listener with
  | exception Unix.Unix_error _ -> ()
  | fd, _ ->
    if Reactor.selectable [ fd ] then
      ignore
        (open_link t fd
           ~deadline:(Unix.gettimeofday () +. t.config.dial_timeout)
           ~on_hello:(on_accepted_hello t) ~on_lost:ignore)
    else close_fd fd;
    accept_all t

let domain_of = function Unix.ADDR_UNIX _ -> Unix.PF_UNIX | _ -> Unix.PF_INET

(* Dial [peer] on the loop: a non-blocking connect whose link holds our
   Hello from the start, so its writability callback finishes the
   connect.  Anything short of the peer's Hello or a workload mismatch
   is retried on a 0.1 s timer until [dial_timeout]. *)
let dial t ~peer ~on_done =
  let address = t.config.roster.(peer) in
  let sockaddr = Addr.sockaddr address in
  let deadline = Unix.gettimeofday () +. t.config.dial_timeout in
  let finished = ref false in
  let finish result =
    finished := true;
    t.dialing <- t.dialing - 1;
    on_done result
  in
  let on_hello c = function
    | Peer p when p = peer ->
      join_mesh t c ~peer;
      finish (Ok ())
    | Mismatch p when p = peer ->
      finish
        (Error
           (Printf.sprintf
              "workload mismatch with %s (%s): daemons must load identical --graph/--log inputs"
              (Addr.party_name peer) (Addr.to_string address)))
    | _ -> ()
  in
  let rec attempt () =
    if t.stopping then finish (Error "shutting down")
    else
      match Unix.socket (domain_of sockaddr) Unix.SOCK_STREAM 0 with
      | exception Unix.Unix_error _ -> retry ()
      | fd when not (Reactor.selectable [ fd ]) ->
        close_fd fd;
        retry ()
      | fd -> (
        match
          Unix.set_nonblock fd;
          Unix.connect fd sockaddr
        with
        | () | (exception Unix.Unix_error (Unix.EINPROGRESS, _, _)) ->
          ignore (send_hello t (open_link t fd ~deadline ~on_hello ~on_lost:retry).link)
        | exception Unix.Unix_error _ ->
          close_fd fd;
          retry ())
  and retry () =
    if not !finished then
      if Unix.gettimeofday () >= deadline then
        finish
          (Error
             (Printf.sprintf "cannot reach %s at %s" (Addr.party_name peer)
                (Addr.to_string address)))
      else ignore (Reactor.at t.reactor (Unix.gettimeofday () +. 0.1) attempt)
  in
  t.dialing <- t.dialing + 1;
  attempt ()

(* --- lifecycle ------------------------------------------------------------ *)

let wait ?timeout t =
  let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) timeout in
  let rec poll () =
    if Atomic.get t.stopped then (try Thread.join t.loop with _ -> ())
    else
      match deadline with
      | Some d when Unix.gettimeofday () >= d ->
        failwith
          (Printf.sprintf "daemon %s did not stop within %g s"
             (Addr.party_name t.config.party) (Option.get timeout))
      | _ ->
        Thread.delay 0.02;
        poll ()
  in
  poll ()

let start config workload =
  if Array.length config.roster < 3 then
    invalid_arg "Daemon.start: roster needs H and at least two providers";
  if config.party < 0 || config.party > Array.length config.roster - 1 then
    invalid_arg "Daemon.start: party outside the roster";
  if Array.length workload.Job.logs <> Array.length config.roster - 1 then
    invalid_arg "Daemon.start: one provider log per roster provider";
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let addr = listen_addr config in
  unlink_listener config;
  let sockaddr = Addr.sockaddr addr in
  let listener = Unix.socket (domain_of sockaddr) Unix.SOCK_STREAM 0 in
  (match addr with
  | Spe_net.Transport.Socket.Tcp _ -> Unix.setsockopt listener Unix.SO_REUSEADDR true
  | _ -> ());
  (try
     Unix.bind listener sockaddr;
     Unix.listen listener 64;
     Unix.set_nonblock listener
   with e ->
     close_fd listener;
     raise e);
  let reactor = Reactor.create () and stopped = Atomic.make false in
  (* A task that escapes with an exception must not kill the daemon:
     the loop re-enters until shutdown. *)
  let loop = Reactor.spawn reactor ~until:(fun () -> Atomic.get stopped) in
  let t =
    {
      config;
      workload;
      wdigest = Job.digest workload;
      mux = Mux.create ~self:config.party;
      reactor;
      loop;
      listener;
      links = Hashtbl.create 8;
      next_conn = 0;
      dialing = 0;
      peers = Array.make (Array.length config.roster) None;
      lost = Array.make (Array.length config.roster) false;
      mesh = Link.stats ();
      scheduler = Scheduler.create ~max_queue:config.max_queue ~max_active:config.max_sessions;
      next_job = 1;
      jobs = Hashtbl.create 16;
      scrape = None;
      stopping = false;
      stopped;
      hellos_sent = Atomic.make 0;
      hellos_received = Atomic.make 0;
      clients_accepted = Atomic.make 0;
      clients_dropped = Atomic.make 0;
      active_jobs = Atomic.make 0;
      jobs_completed = Atomic.make 0;
      jobs_failed = Atomic.make 0;
      sessions_run = Atomic.make 0;
      epochs_released = Atomic.make 0;
      epoch_sessions_run = Atomic.make 0;
      last_epoch = Atomic.make (-1);
      rank_jobs_completed = Atomic.make 0;
      rank_iterations_run = Atomic.make 0;
      report = Atomic.make None;
      reap = Queue.create ();
    }
  in
  let abort e =
    stop t;
    wait t;
    raise e
  in
  (match config.metrics_addr with
  | None -> ()
  | Some maddr -> (
    match Spe_obs.Scrape.start ~addr:(Addr.sockaddr maddr) ~render:(render_scrape t) with
    | scrape -> t.scrape <- Some scrape
    | exception e -> abort e));
  (* From here on the loop serves; [scrape] was set before it could
     shut down. *)
  Reactor.post reactor (fun () -> Reactor.on_readable reactor listener (fun () -> accept_all t));
  (* Establish the mesh on the loop: dial every lower id (they dial us
     if higher) and wait for the results.  Dial failures are fatal at
     start — a daemon that can never reach its peers should say so, not
     limp — and the first one ends the wait. *)
  let settled = Semaphore.Counting.make 0 and failure = Atomic.make None in
  let on_done result =
    Result.iter_error (fun msg -> ignore (Atomic.compare_and_set failure None (Some msg))) result;
    Semaphore.Counting.release settled
  in
  for peer = 0 to config.party - 1 do
    Reactor.post reactor (fun () -> dial t ~peer ~on_done)
  done;
  for _ = 1 to config.party do
    Semaphore.Counting.acquire settled;
    Option.iter (fun msg -> abort (Failure msg)) (Atomic.get failure)
  done;
  t

let run config workload =
  let t = start config workload in
  wait t

(* Fork a child process running one daemon — what the chaos harness and
   the burst bench use to get real OS-level party isolation.  The child
   never returns: [Unix._exit] skips every at_exit hook the parent
   registered (alcotest, temp-file cleanup), which must not fire in
   both processes. *)
let spawn config workload =
  match Unix.fork () with
  | 0 ->
    let code =
      try
        run config workload;
        0
      with e ->
        prerr_endline
          (Printf.sprintf "spe-serve[%s]: %s" (Addr.party_name config.party)
             (Printexc.to_string e));
        1
    in
    Unix._exit code
  | pid -> pid

let report t = Atomic.get t.report
