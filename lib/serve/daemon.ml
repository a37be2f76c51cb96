(* One long-lived party daemon: `spe serve` runs this.

   A daemon is one seat of the deployment — H (id 0) or P_k (id k) —
   listening on its roster address.  The connection mesh is established
   once: daemon d dials every peer with a lower id and accepts the
   higher ones, each connection opening with exactly one Hello exchange
   (spe-serve/2) that checks the protocol version and the workload
   digest.  All later traffic — job control and the session-tagged
   inner protocol frames — multiplexes over those same connections, so
   the per-session rendezvous/Hello tax of addressed socket groups is
   paid once per deployment, not once per shard session.

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

   Threads: the acceptor, one short-lived handshake thread per inbound
   connection, and the dialer exchange the Hellos with blocking I/O;
   the socket then becomes a [Transport.Socket.Link] on the reactor,
   which reads it, writes it and dispatches its frames.  Client
   connections stay blocking, one reader thread each: they carry one
   frame per job each way. *)

module Endpoint = Spe_net.Endpoint
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
    (* Jobs are reactor task chains, not worker threads, so the
       concurrency cap is bookkeeping rather than a thread budget —
       high enough that a pipelined burst (the 500-job stress smoke)
       queues on admission, not on artificial session scarcity. *)
    max_sessions = 16;
    max_queue = 1024;
    metrics_addr = None;
    (* Compute-friendly like the CLI pipelines: local connections are
       reliable, and a busy party decrypting bundles looks exactly like
       a dead one.  Dead *connections* are detected by link EOF, not
       by this timeout. *)
    round_timeout = 300.;
    linger = 310.;
    dial_timeout = 30.;
  }

(* A blocking client connection (and an inbound connection before its
   Hello is through): the loop and the client's reader thread both
   write to it, so writes are serialised.  Only the thread that reads
   the connection closes its descriptor; any other thread hangs up. *)
type conn = {
  fd : Unix.file_descr;
  mx : Mutex.t;
  mutable alive : bool;
  mutable closed : bool;
}

let conn_of fd = { fd; mx = Mutex.create (); alive = true; closed = false }

(* A dead client raises [Transport.Closed]. *)
let send conn frame =
  Mutex.lock conn.mx;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.mx)
    (fun () ->
      if not conn.alive then raise Transport.Closed;
      try Serve_proto.write conn.fd frame
      with Unix.Unix_error _ | Sys_error _ -> raise Transport.Closed)

(* Refuse further writes and shut the socket down, which wakes its
   reader with EOF, but leave the descriptor open: closed under a reader
   that is between two reads, its number could be reused by the next
   connection the process opens — another daemon's, in an in-process
   deployment — and the reader would consume that connection's
   frames. *)
let hang_up conn =
  Mutex.lock conn.mx;
  if conn.alive then begin
    conn.alive <- false;
    try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()
  end;
  Mutex.unlock conn.mx

(* For the reading thread only (or the handshake thread before any
   reader exists): reads happen on that thread, writes and the shutdown
   under [mx], so once this returns no thread touches [fd] again. *)
let close_conn conn =
  hang_up conn;
  Mutex.lock conn.mx;
  if not conn.closed then begin
    conn.closed <- true;
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  end;
  Mutex.unlock conn.mx

type host_job = { client : conn; client_job : int; spec : Serve_proto.spec }

type t = {
  config : config;
  workload : Job.workload;
  wdigest : int;
  mux : Mux.t;
  reactor : Reactor.t;
      (** The daemon's one event loop: every job — host and provider
          side — runs on it as a task chain, every session seat as an
          endpoint machine, every mesh link as a descriptor callback.
          The handshake, client-reader and shutdown threads hand work
          to it with [Reactor.post]. *)
  lock : Mutex.t;  (** Guards [clients], [next_client], [stopping], [stopped]. *)
  peers : Link.t option array;
      (** By daemon id; [None] = not connected.  Loop-thread only, like
          [jobs] and [reap]. *)
  mesh : Link.stats;  (** Cumulative over every mesh link. *)
  clients : (int, conn) Hashtbl.t;
  mutable next_client : int;
  scheduler : host_job Scheduler.t;  (** Meaningful at H only. *)
  next_job : int Atomic.t;  (** Global job numbers (H assigns). *)
  jobs : (int, int list) Hashtbl.t;  (** Running job -> its sids (cancel). *)
  listener : Unix.file_descr;
  mutable scrape : Spe_obs.Scrape.t option;
  mutable stopping : bool;
  mutable stopped : bool;
  loop : Thread.t option ref;  (** The thread driving [reactor]. *)
  acceptor : Thread.t option ref;
  (* Gauges. *)
  hellos_sent : int Atomic.t;
  hellos_received : int Atomic.t;
  clients_accepted : int Atomic.t;
  active_jobs : int Atomic.t;  (** Provider-side jobs in flight. *)
  jobs_completed : int Atomic.t;
  jobs_failed : int Atomic.t;
  sessions_run : int Atomic.t;
  (* Stream-job gauges: advanced as epoch-tagged stages quiesce. *)
  epochs_released : int Atomic.t;
  epoch_sessions_run : int Atomic.t;
      (** Per-group recomputation sessions across all released epochs —
          the quantity the delta path keeps small. *)
  last_epoch : int Atomic.t;  (** Highest released epoch, -1 before any. *)
  (* Rank-job gauges: completed rank jobs and the power iterations they ran. *)
  rank_jobs_completed : int Atomic.t;
  rank_iterations_run : int Atomic.t;
  (* Cumulative spe-metrics/2 state (when metrics_addr is set). *)
  reports_lock : Mutex.t;
  mutable reports : Metrics.report list;
  (* Deferred sid cleanup: (reap-after, sids) in completion order. *)
  reap : (float * int list) Queue.t;
}

let with_lock lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let m_of t = Array.length t.config.roster - 1

let listen_addr config =
  match config.listen with Some a -> a | None -> config.roster.(config.party)

(* --- metrics ------------------------------------------------------------ *)

let record_report t report =
  with_lock t.reports_lock (fun () -> t.reports <- report :: t.reports)

let tracing t = t.config.metrics_addr <> None

(* The scrape gauges.  Called from the scrape thread and from tests
   while the loop runs: every value is an atomic, a scheduler stat
   read under its lock, or a loop-written counter whose read may lag. *)
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
    match with_lock t.reports_lock (fun () -> t.reports) with
    | [] -> Json.Null
    | reports ->
      Json.of_string (Spe_obs.Obs_io.report_to_string (Metrics.merge (List.rev reports)))
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

let pipeline_label = function
  | Serve_proto.Links -> "links"
  | Serve_proto.Scores -> "scores"
  | Serve_proto.Stream -> "stream"
  | Serve_proto.Rank -> "rank"

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
      if !remaining = 0 then begin
        (* Prefer a root cause over the Closed echo the abort caused. *)
        let root, any =
          Array.fold_left
            (fun (root, any) e ->
              match e with
              | None -> (root, any)
              | Some Transport.Closed -> (root, if any = None then e else any)
              | Some _ ->
                ((if root = None then e else root), if any = None then e else any))
            (None, None) errors
        in
        on_done (match (root, any) with Some _, _ -> root | None, _ -> any)
      end
    in
    List.iteri (fun i seat -> run_seat_async t ~protocol seat ~on_done:(seat_done i)) seats

(* This daemon's seats of one job, stage after stage.  Registers the
   job for [Job_cancel], defers the sids to the reaper on the way out
   (late retransmits can trail a session by up to the linger), and
   reports [None] or the root-cause failure to [on_done]. *)
(* Epoch gauge bookkeeping: the plan's stages carry their epoch
   ([Plan.stage.epoch]), so as each epoch-tagged stage quiesces we can
   advance the stream gauges — a "release"-labelled stage marks the
   epoch as released, and the sessions of the recompute stages count
   toward [epoch_sessions_run]. *)
let note_stage_done t (stage : Spe_core.Plan.stage) =
  match stage.Spe_core.Plan.epoch with
  | None -> ()
  | Some epoch ->
    if stage.Spe_core.Plan.label = "release" then begin
      Atomic.incr t.epochs_released;
      let rec raise_to e =
        let cur = Atomic.get t.last_epoch in
        if e > cur && not (Atomic.compare_and_set t.last_epoch cur e) then raise_to e
      in
      raise_to epoch
    end
    else
      ignore
        (Atomic.fetch_and_add t.epoch_sessions_run
           (Array.length stage.Spe_core.Plan.sessions))

(* Late retransmits can trail a session by up to the linger, so a
   finished sid stays in the mux's finished set that long, twice over. *)
let defer_reap t sids =
  Queue.push (Unix.gettimeofday () +. (2. *. t.config.linger), sids) t.reap

let run_job_async t ~job ~spec planned ~on_done =
  let protocol = pipeline_label spec.Serve_proto.pipeline in
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
  | Endpoint.Shard_failed _ as e -> (Serve_proto.Shard_failed, Printexc.to_string e)
  | e -> (Serve_proto.Shard_failed, Printexc.to_string e)

(* --- host side ----------------------------------------------------------- *)

(* Job control leaves at once rather than with the next poll: H builds
   its own plan right after broadcasting a submit, and the providers'
   builds should not queue behind it. *)
let broadcast t frame =
  let body = Serve_proto.encode frame in
  let n = Bytes.length body in
  Array.iter
    (Option.iter (fun link ->
         try
           Link.queue link n (fun buf pos -> Bytes.blit body 0 buf pos n);
           Link.flush link
         with Transport.Closed -> ()))
    t.peers

let mesh_complete t =
  let missing = ref [] in
  for p = m_of t downto 0 do
    if p <> t.config.party && Option.is_none t.peers.(p) then missing := p :: !missing
  done;
  !missing

(* How long a job waits for this daemon's mesh: a peer may still be
   dialing (the dial retries for [dial_timeout]), but a job must not
   sit out a long round timeout for a peer that is gone. *)
let mesh_deadline t =
  Unix.gettimeofday () +. Float.min t.config.dial_timeout (Float.min 10. t.config.round_timeout)

(* Wait for the mesh without holding the loop: re-check on a short
   reactor timer until complete or the deadline passes. *)
let await_mesh_async t ~deadline k =
  let rec check () =
    match mesh_complete t with
    | [] -> k (Ok ())
    | missing ->
      if Unix.gettimeofday () >= deadline then
        k
          (Error
             (Printf.sprintf "peer daemon%s %s not connected"
                (if List.length missing > 1 then "s" else "")
                (String.concat ", " (List.map Addr.party_name missing))))
      else ignore (Reactor.at t.reactor (Unix.gettimeofday () +. 0.02) check)
  in
  check ()

let reply_to client ~job reply =
  try send client (Serve_proto.Job_result { job; reply }) with Transport.Closed -> ()

(* The host's job pump: claim queued jobs while active slots are free
   and launch each as a task chain on the loop.  Runs on the loop
   thread; re-entered from every job conclusion and from a post after
   every accepted submission — the reactor replaces the fixed pool of
   [max_sessions] worker threads with this one loop. *)
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
    reply_to client ~job:client_job (Serve_proto.Failed { kind; detail });
    conclude ()
  in
  match Job.validate spec t.workload with
  | Error detail -> fail Serve_proto.Rejected detail
  | Ok () ->
    await_mesh_async t
      ~deadline:(mesh_deadline t)
      (function
        | Error detail -> fail Serve_proto.Peer_down detail
        | Ok () -> (
          let g = Atomic.fetch_and_add t.next_job 1 in
          match
            broadcast t (Serve_proto.Job_submit { job = g; spec });
            Job.build spec t.workload
          with
          | exception e ->
            broadcast t (Serve_proto.Job_cancel { job = g });
            let kind, detail = failure_of_exn e in
            fail kind detail
          | planned ->
            run_job_async t ~job:g ~spec planned ~on_done:(function
              | None -> (
                match Job.reply_of planned with
                | reply ->
                  Atomic.incr t.jobs_completed;
                  reply_to client ~job:client_job reply;
                  conclude ()
                | exception e ->
                  broadcast t (Serve_proto.Job_cancel { job = g });
                  let kind, detail = failure_of_exn e in
                  fail kind detail)
              | Some e ->
                (* Tear the job down everywhere, then answer typed. *)
                broadcast t (Serve_proto.Job_cancel { job = g });
                let _, all_sids = Job.seats ~job:g ~party:t.config.party planned in
                List.iter (fun sid -> Mux.abort t.mux ~sid) all_sids;
                let kind, detail = failure_of_exn e in
                fail kind detail)))

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
            | Some _ ->
              let _, all_sids = Job.seats ~job ~party:t.config.party planned in
              List.iter (fun sid -> Mux.abort t.mux ~sid) all_sids;
              fail ())))

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

(* --- shutdown ------------------------------------------------------------ *)

(* Runs on the shutdown thread.  The mesh links belong to the loop,
   which closes them once [stopped] ends [Reactor.run]. *)
let close_everything t =
  (match t.scrape with Some s -> (try Spe_obs.Scrape.stop s with _ -> ()) | None -> ());
  (match listen_addr t.config with
  | Spe_net.Transport.Socket.Unix_domain path -> (
    try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ -> ());
  (try Unix.close t.listener with Unix.Unix_error _ -> ());
  (* Each client's reader closes its own descriptor once it sees the
     EOF this causes. *)
  let clients = with_lock t.lock (fun () -> Hashtbl.fold (fun _ c acc -> c :: acc) t.clients []) in
  List.iter hang_up clients

let initiate_shutdown t =
  let first = with_lock t.lock (fun () ->
      if t.stopping then false
      else begin
        t.stopping <- true;
        true
      end)
  in
  if first then
    ignore
      (Thread.create
         (fun () ->
           (* Refuse the queued jobs with a typed reply, drain the
              running ones, then tear the connections down. *)
           let queued = Scheduler.stop t.scheduler in
           List.iter
             (fun { client; client_job; _ } ->
               Atomic.incr t.jobs_failed;
               reply_to client ~job:client_job
                 (Serve_proto.Failed
                    { kind = Serve_proto.Rejected; detail = "daemon shutting down" }))
             queued;
           let deadline = Unix.gettimeofday () +. 60. in
           ignore (Scheduler.drain t.scheduler ~deadline);
           let rec wait_provider () =
             if Atomic.get t.active_jobs > 0 && Unix.gettimeofday () < deadline then begin
               Thread.delay 0.01;
               wait_provider ()
             end
           in
           wait_provider ();
           close_everything t;
           with_lock t.lock (fun () -> t.stopped <- true);
           (* The loop may be parked with nothing left to do; a no-op
              post wakes it to observe [stopped] and exit. *)
           Reactor.post t.reactor ignore)
         ())

(* --- connection plumbing -------------------------------------------------- *)

(* One inbound mesh frame, sliced in place out of the link's read slab
   on the loop thread.  [false] (a malformed frame) kills the link. *)
let on_mesh_frame t buf off len =
  match Serve_proto.decode_slice buf off len with
  | exception Invalid_argument _ -> false
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
    initiate_shutdown t;
    true
  | Serve_proto.Hello _ | Serve_proto.Job_result _ | Serve_proto.Busy _ -> true

(* A link died (EOF, socket error or malformed frame).  If it was still
   the peer's current link, every session seated with that peer fails
   now; a replaced link's death changes nothing. *)
let link_died t ~peer =
  match t.peers.(peer) with
  | Some link when not (Link.alive link) ->
    t.peers.(peer) <- None;
    Mux.fail_peer t.mux ~peer
  | _ -> ()

(* On the loop thread, once the Hello exchange on [fd] is through: the
   peer joins the mesh.  [hellos_received] counts installed links, so
   [hellos_received = m] means the mesh is usable.  A descriptor past
   select's limit cannot join the loop; refusing it leaves the peer
   missing, which jobs then report as [Peer_down]. *)
let install_link t ~peer fd =
  let stopped = with_lock t.lock (fun () -> t.stopped) in
  if stopped || not (Reactor.selectable [ fd ]) then
    try Unix.close fd with Unix.Unix_error _ -> ()
  else begin
    let link =
      Link.create ~reactor:t.reactor ~stats:t.mesh ~on_frame:(on_mesh_frame t)
        ~on_close:(fun () -> link_died t ~peer)
        fd
    in
    let old = t.peers.(peer) in
    t.peers.(peer) <- Some link;
    Option.iter Link.close old;
    (* Session frames are encoded straight into the link's outbound
       slab and leave with the loop's next poll. *)
    Mux.set_writer t.mux ~peer (fun ~sid body ->
        Link.queue link (Serve_proto.session_frame_length body) (fun buf pos ->
            Serve_proto.put_session_frame buf pos ~sid body));
    Atomic.incr t.hellos_received
  end

let client_reader t ~id conn =
  let rec loop () =
    match (try Serve_proto.read conn.fd with _ -> None) with
    | None ->
      close_conn conn;
      with_lock t.lock (fun () -> Hashtbl.remove t.clients id)
    | Some frame ->
      (match frame with
      | Serve_proto.Job_submit { job; spec } ->
        if t.config.party <> 0 then
          reply_to conn ~job
            (Serve_proto.Failed
               {
                 kind = Serve_proto.Rejected;
                 detail = "only the host daemon accepts jobs";
               })
        else begin
          match Scheduler.submit t.scheduler { client = conn; client_job = job; spec } with
          | Scheduler.Accepted -> Reactor.post t.reactor (fun () -> pump t)
          | Scheduler.Busy { queued; max_queue } -> (
            try send conn (Serve_proto.Busy { job; queued; max_queue })
            with Transport.Closed -> ())
        end
      | Serve_proto.Shutdown -> initiate_shutdown t
      | Serve_proto.Session_frame _ | Serve_proto.Hello _ | Serve_proto.Job_result _
      | Serve_proto.Busy _ | Serve_proto.Job_cancel _ -> ());
      loop ()
  in
  loop ()

let my_hello t = Serve_proto.Hello
    { role = Serve_proto.Party t.config.party; version = Serve_proto.version;
      workload = t.wdigest }

(* One inbound connection, on a thread of its own so a silent or slow
   connection never holds the acceptor: its Hello must arrive within
   [dial_timeout].  A peer's socket then goes to the loop; a client's
   thread stays on as its reader. *)
let handshake t fd =
  let conn = conn_of fd in
  match Serve_proto.read ~deadline:(Unix.gettimeofday () +. t.config.dial_timeout) fd with
  | Some (Serve_proto.Hello { role = Serve_proto.Party peer; version; workload })
    when version = Serve_proto.version && peer >= 0 && peer <= m_of t
         && peer <> t.config.party && workload = t.wdigest -> (
    match send conn (my_hello t) with
    | () ->
      Atomic.incr t.hellos_sent;
      Reactor.post t.reactor (fun () -> install_link t ~peer fd)
    | exception Transport.Closed -> close_conn conn)
  | Some (Serve_proto.Hello { role = Serve_proto.Client; version; _ })
    when version = Serve_proto.version -> (
    Atomic.incr t.clients_accepted;
    match send conn (my_hello t) with
    | () ->
      let id = with_lock t.lock (fun () ->
          let id = t.next_client in
          t.next_client <- id + 1;
          Hashtbl.replace t.clients id conn;
          id)
      in
      client_reader t ~id conn
    | exception Transport.Closed -> close_conn conn)
  | _ | (exception _) -> close_conn conn

let accept_loop t () =
  (* Closing an fd does not wake a thread blocked in accept(2), so poll
     with select and re-check the stopping flag between waits. *)
  let rec await_readable () =
    if with_lock t.lock (fun () -> t.stopping) then None
    else
      match Unix.select [ t.listener ] [] [] 0.25 with
      | [], _, _ -> await_readable ()
      | _ -> Some ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> await_readable ()
      | exception Unix.Unix_error _ -> None
  in
  let rec loop () =
    match await_readable () with
    | None -> ()
    | Some () ->
    match Unix.accept t.listener with
    | fd, _ ->
      ignore (Thread.create (handshake t) fd);
      loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error _ ->
      if not (with_lock t.lock (fun () -> t.stopping)) then loop ()
    | exception _ -> ()
  in
  loop ()

let dial_peer t ~peer =
  let addr = Addr.sockaddr t.config.roster.(peer) in
  let deadline = Unix.gettimeofday () +. t.config.dial_timeout in
  let rec attempt () =
    let domain =
      match addr with Unix.ADDR_UNIX _ -> Unix.PF_UNIX | _ -> Unix.PF_INET
    in
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    match
      Unix.connect fd addr;
      Serve_proto.write fd (my_hello t);
      Atomic.incr t.hellos_sent;
      match Serve_proto.read ~deadline fd with
      | Some (Serve_proto.Hello { role = Serve_proto.Party p; version; workload })
        when p = peer && version = Serve_proto.version ->
        if workload <> t.wdigest then `Mismatch
        else begin
          Reactor.post t.reactor (fun () -> install_link t ~peer fd);
          `Done
        end
      | _ -> `Retry
    with
    | `Done -> Ok ()
    | `Mismatch ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "workload mismatch with %s (%s): daemons must load identical \
                         --graph/--log inputs"
           (Addr.party_name peer)
           (Addr.to_string t.config.roster.(peer)))
    | `Retry | (exception Unix.Unix_error _) | (exception Failure _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if Unix.gettimeofday () >= deadline then
        Error
          (Printf.sprintf "cannot reach %s at %s" (Addr.party_name peer)
             (Addr.to_string t.config.roster.(peer)))
      else if with_lock t.lock (fun () -> t.stopping) then Error "shutting down"
      else begin
        Thread.delay 0.1;
        attempt ()
      end
  in
  attempt ()

(* --- lifecycle ------------------------------------------------------------ *)

let start config workload =
  if Array.length config.roster < 3 then
    invalid_arg "Daemon.start: roster needs H and at least two providers";
  if config.party < 0 || config.party > Array.length config.roster - 1 then
    invalid_arg "Daemon.start: party outside the roster";
  if Array.length workload.Job.logs <> Array.length config.roster - 1 then
    invalid_arg "Daemon.start: one provider log per roster provider";
  Lazy.force
    (lazy (if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore));
  let addr = listen_addr config in
  (match addr with
  | Spe_net.Transport.Socket.Unix_domain path -> (
    try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ -> ());
  let sockaddr = Addr.sockaddr addr in
  let domain =
    match sockaddr with Unix.ADDR_UNIX _ -> Unix.PF_UNIX | _ -> Unix.PF_INET
  in
  let listener = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match addr with
  | Spe_net.Transport.Socket.Tcp _ -> Unix.setsockopt listener Unix.SO_REUSEADDR true
  | _ -> ());
  (try
     Unix.bind listener sockaddr;
     Unix.listen listener 64
   with e ->
     (try Unix.close listener with Unix.Unix_error _ -> ());
     raise e);
  let t =
    {
      config;
      workload;
      wdigest = Job.digest workload;
      mux = Mux.create ~self:config.party;
      reactor = Reactor.create ();
      lock = Mutex.create ();
      peers = Array.make (Array.length config.roster) None;
      mesh = Link.stats ();
      clients = Hashtbl.create 8;
      next_client = 0;
      scheduler = Scheduler.create ~max_queue:config.max_queue ~max_active:config.max_sessions ();
      next_job = Atomic.make 1;
      jobs = Hashtbl.create 16;
      listener;
      scrape = None;
      stopping = false;
      stopped = false;
      loop = ref None;
      acceptor = ref None;
      hellos_sent = Atomic.make 0;
      hellos_received = Atomic.make 0;
      clients_accepted = Atomic.make 0;
      active_jobs = Atomic.make 0;
      jobs_completed = Atomic.make 0;
      jobs_failed = Atomic.make 0;
      sessions_run = Atomic.make 0;
      epochs_released = Atomic.make 0;
      epoch_sessions_run = Atomic.make 0;
      last_epoch = Atomic.make (-1);
      rank_jobs_completed = Atomic.make 0;
      rank_iterations_run = Atomic.make 0;
      reports_lock = Mutex.create ();
      reports = [];
      reap = Queue.create ();
    }
  in
  t.acceptor := Some (Thread.create (accept_loop t) ());
  (* The loop thread: every daemon needs one — the host pumps jobs on
     it, providers run their seats on it.  A task that escapes with an
     exception must not kill the daemon (the blocking host caught
     per-job exceptions the same way), so re-enter the loop until
     shutdown. *)
  t.loop :=
    Some
      (Thread.create
         (fun () ->
           let until () = with_lock t.lock (fun () -> t.stopped) in
           let rec go () =
             match Reactor.run t.reactor ~until with
             | () -> ()
             | exception _ -> if not (until ()) then go ()
           in
           go ();
           (* The mesh links are the loop's to close. *)
           Array.iter (Option.iter Link.close) t.peers;
           Reactor.destroy t.reactor)
         ());
  (* Establish the mesh: dial every lower id (they dialed us if higher).
     Dial failures are fatal at start — a daemon that can never reach
     its peers should say so, not limp. *)
  let rec dial p =
    if p < config.party then (
      match dial_peer t ~peer:p with
      | Ok () -> dial (p + 1)
      | Error msg ->
        initiate_shutdown t;
        failwith msg)
  in
  dial 0;
  (match config.metrics_addr with
  | None -> ()
  | Some maddr -> t.scrape <- Some (Spe_obs.Scrape.start ~addr:(Addr.sockaddr maddr)
                                      ~render:(render_scrape t)));
  t

let stop t = initiate_shutdown t

let wait ?timeout t =
  let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) timeout in
  let rec poll () =
    if with_lock t.lock (fun () -> t.stopped) then begin
      (match !(t.acceptor) with Some th -> (try Thread.join th with _ -> ()) | None -> ());
      match !(t.loop) with Some th -> (try Thread.join th with _ -> ()) | None -> ()
    end
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

let report t =
  match with_lock t.reports_lock (fun () -> t.reports) with
  | [] -> None
  | reports -> Some (Metrics.merge (List.rev reports))
