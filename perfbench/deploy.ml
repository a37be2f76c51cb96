(* The production deployment shape, H plus two provider daemons, each a
   separate forked process that loads the input files the way
   `spe serve` does and calls [Daemon.start].  The parent steers every
   child over a pair of pipes, line by line:

     child -> parent   loaded | started | ready | unready
     parent -> child   start | stop

   [ready] is the readiness gate: the child reports it once its own
   [Daemon.gauges] show [hellos_received = m], a full mesh.  Without
   the gate a provider can get its first job before its mesh is
   complete; it then fails that job locally while H and the other
   provider wait out the 300 s round timeout (a defect of lib/serve,
   recorded in perfbench/NOTES.md). *)

module Daemon = Spe_serve.Daemon
module Client = Spe_serve.Client
module Addr = Spe_serve.Addr

(* --- child processes ------------------------------------------------------ *)

(* Every pid this process forked and has not reaped yet, and the pipe
   ends it holds towards them: a new child closes the latter, so a
   child sees EOF when the parent goes away. *)
let live = ref []

let parent_fds = ref []

let reap pid = live := List.filter (( <> ) pid) !live

let kill_and_reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  reap pid

let () = at_exit (fun () -> List.iter kill_and_reap !live)

(* Fork [body] as a child that never returns into the parent's code;
   the child first closes every pipe end the parent holds. *)
let fork body =
  flush_all ();
  match Unix.fork () with
  | 0 ->
    List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !parent_fds;
    live := [];
    let code =
      try
        body ();
        0
      with e ->
        prerr_endline ("spebench child: " ^ Printexc.to_string e);
        1
    in
    Unix._exit code
  | pid ->
    live := pid :: !live;
    pid

(* Wait for [pid] to exit by itself until [deadline], then kill it. *)
let await_exit pid ~deadline =
  let rec poll () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () >= deadline then kill_and_reap pid
      else begin
        Unix.sleepf 0.01;
        poll ()
      end
    | _ -> reap pid
    | exception Unix.Unix_error _ -> reap pid
  in
  poll ()

(* Line reader over a pipe with a deadline on every line. *)
type reader = { fd : Unix.file_descr; mutable pending : string }

let rec read_line r ~deadline =
  match String.index_opt r.pending '\n' with
  | Some i ->
    let line = String.sub r.pending 0 i in
    r.pending <- String.sub r.pending (i + 1) (String.length r.pending - i - 1);
    Some line
  | None -> (
    let wait = deadline -. Unix.gettimeofday () in
    if wait <= 0. then None
    else
      match Unix.select [ r.fd ] [] [] wait with
      | [], _, _ -> None
      | _ ->
        let buf = Bytes.create 4096 in
        let got = Unix.read r.fd buf 0 4096 in
        if got = 0 then None
        else begin
          r.pending <- r.pending ^ Bytes.sub_string buf 0 got;
          read_line r ~deadline
        end
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_line r ~deadline)

(* --- one daemon ------------------------------------------------------------ *)

let gate_timeout = 30.

let daemon_main ~party ~roster ~metrics_addr ~inputs ~cmd ~events () =
  let cmd = Unix.in_channel_of_descr cmd and events = Unix.out_channel_of_descr events in
  let say line =
    output_string events (line ^ "\n");
    flush events
  in
  let workload = Workload.load inputs in
  say "loaded";
  if input_line cmd = "start" then begin
    let config =
      { (Daemon.default_config ~party ~roster) with Daemon.max_sessions = 4; max_queue = 64; metrics_addr }
    in
    let d = Daemon.start config workload in
    say "started";
    let m = Array.length roster - 1 in
    let deadline = Unix.gettimeofday () +. gate_timeout in
    let rec gate () =
      if List.assoc "hellos_received" (Daemon.gauges d) >= m then say "ready"
      else if Unix.gettimeofday () > deadline then say "unready"
      else begin
        Thread.delay 0.001;
        gate ()
      end
    in
    gate ();
    (* "stop", or EOF when the parent is gone: shut down either way. *)
    (try ignore (input_line cmd) with End_of_file -> ());
    Daemon.stop d;
    Daemon.wait d
  end

type daemon = { party : int; pid : int; cmd : Unix.file_descr; events : reader }

type t = {
  daemons : daemon array;
  metrics : Addr.t array option;  (** Scrape endpoints of a traced deployment. *)
  client : Client.t;
}

let pids t = Array.map (fun d -> d.pid) t.daemons

let send d line =
  try ignore (Unix.write_substring d.cmd (line ^ "\n") 0 (String.length line + 1))
  with Unix.Unix_error _ -> ()

let expect d want ~deadline =
  match read_line d.events ~deadline with
  | Some line when line = want -> ()
  | Some line ->
    failwith (Printf.sprintf "%s said %S during set-up, expected %S" (Addr.party_name d.party) line want)
  | None ->
    failwith (Printf.sprintf "%s did not say %S within the set-up deadline" (Addr.party_name d.party) want)

let close_pipes d =
  List.iter
    (fun fd ->
      parent_fds := List.filter (( <> ) fd) !parent_fds;
      try Unix.close fd with Unix.Unix_error _ -> ())
    [ d.cmd; d.events.fd ]

let kill_all daemons =
  Array.iter
    (fun d ->
      kill_and_reap d.pid;
      close_pipes d)
    daemons

let kill t =
  Client.close t.client;
  kill_all t.daemons

(* Graceful: every daemon drains and exits; stragglers are killed. *)
let stop t =
  Client.close t.client;
  Array.iter (fun d -> send d "stop") t.daemons;
  let deadline = Unix.gettimeofday () +. 10. in
  Array.iter
    (fun d ->
      await_exit d.pid ~deadline;
      close_pipes d)
    t.daemons

let setup_timeout = 60.

(* Fork all three, which load their inputs from [dir] in parallel and
   listen on unix sockets there; then start them in roster order, so
   each daemon's mesh dials find the lower ids already listening
   instead of sleeping out the dial retry; then wait for the readiness
   gate at every daemon. *)
let start ~dir ~traced =
  let m = Workload.providers in
  let addr name = Spe_net.Transport.Socket.Unix_domain (Filename.concat dir name) in
  (* A traced and an untraced deployment can be up at once. *)
  let prefix = if traced then "t" else "d" in
  let roster = Array.init (m + 1) (fun p -> addr (Printf.sprintf "%s%d.sock" prefix p)) in
  let metrics = if traced then Some (Array.init (m + 1) (fun p -> addr (Printf.sprintf "m%d.sock" p))) else None in
  let daemons =
    Array.init (m + 1) (fun party ->
        let cmd_r, cmd_w = Unix.pipe () and ev_r, ev_w = Unix.pipe () in
        parent_fds := cmd_w :: ev_r :: !parent_fds;
        let metrics_addr = Option.map (fun a -> a.(party)) metrics in
        let pid =
          fork (daemon_main ~party ~roster ~metrics_addr ~inputs:dir ~cmd:cmd_r ~events:ev_w)
        in
        Unix.close cmd_r;
        Unix.close ev_w;
        { party; pid; cmd = cmd_w; events = { fd = ev_r; pending = "" } })
  in
  let deadline = Unix.gettimeofday () +. setup_timeout in
  match
    Array.iter (fun d -> expect d "loaded" ~deadline) daemons;
    Array.iter
      (fun d ->
        send d "start";
        expect d "started" ~deadline)
      daemons;
    Array.iter (fun d -> expect d "ready" ~deadline) daemons;
    Client.connect ~retry_for:5. roster.(0)
  with
  | client -> { daemons; metrics; client }
  | exception e ->
    kill_all daemons;
    raise e

(* The spe-metrics/2 report each daemon of a traced deployment serves. *)
let scrape_reports t =
  match t.metrics with
  | None -> []
  | Some addrs ->
    Array.to_list addrs
    |> List.filter_map (fun a ->
           let module Json = Spe_obs.Obs_io.Json in
           match Json.member "report" (Json.of_string (Client.scrape a)) with
           | Json.Null -> None
           | report -> Some (Spe_obs.Obs_io.report_of_json report))
