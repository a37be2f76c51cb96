(* The submission side of spe-serve/2: what `spe links --connect` and
   `spe scores --connect` run.

   A client talks to the host daemon only — H coordinates the provider
   daemons over the mesh.  Jobs are pipelined: submit any number, then
   collect replies (which arrive in completion order, keyed by the
   client-chosen job id).  Every terminal state is typed: a result, a
   [Failed] with a failure kind, or [Busy] from admission control. *)

exception Connection_lost of string

(* A daemon answers the Hello from its accept path at once; one that
   accepts and stays silent is not a daemon to wait on forever. *)
let hello_timeout = 30.

(* Dial any daemon as a client: hello exchange, returning the socket
   and which party answered. *)
let rec dial ?(retry_for = 0.) (addr : Addr.t) =
  let deadline = Unix.gettimeofday () +. retry_for in
  let sockaddr = Addr.sockaddr addr in
  let domain =
    match sockaddr with Unix.ADDR_UNIX _ -> Unix.PF_UNIX | _ -> Unix.PF_INET
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  match
    Unix.connect fd sockaddr;
    Serve_proto.write fd
      (Serve_proto.Hello
         { role = Serve_proto.Client; version = Serve_proto.version; workload = 0 });
    Serve_proto.read ~deadline:(Unix.gettimeofday () +. hello_timeout) fd
  with
  | Some (Serve_proto.Hello { role = Serve_proto.Party p; version; _ })
    when version = Serve_proto.version ->
    (fd, p)
  | Some _ | None | (exception (Failure _ | Invalid_argument _)) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise
      (Connection_lost
         (Printf.sprintf "%s did not answer the spe-serve/2 hello" (Addr.to_string addr)))
  | exception Unix.Unix_error (err, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    if Unix.gettimeofday () < deadline then begin
      Thread.delay 0.1;
      dial ~retry_for:(deadline -. Unix.gettimeofday ()) addr
    end
    else
      raise
        (Connection_lost
           (Printf.sprintf "cannot connect to %s: %s" (Addr.to_string addr)
              (Unix.error_message err)))

type t = {
  fd : Unix.file_descr;
  wmx : Mutex.t;
  mutable next_job : int;
  mutable closed : bool;
}

let connect ?retry_for (addr : Addr.t) =
  let fd, party = dial ?retry_for addr in
  if party <> 0 then begin
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise
      (Connection_lost
         (Printf.sprintf "%s is %s, not the host daemon — point --connect at H"
            (Addr.to_string addr) (Addr.party_name party)))
  end;
  { fd; wmx = Mutex.create (); next_job = 0; closed = false }

let submit t spec =
  if t.closed then raise (Connection_lost "connection already closed");
  Mutex.lock t.wmx;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.wmx)
    (fun () ->
      let job = t.next_job in
      t.next_job <- job + 1;
      (try Serve_proto.write t.fd (Serve_proto.Job_submit { job; spec })
       with Unix.Unix_error (err, _, _) ->
         raise (Connection_lost (Unix.error_message err)));
      job)

type outcome =
  | Result of Serve_proto.reply
  | Busy of { queued : int; max_queue : int }

(* Block for the next reply frame, up to [deadline].  [None] = timed
   out; [Connection_lost] = the daemon went away (EOF or error). *)
let next_reply t ~deadline =
  let rec loop () =
    let remaining = deadline -. Unix.gettimeofday () in
    if remaining <= 0. then None
    else
      match Unix.select [ t.fd ] [] [] remaining with
      | [], _, _ -> None
      | _ -> (
        match
          try Serve_proto.read t.fd
          with Unix.Unix_error (err, _, _) ->
            raise (Connection_lost (Unix.error_message err))
        with
        | None -> raise (Connection_lost "the host daemon closed the connection")
        | Some (Serve_proto.Job_result { job; reply }) -> Some (job, Result reply)
        | Some (Serve_proto.Busy { job; queued; max_queue }) ->
          Some (job, Busy { queued; max_queue })
        | Some _ -> loop ())
  in
  loop ()

(* Submit every spec up front (pipelined), then collect all replies.
   Returns outcomes indexed by submission order. *)
let run_jobs t specs ~deadline =
  let jobs = List.map (fun spec -> submit t spec) specs in
  let n = List.length jobs in
  let base = match jobs with [] -> 0 | j :: _ -> j in
  let out = Array.make (max n 1) None in
  let remaining = ref n in
  while !remaining > 0 do
    match next_reply t ~deadline with
    | None ->
      raise
        (Connection_lost
           (Printf.sprintf "timed out with %d of %d job replies outstanding" !remaining n))
    | Some (job, outcome) ->
      let i = job - base in
      if i >= 0 && i < n && out.(i) = None then begin
        out.(i) <- Some outcome;
        decr remaining
      end
  done;
  List.filteri (fun i _ -> i < n) (Array.to_list out) |> List.map Option.get

let close t =
  if not t.closed then begin
    t.closed <- true;
    (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

(* Read the whole scrape document from a daemon's --metrics-addr. *)
let scrape (addr : Addr.t) = Spe_obs.Scrape.fetch ~addr:(Addr.sockaddr addr)

(* Ask one daemon to shut down and wait (up to [timeout]) for it to
   finish draining — the daemon closes our connection when done, so EOF
   is the completion signal. *)
let shutdown_daemon ?(timeout = 30.) (addr : Addr.t) =
  let fd, _party = dial addr in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (try Serve_proto.write fd Serve_proto.Shutdown
       with Unix.Unix_error (err, _, _) ->
         raise (Connection_lost (Unix.error_message err)));
      let deadline = Unix.gettimeofday () +. timeout in
      let rec await_eof () =
        let remaining = deadline -. Unix.gettimeofday () in
        if remaining <= 0. then false
        else
          match Unix.select [ fd ] [] [] remaining with
          | [], _, _ -> false
          | _ -> (
            match (try Serve_proto.read ~deadline fd with _ -> None) with
            | None -> true
            | Some _ -> await_eof ())
      in
      await_eof ())

(* Whether anything still accepts connections at [addr]: a daemon
   closes its listener before it confirms a shutdown, so a live
   listener means the daemon is still up. *)
let listening (addr : Addr.t) =
  let sockaddr = Addr.sockaddr addr in
  let domain =
    match sockaddr with Unix.ADDR_UNIX _ -> Unix.PF_UNIX | _ -> Unix.PF_INET
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> match Unix.connect fd sockaddr with () -> true | exception Unix.Unix_error _ -> false)

(* Graceful deployment shutdown: H first — no new jobs can then be
   racing the providers' teardown — then each provider in roster
   order.  A daemon counts as stopped only once its listener is gone:
   a lost connection or an early EOF while it still accepts is retried
   until the per-daemon timeout.  Returns the parties that failed to
   confirm. *)
let shutdown_roster ?(timeout = 30.) (roster : Addr.t array) =
  let stragglers = ref [] in
  Array.iteri
    (fun party addr ->
      let deadline = Unix.gettimeofday () +. timeout in
      let rec attempt () =
        let confirmed =
          match shutdown_daemon ~timeout:(Float.max 0.1 (deadline -. Unix.gettimeofday ())) addr with
          | confirmed -> confirmed
          | exception Connection_lost _ -> true
        in
        if confirmed && not (listening addr) then ()
        else if Unix.gettimeofday () >= deadline then stragglers := party :: !stragglers
        else begin
          Thread.delay 0.1;
          attempt ()
        end
      in
      attempt ())
    roster;
  List.rev !stragglers
