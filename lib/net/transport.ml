exception Closed
exception Descriptor_limit

type t = {
  self : int;
  peers : int;
  send : int -> bytes -> unit;
  send_many : int -> bytes list -> unit;
  try_recv : unit -> bytes option;
  set_notify : (unit -> unit) -> unit;
  close : unit -> unit;
  sent_bytes : unit -> int;
}

(* Endpoints are identified by group index at this layer; traces use
   ["#i"] labels since the transport does not know the party names. *)
let index_label i = Printf.sprintf "#%d" i

(* The per-endpoint inbox of a reactor group or mux session.
   Single-threaded: the reactor loop is the only reader and the only
   writer, so no lock — only the notify hook, which posts the owning
   machine's wake task.  A closed inbox still hands out the frames it
   already holds. *)
module Inbox = struct
  type t = { q : bytes Queue.t; mutable closed : bool; mutable notify : (unit -> unit) option }

  let create () = { q = Queue.create (); closed = false; notify = None }
  let set_notify ib f = ib.notify <- Some f
  let notify ib = match ib.notify with Some f -> f () | None -> ()

  (* Enqueue without waking: callers notify once per burst. *)
  let push ib body = if not ib.closed then Queue.push body ib.q

  let try_pop ib =
    if ib.closed && Queue.is_empty ib.q then raise Closed;
    Queue.take_opt ib.q

  let close ib =
    ib.closed <- true;
    notify ib
end

(* The state every reactor group shares: one inbox and one byte
   counter per endpoint, the fault policy, and the close flag. *)
type group = {
  reactor : Reactor.t;
  fault : Fault.t;
  trace : Spe_obs.Trace.t;
  m : int;
  inboxes : Inbox.t array;
  counters : int array;
  mutable closed : bool;
}

let make_group ~reactor ~fault ~trace ~m =
  {
    reactor;
    fault;
    trace;
    m;
    inboxes = Array.init m (fun _ -> Inbox.create ());
    counters = Array.make m 0;
    closed = false;
  }

let charge g self cost =
  g.counters.(self) <- g.counters.(self) + cost;
  Spe_obs.Trace.count g.trace ~party:(index_label self) Spe_obs.Trace.Transport_bytes cost

(* One outbound frame through the fault policy, identically on every
   backend: the frame is charged {e before} the decision (a dropped
   frame still counts as transmitted, so the framing closed form
   survives faults), then [deliver] runs once, never, twice (a
   [Duplicate] is charged twice), or once after a [Delay] hold on a
   reactor timer — the injection point lives on the loop the machines
   run on, and a late frame for a group closed meanwhile is
   swallowed. *)
let classify g ~self ~dst ~deliver ~deliver_late body =
  let label = index_label self in
  let note fmt =
    Printf.ksprintf
      (fun s -> if Spe_obs.Trace.enabled g.trace then Spe_obs.Trace.note g.trace ~party:label s)
      fmt
  in
  let cost = Frame.length_prefix_bytes + Bytes.length body in
  charge g self cost;
  match Fault.decide g.fault ~src:self ~dst with
  | Fault.Deliver -> deliver body
  | Fault.Drop ->
    Spe_obs.Trace.count g.trace ~party:label Spe_obs.Trace.Faults_dropped 1;
    note "fault.drop ->#%d" dst
  | Fault.Delay d ->
    Spe_obs.Trace.count g.trace ~party:label Spe_obs.Trace.Faults_delayed 1;
    note "fault.delay %.3fs ->#%d" d dst;
    ignore
      (Reactor.at g.reactor
         (Unix.gettimeofday () +. d)
         (fun () -> if not g.closed then deliver_late body))
  | Fault.Duplicate ->
    (* The copy crosses the wire too; the receiver's dedup keyed on
       (sender, round, seq) absorbs the repeat. *)
    charge g self cost;
    note "fault.dup ->#%d" dst;
    deliver body;
    deliver body

(* Endpoint [self] of a group; [write dst bodies] is the backend's
   send path, called with a valid destination, an open group and at
   least one frame. *)
let endpoint g ~self ~write ~close =
  let send_many dst = function
    | [] -> ()
    | bodies ->
      if dst < 0 || dst >= g.m then invalid_arg "Transport.send: unknown peer";
      if g.closed then raise Closed;
      write dst bodies
  in
  {
    self;
    peers = g.m;
    send = (fun dst body -> send_many dst [ body ]);
    send_many;
    try_recv = (fun () -> Inbox.try_pop g.inboxes.(self));
    set_notify = Inbox.set_notify g.inboxes.(self);
    close;
    sent_bytes = (fun () -> g.counters.(self));
  }

let close_inboxes g =
  if not g.closed then begin
    g.closed <- true;
    Array.iter Inbox.close g.inboxes
  end

module Memory = struct
  let create_group ?(fault = Fault.none) ?(trace = Spe_obs.Trace.disabled ()) ~reactor ~m () =
    let g = make_group ~reactor ~fault ~trace ~m in
    let close () = close_inboxes g in
    Array.init m (fun self ->
        let write dst bodies =
          let ib = g.inboxes.(dst) in
          let before = Queue.length ib.Inbox.q in
          List.iter
            (classify g ~self ~dst ~deliver:(Inbox.push ib) ~deliver_late:(fun body ->
                 Inbox.push ib body;
                 Inbox.notify ib))
            bodies;
          if Queue.length ib.Inbox.q > before then Inbox.notify ib
        in
        endpoint g ~self ~write ~close)
end

module Socket = struct
  type address = Unix_domain of string | Tcp of string * int

  let sockaddr_of = function
    | Unix_domain path -> Unix.ADDR_UNIX path
    | Tcp (host, port) -> Unix.ADDR_INET (Unix.inet_addr_of_string host, port)

  let rec really_write fd buf off len =
    if len > 0 then begin
      let n = try Unix.write fd buf off len with Unix.Unix_error (Unix.EINTR, _, _) -> 0 in
      really_write fd buf (off + n) (len - n)
    end

  let write_frame fd body =
    let len = Bytes.length body in
    let prefixed = Bytes.create (Frame.length_prefix_bytes + len) in
    Bytes.set_int32_be prefixed 0 (Int32.of_int len);
    Bytes.blit body 0 prefixed Frame.length_prefix_bytes len;
    really_write fd prefixed 0 (Bytes.length prefixed)

  (* One blocking read.  Under a deadline the socket's receive timeout
     is the time left, so a silent peer cannot hold the reader past it. *)
  let read_some ?deadline fd buf off len =
    (match deadline with
    | None -> ()
    | Some d ->
      let left = d -. Unix.gettimeofday () in
      if left <= 0. then failwith "Transport.Socket: read deadline passed";
      (* A timeout that rounds to zero would mean "none". *)
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO (Float.max left 0.001));
    let rec go () =
      match Unix.read fd buf off len with
      | n -> n
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        failwith "Transport.Socket: read deadline passed"
    in
    go ()

  (* The body accumulates chunk by chunk, so a hostile length prefix
     costs only what the peer actually sends. *)
  let read_frame ?deadline fd =
    let chunk = Bytes.create 4096 in
    let rec prefix got =
      if got = Frame.length_prefix_bytes then true
      else
        match read_some ?deadline fd chunk got (Frame.length_prefix_bytes - got) with
        | 0 -> if got = 0 then false else failwith "Transport.Socket: truncated stream"
        | n -> prefix (got + n)
    in
    if not (prefix 0) then None
    else begin
      let len = Int32.to_int (Bytes.get_int32_be chunk 0) in
      if len < 0 then failwith "Transport.Socket: negative frame length";
      let body = Buffer.create (min len 4096) in
      while Buffer.length body < len do
        match read_some ?deadline fd chunk 0 (min 4096 (len - Buffer.length body)) with
        | 0 -> failwith "Transport.Socket: truncated stream"
        | n -> Buffer.add_subbytes body chunk 0 n
      done;
      if Option.is_some deadline then Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.;
      Some (Buffer.to_bytes body)
    end

  (* Writes to a peer that already shut its end down must surface as
     [Closed], not kill the process. *)
  let ignore_sigpipe =
    lazy (if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore)

  (* A byte window over a reusable backing buffer: valid bytes are
     [buf.(off) .. buf.(off + len - 1)].  Appends compact or grow in
     place, so the send path batches a loop turn's frames into one
     reused buffer (one write, no per-frame [Bytes.create]/[Bytes.concat]),
     and a connection's read path reuses one buffer for its whole life
     instead of [Bytes.cat]-ing a fresh copy per chunk. *)
  module Slab = struct
    type s = { mutable buf : Bytes.t; mutable off : int; mutable len : int }

    let create () = { buf = Bytes.create 4096; off = 0; len = 0 }

    let reserve s n =
      if s.off + s.len + n > Bytes.length s.buf then
        if s.len + n <= Bytes.length s.buf then begin
          (* Enough total room: slide the window back to the start. *)
          Bytes.blit s.buf s.off s.buf 0 s.len;
          s.off <- 0
        end
        else begin
          let cap = ref (max 4096 (Bytes.length s.buf)) in
          while !cap < s.len + n do
            cap := !cap * 2
          done;
          let buf = Bytes.create !cap in
          Bytes.blit s.buf s.off buf 0 s.len;
          s.buf <- buf;
          s.off <- 0
        end

    let consume s n =
      s.off <- s.off + n;
      s.len <- s.len - n;
      if s.len = 0 then s.off <- 0
  end

  module Link = struct
    type stats = {
      mutable frames_sent : int;
      mutable writes : int;
      mutable frames_received : int;
      mutable reads : int;
    }

    let stats () = { frames_sent = 0; writes = 0; frames_received = 0; reads = 0 }

    type t = {
      reactor : Reactor.t;
      fd : Unix.file_descr;
      mutable stats : stats;
      mutable max_frame : int;
      inbuf : Slab.s;
      out : Slab.s;
      on_frame : bytes -> int -> int -> bool;
      on_burst : unit -> unit;
      on_close : unit -> unit;
      mutable live : bool;
      mutable parked : bool;  (* writability continuation installed *)
    }

    let alive l = l.live
    let pending l = l.out.Slab.len
    let bound l n = l.max_frame <- n
    let count_into l stats = l.stats <- stats

    let close l =
      if l.live then begin
        l.live <- false;
        l.parked <- false;
        Reactor.forget_fd l.reactor l.fd;
        (try Unix.close l.fd with Unix.Unix_error _ -> ());
        l.on_close ()
      end

    (* The send-flush continuation: write as much pending output as the
       kernel will take; on a short write park a writability interest
       and resume there.  This is what lets every connection of a
       process share one thread without a full socket buffer
       deadlocking the loop. *)
    let rec flush l =
      let s = l.out in
      if l.live && s.Slab.len > 0 then begin
        match Unix.write l.fd s.Slab.buf s.Slab.off s.Slab.len with
        | n ->
          l.stats.writes <- l.stats.writes + 1;
          Slab.consume s n;
          if s.Slab.len > 0 then park l else unpark l
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
          park l
        | exception Unix.Unix_error _ ->
          (* The peer is gone: drop the pending output. *)
          Slab.consume s s.Slab.len;
          close l
      end
      else unpark l

    and park l =
      if l.live && not l.parked then begin
        l.parked <- true;
        Reactor.on_writable l.reactor l.fd (fun () -> flush l)
      end

    and unpark l =
      if l.parked then begin
        l.parked <- false;
        Reactor.clear_writable l.reactor l.fd
      end

    let queue l n write =
      if not l.live then raise Closed;
      let s = l.out in
      Slab.reserve s (Frame.length_prefix_bytes + n);
      let pos = s.Slab.off + s.Slab.len in
      Bytes.set_int32_be s.Slab.buf pos (Int32.of_int n);
      write s.Slab.buf (pos + Frame.length_prefix_bytes);
      s.Slab.len <- s.Slab.len + Frame.length_prefix_bytes + n;
      l.stats.frames_sent <- l.stats.frames_sent + 1;
      park l

    (* The read path: append whatever the kernel has into the slab,
       slice out every complete frame in place, and report the burst
       once. *)
    let on_read l =
      let s = l.inbuf in
      Slab.reserve s 65536;
      match Unix.read l.fd s.Slab.buf (s.Slab.off + s.Slab.len) 65536 with
      | 0 ->
        l.stats.reads <- l.stats.reads + 1;
        close l
      | nread ->
        l.stats.reads <- l.stats.reads + 1;
        s.Slab.len <- s.Slab.len + nread;
        let delivered = ref false in
        let rec slice () =
          if l.live && s.Slab.len >= Frame.length_prefix_bytes then begin
            let flen = Int32.to_int (Bytes.get_int32_be s.Slab.buf s.Slab.off) in
            if flen < 0 || flen > l.max_frame then close l
            else if s.Slab.len >= Frame.length_prefix_bytes + flen then begin
              l.stats.frames_received <- l.stats.frames_received + 1;
              let ok = l.on_frame s.Slab.buf (s.Slab.off + Frame.length_prefix_bytes) flen in
              Slab.consume s (Frame.length_prefix_bytes + flen);
              if ok then begin
                delivered := true;
                slice ()
              end
              else close l
            end
          end
        in
        slice ();
        if !delivered then l.on_burst ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> close l

    let create ~reactor ?(on_burst = ignore) ~on_frame ~on_close fd =
      Unix.set_nonblock fd;
      let l =
        {
          reactor;
          fd;
          stats = stats ();
          max_frame = max_int;
          inbuf = Slab.create ();
          out = Slab.create ();
          on_frame;
          on_burst;
          on_close;
          live = true;
          parked = false;
        }
      in
      Reactor.on_readable reactor fd (fun () -> on_read l);
      l
  end

  (* Every pair joined by a kernel socketpair: no listener, no dial,
     no handshake and no filesystem path.  The shard pool creates a
     fresh group per shard session, and at that rate an addressed
     rendezvous (~0.7 ms per group) would dominate the very latency
     overlap sharding exists to buy.  [fds.(i).(j)] is the descriptor
     endpoint [i] uses to exchange frames with endpoint [j]; each
     becomes a link whose frames land in endpoint [i]'s inbox. *)
  let reactor_group_local ?(fault = Fault.none) ?(trace = Spe_obs.Trace.disabled ())
      ~reactor ~m () =
    Lazy.force ignore_sigpipe;
    if m < 2 then
      invalid_arg "Transport.Socket.reactor_group_local: need at least two endpoints";
    let fds = Array.make_matrix m m None and opened = ref [] in
    let give_up () =
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !opened;
      raise Descriptor_limit
    in
    (try
       for j = 1 to m - 1 do
         for i = 0 to j - 1 do
           let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
           opened := a :: b :: !opened;
           fds.(i).(j) <- Some a;
           fds.(j).(i) <- Some b
         done
       done
     with Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) -> give_up ());
    if not (Reactor.selectable !opened) then give_up ();
    let g = make_group ~reactor ~fault ~trace ~m in
    let links =
      Array.mapi
        (fun owner ->
          let ib = g.inboxes.(owner) in
          Array.map
            (Option.map
               (Link.create ~reactor
                  ~on_frame:(fun buf off len ->
                    Inbox.push ib (Bytes.sub buf off len);
                    true)
                  ~on_burst:(fun () -> Inbox.notify ib)
                  ~on_close:ignore)))
        fds
    in
    let close () =
      if not g.closed then begin
        Array.iter (Array.iter (Option.iter Link.close)) links;
        close_inboxes g
      end
    in
    Array.init m (fun self ->
        (* Frames append, length-prefixed, straight into the link's
           pending-output slab: no intermediate copy. *)
        let deliver l body =
          let len = Bytes.length body in
          Link.queue l len (fun buf pos -> Bytes.blit body 0 buf pos len)
        in
        let write dst bodies =
          match links.(self).(dst) with
          | None -> invalid_arg "Transport.send: unknown peer"
          | Some l ->
            List.iter
              (classify g ~self ~dst ~deliver:(deliver l) ~deliver_late:(fun body ->
                   if Link.alive l then deliver l body))
              bodies
        in
        endpoint g ~self ~write ~close)
end
