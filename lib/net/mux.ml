(* Session-multiplexed transports over a persistent connection mesh.

   One [Mux.t] lives in each Spe_serve daemon.  The daemon's connection
   layer registers one writer per peer daemon and feeds every inbound
   session-tagged frame to [deliver]; [open_session] then hands an
   ordinary [Transport.t] for one seat of one session to
   [Endpoint.run_party_async], so the whole barrier/Nack/timeout
   machinery runs unchanged over connections that outlive any single
   session.

   Concurrency: none.  The daemon's mesh links, its job tasks and every
   seat run on its one reactor thread, so the tables and the session
   inboxes are single-threaded.  Only the session count is read from
   elsewhere (the scrape thread), through an atomic. *)

module Inbox = Transport.Inbox

type entry = {
  inbox : Inbox.t;
      (** A closed inbox still hands out its queued frames, because a
          seat may complete from frames that arrived before its peer's
          connection died. *)
  mutable session_peers : int array;
      (** Daemon ids by group index; [[||]] while the entry only buffers
          early frames for a session not yet opened here. *)
}

type t = {
  self : int;  (** This daemon's id. *)
  sessions : (int, entry) Hashtbl.t;  (* sid -> live or pending entry *)
  finished : (int, unit) Hashtbl.t;  (* closed/aborted sids: drop late frames *)
  writers : (int, sid:int -> bytes -> unit) Hashtbl.t;  (* peer daemon id -> writer *)
  live : int Atomic.t;  (* [Hashtbl.length sessions], for the scrape thread *)
}

let create ~self =
  {
    self;
    sessions = Hashtbl.create 64;
    finished = Hashtbl.create 64;
    writers = Hashtbl.create 8;
    live = Atomic.make 0;
  }

let add_entry t sid e =
  Hashtbl.replace t.sessions sid e;
  Atomic.set t.live (Hashtbl.length t.sessions)

let remove_entry t sid =
  Hashtbl.remove t.sessions sid;
  Atomic.set t.live (Hashtbl.length t.sessions)

let set_writer t ~peer writer = Hashtbl.replace t.writers peer writer

(* The peer's connection died: any session seated with it can never
   complete, so close those inboxes — the seats see [Transport.Closed]
   promptly instead of waiting out their round timeouts — and drop the
   writer so later sends fail fast too. *)
let fail_peer t ~peer =
  Hashtbl.remove t.writers peer;
  Hashtbl.iter
    (fun _ entry -> if Array.mem peer entry.session_peers then Inbox.close entry.inbox)
    t.sessions

let deliver t ~sid body =
  if not (Hashtbl.mem t.finished sid) then begin
    let e =
      match Hashtbl.find_opt t.sessions sid with
      | Some e -> e
      | None ->
        (* The peer opened the session first; buffer until our seat
           arrives and adopts the inbox. *)
        let e = { inbox = Inbox.create (); session_peers = [||] } in
        add_entry t sid e;
        e
    in
    Inbox.push e.inbox body;
    Inbox.notify e.inbox
  end

(* Abort a session this daemon may never have opened (job cancelled by
   the coordinator): close any buffered inbox and make both a later
   [open_session] and late retransmits dead on arrival. *)
let abort t ~sid =
  Hashtbl.replace t.finished sid ();
  match Hashtbl.find_opt t.sessions sid with
  | None -> ()
  | Some e ->
    remove_entry t sid;
    Inbox.close e.inbox

let open_session t ~sid ~peers =
  let m = Array.length peers in
  let self_index =
    let rec go j =
      if j >= m then invalid_arg "Mux.open_session: self not seated in session"
      else if peers.(j) = t.self then j
      else go (j + 1)
    in
    go 0
  in
  if Hashtbl.mem t.finished sid then raise Transport.Closed;
  let entry =
    match Hashtbl.find_opt t.sessions sid with
    | Some e ->
      if Array.length e.session_peers > 0 then
        invalid_arg (Printf.sprintf "Mux.open_session: session %d already open" sid);
      e.session_peers <- peers;
      e
    | None ->
      let e = { inbox = Inbox.create (); session_peers = peers } in
      add_entry t sid e;
      e
  in
  let sent = ref 0 in
  let closed = ref false in
  let writer_to j =
    if j < 0 || j >= m then invalid_arg "Transport.send: unknown peer";
    if j = self_index then invalid_arg "Transport.send: self-send";
    match Hashtbl.find_opt t.writers peers.(j) with
    | Some w -> w
    | None -> raise Transport.Closed
  in
  let send_many j bodies =
    if bodies <> [] then begin
      if !closed then raise Transport.Closed;
      let w = writer_to j in
      List.iter
        (fun body ->
          sent := !sent + Frame.length_prefix_bytes + Bytes.length body;
          w ~sid body)
        bodies
    end
  in
  let close () =
    if not !closed then begin
      closed := true;
      Hashtbl.replace t.finished sid ();
      remove_entry t sid;
      Inbox.close entry.inbox
    end
  in
  ( {
      Transport.self = self_index;
      peers = m;
      send = (fun j body -> send_many j [ body ]);
      send_many;
      try_recv = (fun () -> Inbox.try_pop entry.inbox);
      set_notify = Inbox.set_notify entry.inbox;
      close;
      sent_bytes = (fun () -> !sent);
    },
    self_index )

(* Gauges: safe from any thread. *)
let open_sessions t = Atomic.get t.live

(* The finished set only ever grows; a long-lived daemon trims it once
   a job's sids can no longer see late traffic. *)
let forget t ~sid = Hashtbl.remove t.finished sid
