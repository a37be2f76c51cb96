(* One poll loop per process.  See reactor.mli for the contract; the
   implementation notes here are about the three data structures and
   the wake protocol.

   - Ready queue: one mutex-guarded FIFO shared by on-loop and
     off-loop posters.  The loop drains it in snapshots: tasks posted
     while a snapshot runs wait for the next iteration, which is what
     makes interleaving between machines fair and deterministic.
   - Timers: a binary min-heap on (deadline, registration seq), so
     equal deadlines fire in registration order.  Cancellation marks
     the node dead and lets the pop skip it — O(1) cancel, no sifting
     — and swaps its task for [ignore] at once: a task closure holds
     its endpoint machine, and a dead node can sit in the heap until
     its deadline, minutes out.  A fired timer is retired the same
     way, so a vacated array slot only ever points at a node still in
     the heap or a spent one.
   - Descriptors: two fd-keyed tables (read/write interest).  select
     is fine at this repo's fan-in (a shard group is m·(m-1)
     descriptors, m ≤ a handful of parties), and it is the only
     portable readiness syscall in the OCaml stdlib.

   The self-pipe carries cross-thread wake-ups: [post] from a foreign
   thread writes one byte iff the loop is parked in select.  The byte
   is drained before dispatching, so a burst of posts costs one
   syscall. *)

type timer = {
  t_deadline : float;
  t_seq : int;
  mutable t_task : unit -> unit;
  mutable t_dead : bool;
}

module Heap = struct
  type t = { mutable a : timer array; mutable len : int }

  let create () = { a = [||]; len = 0 }

  let before x y =
    x.t_deadline < y.t_deadline || (x.t_deadline = y.t_deadline && x.t_seq < y.t_seq)

  let push h x =
    if h.len = Array.length h.a then begin
      let cap = max 16 (2 * h.len) in
      let a' = Array.make cap x in
      Array.blit h.a 0 a' 0 h.len;
      h.a <- a'
    end;
    h.a.(h.len) <- x;
    h.len <- h.len + 1;
    (* Sift up. *)
    let i = ref (h.len - 1) in
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      before h.a.(!i) h.a.(p)
    do
      let p = (!i - 1) / 2 in
      let tmp = h.a.(p) in
      h.a.(p) <- h.a.(!i);
      h.a.(!i) <- tmp;
      i := p
    done

  let peek h = if h.len = 0 then None else Some h.a.(0)

  let pop h =
    if h.len = 0 then None
    else begin
      let top = h.a.(0) in
      h.len <- h.len - 1;
      if h.len > 0 then begin
        h.a.(0) <- h.a.(h.len);
        (* Sift down. *)
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let s = ref !i in
          if l < h.len && before h.a.(l) h.a.(!s) then s := l;
          if r < h.len && before h.a.(r) h.a.(!s) then s := r;
          if !s = !i then continue := false
          else begin
            let tmp = h.a.(!s) in
            h.a.(!s) <- h.a.(!i);
            h.a.(!i) <- tmp;
            i := !s
          end
        done
      end;
      Some top
    end
end

type t = {
  lock : Mutex.t;  (* guards [ready], [parked], [destroyed] and the wake pipe's life *)
  ready : (unit -> unit) Queue.t;
  mutable parked : bool;  (* loop is (about to be) blocked in select *)
  mutable destroyed : bool;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  timers : Heap.t;
  mutable timer_seq : int;
  mutable live_timers : int;
  readers : (Unix.file_descr, unit -> unit) Hashtbl.t;
  writers : (Unix.file_descr, unit -> unit) Hashtbl.t;
  (* Gauges. *)
  iterations : int Atomic.t;
  fires : int Atomic.t;
}

let create () =
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  {
    lock = Mutex.create ();
    ready = Queue.create ();
    parked = false;
    destroyed = false;
    wake_r;
    wake_w;
    timers = Heap.create ();
    timer_seq = 0;
    live_timers = 0;
    readers = Hashtbl.create 16;
    writers = Hashtbl.create 16;
    iterations = Atomic.make 0;
    fires = Atomic.make 0;
  }

let wake_byte = Bytes.make 1 '!'

let post t task =
  Mutex.lock t.lock;
  if not t.destroyed then begin
    Queue.push task t.ready;
    if t.parked then begin
      t.parked <- false;
      (* Wake the loop while still holding the lock: [destroy] closes
         the pipe under it, so the byte can never land on a descriptor
         number the process has since reused for another connection.
         A full pipe already holds a pending wake-up; EAGAIN is fine. *)
      try ignore (Unix.write t.wake_w wake_byte 0 1) with Unix.Unix_error _ -> ()
    end
  end;
  Mutex.unlock t.lock

let destroy t =
  Mutex.lock t.lock;
  if not t.destroyed then begin
    t.destroyed <- true;
    Queue.clear t.ready;
    (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
    try Unix.close t.wake_w with Unix.Unix_error _ -> ()
  end;
  Mutex.unlock t.lock

let at t deadline task =
  let tm = { t_deadline = deadline; t_seq = t.timer_seq; t_task = task; t_dead = false } in
  t.timer_seq <- t.timer_seq + 1;
  Heap.push t.timers tm;
  t.live_timers <- t.live_timers + 1;
  tm

let cancel t tm =
  if not tm.t_dead then begin
    tm.t_dead <- true;
    tm.t_task <- ignore;
    t.live_timers <- t.live_timers - 1
  end

let on_readable t fd k = Hashtbl.replace t.readers fd k
let on_writable t fd k = Hashtbl.replace t.writers fd k
let clear_readable t fd = Hashtbl.remove t.readers fd
let clear_writable t fd = Hashtbl.remove t.writers fd

let forget_fd t fd =
  clear_readable t fd;
  clear_writable t fd

(* [Unix.select] refuses the whole call with EINVAL when any
   descriptor number reaches FD_SETSIZE, before any syscall; a
   zero-timeout probe asks exactly the question [run] will. *)
let selectable fds =
  match Unix.select fds [] [] 0. with
  | _ -> true
  | exception Unix.Unix_error (Unix.EINVAL, _, _) -> false
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true

let iterations t = Atomic.get t.iterations
let timer_fires t = Atomic.get t.fires

let ready_depth t =
  Mutex.lock t.lock;
  let n = Queue.length t.ready in
  Mutex.unlock t.lock;
  n

let pending_timers t = t.live_timers
let watched_fds t = Hashtbl.length t.readers + Hashtbl.length t.writers

(* Pop every timer due at [now], skipping cancelled nodes.  The heap
   order is (deadline, seq), so the returned list is already the fire
   order. *)
let due_timers t now =
  let rec go acc =
    match Heap.peek t.timers with
    | Some tm when tm.t_dead ->
      ignore (Heap.pop t.timers);
      go acc
    | Some tm when tm.t_deadline <= now ->
      ignore (Heap.pop t.timers);
      go (tm :: acc)
    | _ -> List.rev acc
  in
  go []

(* A fired timer is spent exactly like a cancelled one, so a later
   [cancel] of its handle is the documented no-op and the task closure
   is released as it runs. *)
let fire t tm =
  if not tm.t_dead then begin
    let task = tm.t_task in
    cancel t tm;
    Atomic.incr t.fires;
    task ()
  end

let drain_wake_pipe t =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read t.wake_r buf 0 (Bytes.length buf) with
    | n when n > 0 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  go ()

(* One snapshot of the ready queue: tasks enqueued after the snapshot
   is taken wait for the next iteration. *)
let take_snapshot t =
  Mutex.lock t.lock;
  let n = Queue.length t.ready in
  let batch = List.init n (fun _ -> Queue.pop t.ready) in
  Mutex.unlock t.lock;
  batch

let run t ~until =
  while not (until ()) do
    Atomic.incr t.iterations;
    (* 1. Due timers, in (deadline, seq) order. *)
    List.iter (fire t) (due_timers t (Unix.gettimeofday ()));
    if not (until ()) then begin
      (* 2. One ready snapshot. *)
      let batch = take_snapshot t in
      List.iter (fun task -> task ()) batch;
      if not (until ()) then begin
        (* 3. Park in select until a descriptor, a timer deadline or a
           cross-thread post needs us.  With work already queued the
           timeout is zero — the select doubles as the fd poll. *)
        Mutex.lock t.lock;
        let queued = not (Queue.is_empty t.ready) in
        t.parked <- not queued;
        Mutex.unlock t.lock;
        let timeout =
          if queued then 0.
          else begin
            (* Drop leading cancelled timers so they don't shorten the
               park for nothing. *)
            let rec head () =
              match Heap.peek t.timers with
              | Some tm when tm.t_dead ->
                ignore (Heap.pop t.timers);
                head ()
              | x -> x
            in
            match head () with
            | Some tm -> max 0. (tm.t_deadline -. Unix.gettimeofday ())
            | None -> -1.
          end
        in
        let rfds = t.wake_r :: Hashtbl.fold (fun fd _ acc -> fd :: acc) t.readers [] in
        let wfds = Hashtbl.fold (fun fd _ acc -> fd :: acc) t.writers [] in
        let readable, writable =
          match Unix.select rfds wfds [] timeout with
          | r, w, _ -> (r, w)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
          | exception Unix.Unix_error (Unix.EBADF, _, _) ->
            (* A callback closed a descriptor without clearing its
               interest; sweep the stale registrations and retry on
               the next iteration. *)
            let stale tbl =
              Hashtbl.fold
                (fun fd _ acc ->
                  match Unix.fstat fd with
                  | _ -> acc
                  | exception Unix.Unix_error (Unix.EBADF, _, _) -> fd :: acc)
                tbl []
            in
            List.iter (Hashtbl.remove t.readers) (stale t.readers);
            List.iter (Hashtbl.remove t.writers) (stale t.writers);
            ([], [])
        in
        Mutex.lock t.lock;
        t.parked <- false;
        Mutex.unlock t.lock;
        List.iter
          (fun fd ->
            if fd = t.wake_r then drain_wake_pipe t
            else
              (* A previous callback this iteration may have dropped
                 the interest. *)
              match Hashtbl.find_opt t.readers fd with
              | Some k -> k ()
              | None -> ())
          readable;
        List.iter
          (fun fd ->
            match Hashtbl.find_opt t.writers fd with Some k -> k () | None -> ())
          writable
      end
    end
  done
