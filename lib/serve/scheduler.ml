(* The daemon's job scheduler: a bounded FIFO feeding a fixed worker
   pool, with typed admission control.

   [max_active] workers each loop [take]/[finish]; jobs past the active
   set wait in the queue; a submission finding the queue full is
   refused with `Busy — the caller turns that into the protocol's
   typed [Busy] reply, the backpressure signal a client can act on.
   All state is one mutex away; [take] polls (the stdlib Condition has
   no timed wait, and the poll interval is far below any job's
   runtime). *)

type 'a t = {
  lock : Mutex.t;
  queue : 'a Queue.t;
  max_active : int;
  max_queue : int;
  mutable active : int;
  mutable stopped : bool;
  (* Monotone counters for the scrape gauges. *)
  mutable submitted : int;
  mutable rejected : int;
  mutable completed : int;
}

type admission = Accepted | Busy of { queued : int; max_queue : int }

let create ?(max_queue = 64) ~max_active () =
  if max_active < 1 then invalid_arg "Scheduler.create: max_active must be at least 1";
  if max_queue < 1 then invalid_arg "Scheduler.create: max_queue must be at least 1";
  {
    lock = Mutex.create ();
    queue = Queue.create ();
    max_active;
    max_queue;
    active = 0;
    stopped = false;
    submitted = 0;
    rejected = 0;
    completed = 0;
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let submit t job =
  with_lock t (fun () ->
      if t.stopped then begin
        t.rejected <- t.rejected + 1;
        Busy { queued = Queue.length t.queue; max_queue = t.max_queue }
      end
      else if Queue.length t.queue >= t.max_queue then begin
        t.rejected <- t.rejected + 1;
        Busy { queued = Queue.length t.queue; max_queue = t.max_queue }
      end
      else begin
        t.submitted <- t.submitted + 1;
        Queue.push job t.queue;
        Accepted
      end)

let poll_interval = 0.002

(* Blocks until a job is available or the scheduler stops; the worker
   owns an active slot from a [Some] return until it calls [finish]. *)
let rec take t =
  let r =
    with_lock t (fun () ->
        if t.stopped then `Stop
        else
          match Queue.take_opt t.queue with
          | Some job ->
            t.active <- t.active + 1;
            `Job job
          | None -> `Wait)
  in
  match r with
  | `Stop -> None
  | `Job job -> Some job
  | `Wait ->
    Thread.delay poll_interval;
    take t

(* Non-blocking claim for the reactor host: a job only when one is
   queued AND an active slot is free — the reactor's pump loop calls
   this until it returns [None], so [max_active] bounds the jobs in
   flight without a fixed worker pool to embody the bound. *)
let take_opt t =
  with_lock t (fun () ->
      if t.stopped || t.active >= t.max_active then None
      else
        match Queue.take_opt t.queue with
        | Some job ->
          t.active <- t.active + 1;
          Some job
        | None -> None)

let finish t =
  with_lock t (fun () ->
      t.active <- t.active - 1;
      t.completed <- t.completed + 1)

(* Stop admitting and wake the workers; the still-queued jobs are
   returned so the daemon can refuse each with a typed reply. *)
let stop t =
  with_lock t (fun () ->
      t.stopped <- true;
      let drained = List.of_seq (Queue.to_seq t.queue) in
      Queue.clear t.queue;
      drained)

(* Wait until every active job has called [finish] (used on shutdown
   drain); returns false on deadline. *)
let rec drain t ~deadline =
  if with_lock t (fun () -> t.active = 0) then true
  else if Unix.gettimeofday () >= deadline then false
  else begin
    Thread.delay poll_interval;
    drain t ~deadline
  end

let depth t = with_lock t (fun () -> Queue.length t.queue)
let active t = with_lock t (fun () -> t.active)
let max_active t = t.max_active
let max_queue t = t.max_queue

type stats = { submitted : int; rejected : int; completed : int }

let stats t =
  with_lock t (fun () ->
      { submitted = t.submitted; rejected = t.rejected; completed = t.completed })
