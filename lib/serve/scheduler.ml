(* The host daemon's job scheduler: a bounded FIFO with typed admission
   control, driven from H's reactor loop.

   [take_opt] claims an active slot for the next queued job while fewer
   than [max_active] are held, [finish] releases it; jobs past the
   active set wait in the queue; a submission finding the queue full is
   refused with `Busy — the caller turns that into the protocol's
   typed [Busy] reply, the backpressure signal a client can act on.
   Loop-thread only: the scrape gauges read the counters from another
   thread and may see them lag. *)

type 'a t = {
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

let create ~max_queue ~max_active =
  if max_active < 1 then invalid_arg "Scheduler.create: max_active must be at least 1";
  if max_queue < 1 then invalid_arg "Scheduler.create: max_queue must be at least 1";
  {
    queue = Queue.create ();
    max_active;
    max_queue;
    active = 0;
    stopped = false;
    submitted = 0;
    rejected = 0;
    completed = 0;
  }

let submit t job =
  if t.stopped || Queue.length t.queue >= t.max_queue then begin
    t.rejected <- t.rejected + 1;
    Busy { queued = Queue.length t.queue; max_queue = t.max_queue }
  end
  else begin
    t.submitted <- t.submitted + 1;
    Queue.push job t.queue;
    Accepted
  end

let take_opt t =
  if t.stopped || t.active >= t.max_active then None
  else
    match Queue.take_opt t.queue with
    | Some job ->
      t.active <- t.active + 1;
      Some job
    | None -> None

let finish t =
  t.active <- t.active - 1;
  t.completed <- t.completed + 1

(* Stop admitting; the still-queued jobs are returned so the daemon can
   refuse each with a typed reply. *)
let stop t =
  t.stopped <- true;
  let queued = List.of_seq (Queue.to_seq t.queue) in
  Queue.clear t.queue;
  queued

let depth t = Queue.length t.queue
let active t = t.active

type stats = { submitted : int; rejected : int; completed : int }

let stats (t : _ t) = { submitted = t.submitted; rejected = t.rejected; completed = t.completed }
