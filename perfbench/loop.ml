(* The client side: one [Spe_serve.Client] connection keeping a fixed
   number of jobs in flight in a closed loop, like an analyst's
   pipeline that waits for each reply before sending the next job. *)

module Proto = Spe_serve.Serve_proto
module Client = Spe_serve.Client

type job = {
  spec : Proto.spec;
  submitted : float;
  mutable finished : float;
  mutable reply : Proto.reply option;  (** [None]: no reply by the deadline. *)
}

type phase = {
  jobs : job list;  (** In submission order. *)
  t0 : float;  (** First submission. *)
  t1 : float;  (** Last reply, or the deadline that ended the phase. *)
  stalled : bool;  (** A job missed its deadline; the deployment must be stopped. *)
}

let failed kind detail = Proto.Failed { kind; detail }

(* Submit [next ()] whenever a slot frees up, until [seconds] have
   passed; then drain.  [on_reply n] runs as the [n]th reply arrives.
   A job whose reply has not come [deadline] seconds after submission
   ends the phase: it and every job still in flight get no reply, and
   the caller kills the deployment instead of waiting out the daemons'
   round timeout. *)
let run client ~next ~in_flight ~seconds ~deadline ~on_reply =
  let pending = Hashtbl.create 8 in
  let jobs = ref [] and replies = ref 0 in
  let submit () =
    let spec = next () in
    let job = { spec; submitted = Unix.gettimeofday (); finished = nan; reply = None } in
    Hashtbl.replace pending (Client.submit client spec) job;
    jobs := job :: !jobs
  in
  let t0 = Unix.gettimeofday () in
  let stop_at = t0 +. seconds in
  for _ = 1 to in_flight do
    submit ()
  done;
  let stalled = ref false in
  let give_up () =
    stalled := true;
    Hashtbl.iter (fun _ job -> job.finished <- job.submitted +. deadline) pending;
    Hashtbl.reset pending
  in
  while Hashtbl.length pending > 0 do
    let due = Hashtbl.fold (fun _ job acc -> Float.min acc (job.submitted +. deadline)) pending infinity in
    match Client.next_reply client ~deadline:due with
    | None -> give_up ()
    | exception Client.Connection_lost _ -> give_up ()
    | Some (id, outcome) -> (
      match Hashtbl.find_opt pending id with
      | None -> ()
      | Some job ->
        Hashtbl.remove pending id;
        job.finished <- Unix.gettimeofday ();
        job.reply <-
          Some
            (match outcome with
            | Client.Result reply -> reply
            | Client.Busy _ -> failed Proto.Busy_queue "refused by admission control");
        incr replies;
        on_reply !replies;
        if job.finished < stop_at then submit ())
  done;
  let jobs = List.rev !jobs in
  let t1 = List.fold_left (fun acc j -> Float.max acc j.finished) t0 jobs in
  { jobs; t0; t1; stalled = !stalled }

(* Submit-to-reply latency; a job without a verified reply counts as
   its deadline. *)
let latency ~deadline ~ok job = if ok then job.finished -. job.submitted else deadline
