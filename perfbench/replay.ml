(* The traced run's in-process replay: the same job specs the deployment
   ran, executed layer by layer in the benchmark's own process, with a
   span around every layer call.  A span records its name, start, end,
   parent and job id, and the CPU this process used inside it; spans
   stay in memory and are written out at the end.  A span's self time
   is its duration minus the time its child spans cover.

   The per-layer figures are span CPU, not wall time: the ledger sets
   them against the daemons' CPU per job, and CPU leaves out the time
   the hypervisor steals. *)

module Proto = Spe_serve.Serve_proto
module Job = Spe_serve.Job
module Plan = Spe_core.Plan
module Endpoint = Spe_net.Endpoint
module Wire = Spe_mpc.Wire
module Log = Spe_actionlog.Log
module State = Spe_rng.State

type span = {
  id : int;
  name : string;
  job : int;
  parent : int option;
  start : float;
  stop : float;
  cpu : float;  (** Process CPU seconds used between start and stop. *)
}

let spans = ref []

let next_id = ref 0

let open_spans = ref []

let process_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let span ~job name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_spans with [] -> None | p :: _ -> Some p in
  open_spans := id :: !open_spans;
  let start = Unix.gettimeofday () and cpu0 = process_cpu () in
  Fun.protect
    ~finally:(fun () ->
      open_spans := List.tl !open_spans;
      let cpu = process_cpu () -. cpu0 in
      spans := { id; name; job; parent; start; stop = Unix.gettimeofday (); cpu } :: !spans)
    f

let duration s = s.stop -. s.start

let self_time s =
  let children =
    List.filter_map
      (fun c -> if c.parent = Some s.id then Some (Float.max c.start s.start, Float.min c.stop s.stop) else None)
      !spans
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = Float.max a reach in
        if b > a then (acc +. (b -. a), b) else (acc, reach))
      (0., neg_infinity) children
  in
  duration s -. covered

(* Mean over jobs of the per-job total CPU of the spans named [name]
   (a job may have several: one per build, one per stage). *)
let per_job name =
  let totals = Hashtbl.create 8 in
  List.iter
    (fun s ->
      if s.name = name then
        Hashtbl.replace totals s.job (s.cpu +. Option.value ~default:0. (Hashtbl.find_opt totals s.job)))
    !spans;
  let jobs = Hashtbl.length totals in
  if jobs = 0 then 0. else Hashtbl.fold (fun _ v acc -> acc +. v) totals 0. /. float_of_int jobs

(* Mean CPU of one span named [name]. *)
let mean name =
  match List.filter (fun s -> s.name = name) !spans with
  | [] -> 0.
  | l -> List.fold_left (fun acc s -> acc +. s.cpu) 0. l /. float_of_int (List.length l)

let write_spans path =
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"id\": %d, \"name\": %S, \"job\": %d, \"parent\": %s, \"start\": %.9f, \"end\": %.9f, \"self_s\": %.9f, \"cpu_s\": %.9f}\n"
        (if i = 0 then "  " else ", ")
        s.id s.name s.job
        (match s.parent with None -> "null" | Some p -> string_of_int p)
        s.start s.stop (self_time s) s.cpu)
    (List.rev !spans);
  output_string oc "]\n";
  close_out oc

(* --- one job, layer by layer ----------------------------------------------- *)

type counts = { sessions : int; rounds : int; messages : int; payload_bytes : int }

(* Compute-friendly timeouts like the daemons': a party decrypting a
   bundle looks exactly like a slow peer. *)
let endpoint_config = { Endpoint.default_config with Endpoint.round_timeout = 300.; linger = 310. }

(* Sessions in flight per stage on the in-process engines.  Unbounded,
   a stream job's recompute stage opens more socketpairs than select's
   FD_SETSIZE of 1024, and the reactor's select fails with EINVAL; a
   daemon multiplexes its seats over the mesh and never gets there. *)
let workers = 64

(* The log ingestion of a stream job: its seeded arrivals, replayed
   epoch by epoch into windowed accumulators, as every daemon does at
   plan-build time. *)
let ingest (wl : Job.workload) (spec : Proto.spec) ~pairs =
  let num_actions = Array.fold_left (fun acc l -> max acc (Log.num_actions l)) 0 wl.Job.logs in
  let num_users = Spe_graph.Digraph.n wl.Job.graph in
  let window = if spec.Proto.window > 0 then Some spec.Proto.window else None in
  Array.iteri
    (fun k log ->
      let source =
        Spe_actionlog.Source.create
          (State.create ~seed:(spec.Proto.seed + 101 + k) ())
          log ~rate:spec.Proto.rate ~burstiness:spec.Proto.burstiness ~jitter:spec.Proto.jitter ()
      in
      let acc = Spe_influence.Stream.create ?window ~num_users ~num_actions ~h:spec.Proto.h ~pairs () in
      for e = 0 to spec.Proto.epochs - 1 do
        List.iter
          (fun (r : Log.record) ->
            Spe_influence.Stream.advance acc ~now:(max (Spe_influence.Stream.now acc) r.Log.time);
            Spe_influence.Stream.add acc r)
          (Spe_actionlog.Source.take_until source ~arrival:((e + 1) * spec.Proto.epoch_ticks));
        ignore (Spe_influence.Stream.snapshot acc);
        Spe_influence.Stream.clear_dirty acc
      done)
    wl.Job.logs

let stages_plan planned = Plan.make ~shards:1 ~stages:(Job.stages planned) ~result:ignore

(* Replay one job.  The plan is built three times (a plan runs once),
   for the simulated wire, the socket engine and the memory engine;
   all three replies must agree bit for bit with each other and with
   the deployment's reply for the same spec.  The influence layer is
   timed only where the job uses it: [Counters.compute] for links jobs,
   stream ingestion for stream jobs; the other workloads report 0. *)
let job (wl : Job.workload) ~job:id ~expected (spec : Proto.spec) =
  span ~job:id "job" (fun () ->
      let build () = span ~job:id "serve.plan_build" (fun () -> Job.build spec wl) in
      let planned = build () in
      let plan = stages_plan planned in
      let wire = Wire.create () in
      span ~job:id "mpc.sim_run" (fun () -> Spe_mpc.Session.run (Plan.to_session plan) ~wire);
      let reply = span ~job:id "serve.merge" (fun () -> Job.reply_of planned) in
      (match planned with
      | Job.Links_plan p ->
        let pairs = (p.Plan.result ()).Spe_core.Protocol4.pairs in
        span ~job:id "influence.counters" (fun () ->
            Array.iter (fun l -> ignore (Spe_influence.Counters.compute l ~h:spec.Proto.h ~pairs)) wl.Job.logs)
      | Job.Stream_plan { delta; _ } ->
        span ~job:id "influence.ingest" (fun () -> ingest wl spec ~pairs:(Spe_core.Delta.pairs delta))
      | Job.Scores_plan _ | Job.Rank_plan _ -> ());
      let on_engine name run =
        let planned = build () in
        List.iter
          (fun (stage : Plan.stage) -> span ~job:id name (fun () -> run stage.Plan.sessions))
          (Job.stages planned);
        Job.reply_of planned
      in
      let socket =
        on_engine "net.socket_run" (fun s -> ignore (Endpoint.run_sessions_socket ~config:endpoint_config ~workers s))
      in
      let memory =
        on_engine "net.memory_run" (fun s -> ignore (Endpoint.run_sessions_memory ~config:endpoint_config ~workers s))
      in
      let stats = Wire.stats wire in
      let counts =
        {
          sessions =
            List.fold_left (fun acc (st : Plan.stage) -> acc + Array.length st.Plan.sessions) 0 (Job.stages planned);
          rounds = Plan.total_rounds plan;
          messages = stats.Wire.messages;
          payload_bytes = stats.Wire.bits / 8;
        }
      in
      let agree =
        if socket <> reply || memory <> reply then Error "engines disagree on the replayed reply"
        else if expected <> Some reply then Error "replay differs from the deployment's reply"
        else Ok ()
      in
      (counts, agree))

(* --- crypto ------------------------------------------------------------------ *)

type crypto = { ciphertexts : int; keygen_s : float; encrypt_s : float; decrypt_s : float }

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The Cipher facade at the scores jobs' scheme and key size; only the
   scores workload runs Protocol 6, so only it has ciphertexts. *)
let crypto (w : Workload.t) (wl : Job.workload) (spec : Proto.spec) =
  let module Cipher = Spe_crypto.Cipher in
  let module P6 = Spe_core.Protocol6 in
  let scheme = P6.default_config.P6.scheme in
  let key_bits = Workload.scores_spec.Proto.key_bits in
  let keygen i () =
    let s = State.create ~seed:(spec.Proto.seed + i) () in
    match scheme with P6.Rsa -> Cipher.rsa s ~bits:key_bits | P6.Paillier -> Cipher.paillier s ~bits:key_bits
  in
  let timed f =
    let c0 = process_cpu () in
    let v = f () in
    (process_cpu () -. c0, v)
  in
  let keys = List.init 5 (fun i -> timed (fun () -> span ~job:(-1) "crypto.keygen" (keygen i))) in
  let cipher = snd (List.hd keys) in
  let ops = 400 in
  let plains = Array.init ops (fun i -> (i * 7919) land 0xFFFF) in
  let enc_s, cts =
    timed (fun () ->
        span ~job:(-1) "crypto.encrypt" (fun () -> Array.map cipher.Cipher.public.Cipher.encrypt_int plains))
  in
  let dec_s, back =
    timed (fun () -> span ~job:(-1) "crypto.decrypt" (fun () -> Array.map cipher.Cipher.decrypt_int cts))
  in
  if back <> plains then failwith "Cipher round trip failed";
  let ciphertexts =
    if w.Workload.kind <> Workload.Scores then 0
    else
      let config = { P6.default_config with P6.key_bits = spec.Proto.key_bits; pack_slots = spec.Proto.pack_slots } in
      (span ~job:(-1) "core.protocol6" (fun () ->
           P6.run (State.create ~seed:spec.Proto.seed ()) ~wire:(Wire.create ()) ~graph:wl.Job.graph
             ~logs:wl.Job.logs config))
        .P6.ciphertexts
  in
  {
    ciphertexts;
    keygen_s = median (List.map fst keys);
    encrypt_s = enc_s /. float_of_int ops;
    decrypt_s = dec_s /. float_of_int ops;
  }
