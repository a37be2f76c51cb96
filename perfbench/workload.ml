(* The three workloads, their generated inputs, the job specs sent to
   the deployment, and the checks every reply must pass.

   Seed rule: the benchmark's --seed fixes the generated graph and
   logs, and job i of a run gets the seed [job_seed ~seed i], distinct
   for every job of the run, so no two jobs share a plan (reusing a
   seed would reuse masks).  The daemons receive only the generated
   input files and the job specs. *)

module Proto = Spe_serve.Serve_proto
module Job = Spe_serve.Job
module State = Spe_rng.State
module Log = Spe_actionlog.Log
module Counters = Spe_influence.Counters
module Link_strength = Spe_influence.Link_strength

type kind = Links | Scores | Stream

type t = {
  name : string;
  kind : kind;
  users : int;
  edges : int;
  actions : int;
  probability : float;  (** Planted per-arc influence of the cascades. *)
  spec : Proto.spec;  (** Every job's spec but its seed. *)
}

let base = { Proto.default_spec with Proto.shards = 2 }

let links_spec = { base with Proto.pipeline = Proto.Links; h = 2; c_factor = 2.; modulus_bits = 40 }

let scores_spec =
  { base with Proto.pipeline = Proto.Scores; tau = 6; key_bits = 256; pack_slots = 1; modulus_bits = 20 }

let stream_spec =
  {
    links_spec with
    Proto.pipeline = Proto.Stream;
    epoch_ticks = 100;
    window = 3;
    epochs = 8;
    rate = 0.6;
    burstiness = 0.3;
    jitter = 2;
  }

let all =
  [
    { name = "serve-links"; kind = Links; users = 1000; edges = 5000; actions = 60;
      probability = 0.25; spec = links_spec };
    { name = "serve-scores"; kind = Scores; users = 30; edges = 120; actions = 8;
      probability = 0.25; spec = scores_spec };
    { name = "serve-stream"; kind = Stream; users = 300; edges = 1200; actions = 200;
      probability = 0.05; spec = stream_spec };
  ]

(* The self-test's sizes: every path of the full workload, in well under
   a second per job. *)
let tiny w =
  match w.kind with
  | Links -> { w with users = 60; edges = 240; actions = 10 }
  | Scores -> { w with users = 12; edges = 40; actions = 4; spec = { w.spec with Proto.key_bits = 128 } }
  | Stream -> { w with users = 40; edges = 160; actions = 8; spec = { w.spec with Proto.epochs = 3 } }

let find name = List.find_opt (fun w -> w.name = name) all

let job_seed ~seed i = (seed * 1_048_576) + i

let job_spec w ~seed i = { w.spec with Proto.seed = job_seed ~seed i }

(* --- inputs -------------------------------------------------------------- *)

let providers = 2

let graph_file dir = Filename.concat dir "graph.txt"

let log_files dir =
  Array.init providers (fun k -> Filename.concat dir (Printf.sprintf "provider-%d.log" (k + 1)))

(* Write the seeded inputs the way `spe generate` does: an ER graph and
   independent cascades over it.  The actions are split between the
   providers round-robin rather than at random: Protocol 6's bytes
   depend on how many actions each provider holds, and a random split
   of 8 actions would move them by a third from seed to seed. *)
let generate w ~seed ~dir =
  let s = State.create ~seed () in
  let g = Spe_graph.Generate.erdos_renyi_gnm s ~n:w.users ~m:w.edges in
  let planted = Spe_actionlog.Cascade.uniform_probabilities ~p:w.probability g in
  let log =
    Spe_actionlog.Cascade.generate s planted
      { Spe_actionlog.Cascade.num_actions = w.actions; seeds_per_action = 1; max_delay = 3 }
  in
  let parts = Spe_actionlog.Partition.exclusive_by_action log ~owner:(fun a -> a mod providers) ~m:providers in
  (* The stream reference assumes every record has arrived by the last
     epoch.  Bursty arrivals spread the last arrival widely: at a mean
     of 0.26 of the horizon, the latest of 20000 seeded sources arrived
     at 0.6 of it.  Refuse inputs whose mean exceeds 0.35 of it. *)
  if w.kind = Stream then
    Array.iter
      (fun part ->
        let horizon = w.spec.Proto.epochs * w.spec.Proto.epoch_ticks in
        if float_of_int (Log.size part) /. w.spec.Proto.rate > 0.35 *. float_of_int horizon then
          failwith (Printf.sprintf "%s: %d records cannot all arrive within %d ticks" w.name (Log.size part) horizon))
      parts;
  Spe_graph.Graph_io.save g (graph_file dir);
  Array.iteri (fun k part -> Spe_actionlog.Log_io.save part (log_files dir).(k)) parts

(* Load the inputs exactly as `spe serve` does. *)
let load dir =
  {
    Job.graph = Spe_graph.Graph_io.load (graph_file dir);
    logs = Array.map Spe_actionlog.Log_io.load (log_files dir);
  }

(* --- references ------------------------------------------------------------ *)

(* Plaintext strengths of the real arcs, sorted by arc. *)
let plaintext_strengths graph counters =
  Link_strength.restrict_to_graph counters (Link_strength.all_eq1 counters) graph
  |> List.sort compare |> Array.of_list

let arcs graph = Array.of_list (Spe_graph.Digraph.edges graph)

(* Per-provider counters summed: the providers' logs are exclusive by
   action, so this is what the secure aggregate reconstructs. *)
let summed_counters logs ~h ~pairs =
  Array.map (fun l -> Counters.compute l ~h ~pairs) logs
  |> Array.to_list
  |> function
  | [] -> invalid_arg "summed_counters"
  | c :: rest -> List.fold_left Counters.add c rest

(* The records of one provider inside its final sliding window: every
   record has arrived by the last epoch, so the accumulator's clock
   stands at the log's last record time. *)
let final_window log ~window =
  if window = 0 then log
  else
    let now = Log.max_time log in
    Log.of_records ~num_users:(Log.num_users log) ~num_actions:(Log.num_actions log)
      (List.filter (fun (r : Log.record) -> r.Log.time > now - window) (Log.records log))

type reference =
  | Strengths_ref of ((int * int) * float) array
  | Scores_ref of float array

(* Each reference depends on the inputs and the spec, not on the job
   seed, so it is computed once per run. *)
let reference w (wl : Job.workload) =
  let h = w.spec.Proto.h in
  match w.kind with
  | Links ->
    Strengths_ref (plaintext_strengths wl.Job.graph (summed_counters wl.Job.logs ~h ~pairs:(arcs wl.Job.graph)))
  | Scores ->
    Scores_ref
      (Spe_influence.Propagation.score
         (Spe_actionlog.Partition.reunify wl.Job.logs)
         wl.Job.graph ~tau:w.spec.Proto.tau)
  | Stream ->
    let window = w.spec.Proto.window in
    Strengths_ref
      (plaintext_strengths wl.Job.graph
         (summed_counters (Array.map (final_window ~window) wl.Job.logs) ~h ~pairs:(arcs wl.Job.graph)))

(* The masking tolerance: masked float shares of magnitude ~S cancel to
   about S * 2^-53 absolute noise on the counters. *)
let close expected got = abs_float (expected -. got) <= 1e-3 *. (expected +. 1.)

let check_strengths expected got =
  let got = Array.of_list (List.sort compare got) in
  if Array.length got <> Array.length expected then
    Error (Printf.sprintf "%d arcs, expected %d" (Array.length got) (Array.length expected))
  else
    let bad = ref None in
    Array.iteri
      (fun i (arc, p) ->
        let arc', p' = got.(i) in
        if !bad = None && (arc <> arc' || not (close p p')) then
          bad := Some (Printf.sprintf "arc (%d,%d): got %.9g, plaintext %.9g" (fst arc) (snd arc) p' p))
      expected;
    match !bad with None -> Ok () | Some e -> Error e

(* A reply against the plaintext reference. *)
let check w reference (reply : Proto.reply) =
  match (reference, reply) with
  | _, Proto.Failed { kind; detail } ->
    Error (Printf.sprintf "failed (%s): %s" (Proto.failure_kind_name kind) detail)
  | Strengths_ref expected, Proto.Strengths got when w.kind = Links -> check_strengths expected got
  | Strengths_ref expected, Proto.Stream_summary { digests; strengths; _ } when w.kind = Stream ->
    if Array.length digests <> w.spec.Proto.epochs then
      Error (Printf.sprintf "%d epoch releases, expected %d" (Array.length digests) w.spec.Proto.epochs)
    else check_strengths expected strengths
  | Scores_ref expected, Proto.Scores got ->
    if Array.length got <> Array.length expected then Error "score vector length"
    else (
      match List.find_opt (fun i -> not (close expected.(i) got.(i))) (List.init (Array.length got) Fun.id) with
      | None -> Ok ()
      | Some i -> Error (Printf.sprintf "score(%d): got %.9g, plaintext %.9g" i got.(i) expected.(i)))
  | _ -> Error "reply of the wrong pipeline"

(* The reply an in-process oracle computes for the same spec: the
   central Driver for links and scores, and for stream (which has no
   central form) the same plan run on the simulated wire. *)
let oracle_reply w (wl : Job.workload) (spec : Proto.spec) =
  let s = State.create ~seed:spec.Proto.seed () in
  let graph = wl.Job.graph and logs = wl.Job.logs in
  match w.kind with
  | Links ->
    let config =
      {
        (Spe_core.Protocol4.default_config ~h:spec.Proto.h) with
        Spe_core.Protocol4.c_factor = spec.Proto.c_factor;
        modulus = 1 lsl spec.Proto.modulus_bits;
      }
    in
    Proto.Strengths (Spe_core.Driver.link_strengths_exclusive s ~graph ~logs config).Spe_core.Driver.strengths
  | Scores ->
    let config =
      {
        Spe_core.Protocol6.default_config with
        Spe_core.Protocol6.key_bits = spec.Proto.key_bits;
        pack_slots = spec.Proto.pack_slots;
      }
    in
    Proto.Scores
      (Spe_core.Driver.user_scores_exclusive s ~graph ~logs ~tau:spec.Proto.tau
         ~modulus:(1 lsl spec.Proto.modulus_bits) config)
        .Spe_core.Driver.scores
  | Stream ->
    let planned = Job.build spec wl in
    let plan = Spe_core.Plan.make ~shards:1 ~stages:(Job.stages planned) ~result:ignore in
    Spe_mpc.Session.run (Spe_core.Plan.to_session plan) ~wire:(Spe_mpc.Wire.create ());
    Job.reply_of planned
