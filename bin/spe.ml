(* The `spe` command-line tool: generate synthetic workloads, run the
   secure estimation protocols over files on disk, audit the privacy
   machinery, and print the communication-cost models.

   Run `spe --help` or `spe <command> --help` for usage. *)

module State = Spe_rng.State
module Digraph = Spe_graph.Digraph
module Generate = Spe_graph.Generate
module Graph_io = Spe_graph.Graph_io
module Log = Spe_actionlog.Log
module Log_io = Spe_actionlog.Log_io
module Cascade = Spe_actionlog.Cascade
module Partition = Spe_actionlog.Partition
module Link_strength = Spe_influence.Link_strength
module Maximize = Spe_influence.Maximize
module Wire = Spe_mpc.Wire
module Protocol4 = Spe_core.Protocol4
module Protocol6 = Spe_core.Protocol6
module Driver = Spe_core.Driver
module Posterior = Spe_privacy.Posterior
module Gain = Spe_privacy.Gain
module Leakage = Spe_privacy.Leakage
module Dp_release = Spe_privacy.Dp_release
module Rank_oracle = Spe_rank.Oracle
module Protocol_rank = Spe_rank.Protocol_rank
module Model = Spe_cost.Model
module Serve_addr = Spe_serve.Addr
module Serve_client = Spe_serve.Client
module Serve_proto = Spe_serve.Serve_proto
module Serve_daemon = Spe_serve.Daemon
module Job = Spe_serve.Job

open Cmdliner

(* --- shared argument definitions ------------------------------------- *)

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed (runs are deterministic).")

let graph_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "graph" ] ~docv:"FILE" ~doc:"Social graph file (see spe generate).")

let logs_arg =
  Arg.(
    non_empty
    & opt_all file []
    & info [ "log" ] ~docv:"FILE" ~doc:"Provider action-log file; repeat once per provider.")

let h_arg =
  Arg.(value & opt int 3 & info [ "window"; "h" ] ~docv:"H" ~doc:"Memory-window width h.")

let c_arg =
  Arg.(
    value & opt float 2.
    & info [ "c-factor" ] ~docv:"C" ~doc:"Edge-set obfuscation blow-up (c >= 1).")

let modulus_bits_arg =
  Arg.(
    value & opt int 40
    & info [ "modulus-bits" ] ~docv:"BITS" ~doc:"Share modulus S = 2^BITS.")

let top_arg =
  Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc:"How many results to print.")

(* Optional variants of --graph/--log for the commands that can instead
   talk to live daemons (--connect): the daemons own the workload, so
   the files are only required for in-process runs. *)
let graph_opt_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "graph" ] ~docv:"FILE"
        ~doc:"Social graph file (see spe generate).  Required unless --connect.")

let logs_opt_arg =
  Arg.(
    value & opt_all file []
    & info [ "log" ] ~docv:"FILE"
        ~doc:
          "Provider action-log file; repeat once per provider.  Required unless \
           --connect.")

let connect_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"ADDR"
        ~doc:
          "Submit the computation as a job to a live host daemon (spe serve) at ADDR \
           (HOST:PORT or unix:PATH) instead of running the parties in-process.  The \
           daemons own the workload, so --graph/--log are not used; --seed, --shards \
           and the protocol parameters travel in the job spec.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "With --connect: submit N identical jobs (pipelined over one connection) and \
           require every reply to agree — an end-to-end determinism check against a \
           live deployment.")

(* Submit a spec to a live deployment and hand the first successful
   reply to [print].  Every failure path is a clean message and a
   nonzero exit: address parse errors are usage errors, connection and
   job failures are runtime errors — never a raw [Unix_error]. *)
let run_connect ~addr_spec ~jobs spec ~print =
  match Serve_addr.parse addr_spec with
  | Error msg -> `Error (true, "--connect " ^ msg)
  | Ok addr -> (
    match Serve_client.connect ~retry_for:5. addr with
    | exception Serve_client.Connection_lost msg -> `Error (false, msg)
    | client -> (
      let outcomes =
        try
          Ok
            (Serve_client.run_jobs client
               (List.init jobs (fun _ -> spec))
               ~deadline:(Unix.gettimeofday () +. 600.))
        with Serve_client.Connection_lost msg -> Error msg
      in
      Serve_client.close client;
      match outcomes with
      | Error msg -> `Error (false, msg)
      | Ok outcomes -> (
        let ok, busy, failed =
          List.fold_left
            (fun (ok, busy, failed) outcome ->
              match outcome with
              | Serve_client.Busy { queued; max_queue } ->
                ( ok,
                  Printf.sprintf "busy: %d jobs queued of %d" queued max_queue :: busy,
                  failed )
              | Serve_client.Result (Serve_proto.Failed { kind; detail }) ->
                ( ok,
                  busy,
                  Printf.sprintf "%s: %s" (Serve_proto.failure_kind_name kind) detail
                  :: failed )
              | Serve_client.Result reply -> (reply :: ok, busy, failed))
            ([], [], []) outcomes
        in
        match (ok, busy, failed) with
        | first :: rest, [], [] ->
          if List.for_all (fun r -> r = first) rest then begin
            print first;
            if jobs > 1 then
              Printf.printf "%d jobs over one daemon connection, all replies identical\n"
                jobs;
            `Ok ()
          end
          else `Error (false, "daemon replies disagree across identical jobs")
        | _ ->
          let detail = List.sort_uniq compare (busy @ failed) in
          `Error
            ( false,
              Printf.sprintf "%d of %d jobs did not complete: %s" (List.length busy + List.length failed)
                jobs (String.concat "; " detail) ))))

(* --- differential-privacy release flags (links, scores, rank) --------- *)

(* A Laplace release of the *published* values (Spe_privacy.Dp_release),
   orthogonal to the MPC that computed them.  It is applied client-side
   at the very end — also under --connect, where the daemons reply with
   the exact values and only this process draws the noise.  The sampler
   seed derives from --seed, so releases are replayable and the MPC+DP
   and plaintext+DP regimes coincide whenever the exact values do. *)
let dp_epsilon_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "dp-epsilon" ] ~docv:"EPS"
        ~doc:
          "Also emit a differentially private release of the published values (Laplace \
           mechanism at scale --dp-sensitivity / EPS) and report the exact-vs-DP \
           utility gap as a mean absolute error.  'inf' degenerates to the exact \
           release, byte for byte.")

let dp_sensitivity_arg =
  Arg.(
    value & opt float 1.
    & info [ "dp-sensitivity" ] ~docv:"S"
        ~doc:
          "L1 sensitivity of each released entry (default 1, the conservative bound \
           for strengths, scores and normalised ranks).")

let dp_public_degree_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "dp-public-degree" ] ~docv:"D"
        ~doc:
          "Hub exemption: entries whose node(s) all have total degree at least D are \
           released exactly; only the rest are noised.  Needs --graph.")

(* Salted off --seed so the protocol draws and the release draws never
   share a stream, yet one --seed replays the whole run. *)
let dp_seed ~seed = seed lxor 0x2545f491

let dp_check ~dp_epsilon ~dp_sensitivity ~dp_public_degree =
  match dp_epsilon with
  | None when dp_public_degree <> None || dp_sensitivity <> 1. ->
    Some "--dp-sensitivity/--dp-public-degree need --dp-epsilon"
  | Some e when Float.is_nan e || e <= 0. ->
    Some "--dp-epsilon must be positive (or 'inf' for the exact release)"
  | Some _ when Float.is_nan dp_sensitivity || dp_sensitivity <= 0. ->
    Some "--dp-sensitivity must be positive"
  | Some _ when (match dp_public_degree with Some d -> d < 0 | None -> false) ->
    Some "--dp-public-degree must be >= 0"
  | _ -> None

let dp_params ~seed ~dp_sensitivity epsilon =
  { Dp_release.epsilon; sensitivity = dp_sensitivity; seed = dp_seed ~seed }

(* Arc predicate (strength lists) and node predicate (score / rank
   vectors): hubs are public once every endpoint clears the degree
   threshold.  [None] when no graph is at hand (the caller has already
   rejected --dp-public-degree in that case). *)
let dp_arc_public ~dp_public_degree graph =
  match (dp_public_degree, graph) with
  | Some d, Some g -> Some (Dp_release.hubs ~degree_threshold:d g)
  | _ -> None

let dp_node_public ~dp_public_degree graph =
  match (dp_public_degree, graph) with
  | Some d, Some g -> Some (fun i -> Dp_release.hubs ~degree_threshold:d g (i, i))
  | _ -> None

let dp_header ~what (params : Dp_release.params) count =
  Printf.printf "dp-release: %s, epsilon %g, sensitivity %g, seed %d, %d value(s)%s\n"
    what params.Dp_release.epsilon params.Dp_release.sensitivity params.Dp_release.seed
    count
    (if Dp_release.exact params then " - exact (epsilon = inf)" else "")

let emit_dp_strengths ~params ~public strengths =
  let released = Dp_release.strengths ?public params strengths in
  dp_header ~what:"link strengths" params (List.length strengths);
  Printf.printf "dp-utility: MAE(exact, dp) = %.6f\n"
    (Dp_release.mean_abs_error_strengths strengths released)

(* [plaintext], when given, is the non-MPC reference run through the
   same seeded sampler — the third regime of the comparison; its MAE
   against the MPC release is 0 exactly when the exact values agree. *)
let emit_dp_vector ~params ~public ?plaintext ~what values =
  let released = Dp_release.values ?public params values in
  dp_header ~what params (Array.length values);
  Printf.printf "dp-utility: MAE(exact, dp) = %.6f\n"
    (Dp_release.mean_abs_error values released);
  match plaintext with
  | None -> ()
  | Some reference ->
    let ref_released = Dp_release.values ?public params reference in
    Printf.printf "dp-utility: MAE(plaintext+dp, mpc+dp) = %.6f\n"
      (Dp_release.mean_abs_error ref_released released)

let wire_summary (w : Wire.stats) =
  Printf.printf "communication: %d rounds, %d messages, %.1f KiB\n" w.Wire.rounds
    w.Wire.messages
    (float_of_int w.Wire.bits /. 8192.)

(* Engine selection for the full pipelines: the central reference
   implementation, or the Shard plan on any of the three engines.  All
   four produce identical results from the same seed. *)
let pipeline_transport_arg =
  Arg.(
    value
    & opt
        (enum [ ("central", `Central); ("sim", `Sim); ("memory", `Memory); ("socket", `Socket) ])
        `Central
    & info [ "transport" ] ~docv:"ENGINE"
        ~doc:
          "How to execute the protocol pipeline: the central reference implementation \
           (central), the party programs on the in-process engine (sim), or each party \
           as a networked endpoint over in-memory channels (memory) or Unix-domain \
           sockets (socket).  The results and the NR/NM statistics are \
           engine-independent; the real transports also report measured framed bytes.")

(* Sharded execution: cut the pipeline into a Plan of per-shard
   sessions (results are bit-identical for every K — DESIGN.md,
   "Sharded execution").  On sim the plan is lowered to one session;
   on memory/socket each stage's sessions run concurrently on the
   Endpoint worker pool. *)
let shards_arg =
  Arg.(
    value & opt int 1
    & info [ "shards" ] ~docv:"K"
        ~doc:
          "Cut the pipeline into K concurrent per-shard sessions (DESIGN.md, \"Sharded \
           execution\").  Results are bit-identical for every K; on the memory and \
           socket transports the shards run concurrently on a worker pool.  Requires a \
           non-central --transport.")

let workers_arg =
  Arg.(
    value & opt int 4
    & info [ "workers" ] ~docv:"J"
        ~doc:
          "Shard sessions of a stage in flight at once on the memory/socket \
           transports.")

let transport_bytes_summary (stats : Wire.stats) = function
  | None -> ()
  | Some (bytes, _) ->
    Printf.printf "transport: %d framed bytes on the wire (%.3fx the payload)\n" bytes
      (float_of_int bytes /. (float_of_int stats.Wire.bits /. 8.))

(* --- observability plumbing (shared by links, scores and shares) ------ *)

let trace_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a session trace (spans, counters, notes - see OBSERVABILITY.md) and \
           write the event dump to FILE.")

let metrics_arg =
  Arg.(
    value
    & opt (some (enum [ ("text", `Text); ("json", `Json) ])) None
    & info [ "metrics" ] ~docv:"FMT"
        ~doc:
          "Print the run's metrics report: human-readable (text) or spe-metrics/2 JSON \
           (json).  The JSON document is the last thing printed, starting at the first \
           column, so it can be split off the human output.")

(* A recording trace when --trace or --metrics asks for one; the
   near-free disabled trace otherwise. *)
let obs_trace trace_file metrics =
  if trace_file <> None || metrics <> None then Spe_obs.Trace.create ()
  else Spe_obs.Trace.disabled ()

(* After the run: build the metrics report from the run's traces — one
   unlabelled trace, or one labelled trace per pool session, merged
   with Metrics.merge so --metrics shows the per-session table —
   cross-check it against the independent wire accounting (NM and MS/8
   must agree exactly; on a real transport the framed bytes must match
   Net_wire too), then emit what was asked for: the trace dump, one
   labelled section per session, and the metrics report last, so
   `--metrics json` ends stdout with one clean JSON document. *)
let emit_observability ~protocol ~engine ~messages ~payload_bytes ~net sections trace_file
    metrics =
  match sections with
  | (_, first, _) :: _ when Spe_obs.Trace.enabled first -> (
    let module Metrics = Spe_obs.Metrics in
    let report_of (_, tr, parties) = Metrics.of_trace ~protocol ~engine ~parties tr in
    let report =
      match sections with
      | [ ((None, _, _) as only) ] -> report_of only
      | _ -> Metrics.merge (List.map report_of sections)
    in
    if not (Metrics.equal_accounting report ~messages ~payload_bytes) then
      failwith
        (Printf.sprintf
           "trace accounting mismatch: observed %d messages / %d payload bytes, wire \
            accounted %d / %d"
           report.Metrics.messages report.Metrics.payload_bytes messages payload_bytes);
    (match net with
    | None -> ()
    | Some (_, (totals : Spe_net.Net_wire.totals)) -> (
      match report.Metrics.framed_bytes with
      | Some framed when framed = totals.Spe_net.Net_wire.framed_bytes -> ()
      | Some framed ->
        failwith
          (Printf.sprintf "trace framed-byte mismatch: observed %d, Net_wire says %d"
             framed totals.Spe_net.Net_wire.framed_bytes)
      | None -> failwith "trace recorded no framed bytes on a real transport"));
    (match trace_file with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      let events = ref 0 in
      List.iter
        (fun (label, tr, _) ->
          events := !events + List.length (Spe_obs.Trace.events tr);
          Option.iter (fun l -> Printf.fprintf oc "=== %s ===\n" l) label;
          output_string oc (Spe_obs.Obs_io.trace_to_text tr))
        sections;
      close_out oc;
      Printf.printf "wrote %s (%d events)\n" path !events);
    match metrics with
    | None -> ()
    | Some `Text -> print_string (Spe_obs.Obs_io.report_to_text report)
    | Some `Json -> print_string (Spe_obs.Obs_io.report_to_string report))
  | _ -> ()

let engine_name = function
  | `Central -> "central"
  | `Sim -> "sim"
  | `Memory -> "memory"
  | `Socket -> "socket"

(* The central wire charges exact bit counts; the trace replay rounds
   each message up to whole bytes, so the cross-check must too. *)
let transcript_payload_bytes transcript =
  List.fold_left (fun acc (m : Wire.message) -> acc + ((m.Wire.bits + 7) / 8)) 0 transcript

(* --- spe generate ------------------------------------------------------ *)

let generate_cmd =
  let users =
    Arg.(value & opt int 100 & info [ "users" ] ~docv:"N" ~doc:"Number of users.")
  in
  let model =
    Arg.(
      value
      & opt (enum [ ("ba", `Ba); ("er", `Er); ("ws", `Ws) ]) `Ba
      & info [ "model" ] ~docv:"MODEL"
          ~doc:"Graph family: barabasi-albert (ba), erdos-renyi (er) or watts-strogatz (ws).")
  in
  let density =
    Arg.(
      value & opt int 3
      & info [ "density" ] ~docv:"D"
          ~doc:"Attachment count (ba), mean out-degree (er) or ring degree (ws).")
  in
  let actions =
    Arg.(value & opt int 50 & info [ "actions" ] ~docv:"A" ~doc:"Number of propagated actions.")
  in
  let providers =
    Arg.(value & opt int 2 & info [ "providers" ] ~docv:"M" ~doc:"Number of service providers.")
  in
  let probability =
    Arg.(
      value & opt float 0.25
      & info [ "probability" ] ~docv:"P" ~doc:"Planted influence probability per arc.")
  in
  let out_dir =
    Arg.(value & opt string "." & info [ "out" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let classes =
    Arg.(
      value & opt int 0
      & info [ "classes" ] ~docv:"Q"
          ~doc:
            "Non-exclusive mode: partition the actions into Q classes, each supported \
             by a random provider subset, scatter records accordingly and write a \
             spec.txt alongside the logs.  0 (default) = exclusive split.")
  in
  let run seed users model density actions providers probability out_dir classes =
    let s = State.create ~seed () in
    let g =
      match model with
      | `Ba -> Generate.barabasi_albert s ~n:users ~m:density
      | `Er -> Generate.erdos_renyi_gnm s ~n:users ~m:(users * density)
      | `Ws ->
        let k = max 2 (density + (density mod 2)) in
        Generate.watts_strogatz s ~n:users ~k ~beta:0.15
    in
    let planted = Cascade.uniform_probabilities ~p:probability g in
    let log =
      Cascade.generate s planted
        { Cascade.num_actions = actions; seeds_per_action = 1; max_delay = 3 }
    in
    let parts, spec =
      if classes <= 0 then (Partition.exclusive s log ~m:providers, None)
      else begin
        let spec =
          Partition.random_class_spec s ~num_actions:actions ~m:providers ~num_classes:classes
        in
        (Partition.non_exclusive s log ~spec, Some spec)
      end
    in
    (match spec with
    | None -> ()
    | Some spec ->
      let path = Filename.concat out_dir "spec.txt" in
      Spe_actionlog.Spec_io.save spec path;
      Printf.printf "wrote %s (%d classes)\n" path classes);
    let graph_path = Filename.concat out_dir "graph.txt" in
    Graph_io.save g graph_path;
    Printf.printf "wrote %s (%d users, %d arcs)\n" graph_path (Digraph.n g)
      (Digraph.edge_count g);
    Array.iteri
      (fun k part ->
        let path = Filename.concat out_dir (Printf.sprintf "provider-%d.log" (k + 1)) in
        Log_io.save part path;
        Printf.printf "wrote %s (%d records)\n" path (Log.size part))
      parts;
    `Ok ()
  in
  let term =
    Term.(
      ret
        (const run $ seed_arg $ users $ model $ density $ actions $ providers $ probability
       $ out_dir $ classes))
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic social graph and provider action logs.")
    term

(* --- the pipeline commands: links, scores, rank, stream ------------------ *)

(* Every pipeline command parses its flags into a Serve_proto.spec and
   runs one path: the CLI-only checks, Job's spec checks, then either
   submission to a live deployment (--connect) or an in-process run —
   the central oracle, or Job.build, the one executor below and
   Job.reply_of — printed by the same reply printer.  An in-process run
   and a daemon run of the same spec therefore agree by construction. *)

(* The flags links, scores and rank share; stream fills the ones it
   does not take with their defaults. *)
type opts = {
  seed : int;
  graph_path : string option;
  log_paths : string list;
  top : int;
  transport : [ `Central | `Sim | `Memory | `Socket ];
  shards : int;
  workers : int;
  connect : string option;
  jobs : int;
  trace_file : string option;
  metrics : [ `Text | `Json ] option;
  out : string option;
  dp_epsilon : float option;
  dp_sensitivity : float;
  dp_public_degree : int option;
}

let opts_term ~out_doc =
  let out_arg =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc:out_doc)
  in
  Term.(
    const
      (fun seed graph_path log_paths top transport shards workers connect jobs trace_file
           metrics out dp_epsilon dp_sensitivity dp_public_degree ->
        {
          seed;
          graph_path;
          log_paths;
          top;
          transport;
          shards;
          workers;
          connect;
          jobs;
          trace_file;
          metrics;
          out;
          dp_epsilon;
          dp_sensitivity;
          dp_public_degree;
        })
    $ seed_arg $ graph_opt_arg $ logs_opt_arg $ top_arg $ pipeline_transport_arg $ shards_arg
    $ workers_arg $ connect_arg $ jobs_arg $ trace_file_arg $ metrics_arg $ out_arg
    $ dp_epsilon_arg $ dp_sensitivity_arg $ dp_public_degree_arg)

(* The checks on flags that are not in the spec. *)
let cli_check o =
  if o.workers < 1 then Some "--workers must be at least 1"
  else if o.jobs < 1 then Some "--jobs must be at least 1"
  else if o.connect = None && o.transport = `Central && o.shards > 1 then
    Some "--shards needs --transport sim, memory or socket"
  else
    dp_check ~dp_epsilon:o.dp_epsilon ~dp_sensitivity:o.dp_sensitivity
      ~dp_public_degree:o.dp_public_degree

(* --- the reply printer ---------------------------------------------------- *)

let print_strengths ~title ~top strengths =
  let sorted = List.sort (fun (_, a) (_, b) -> Stdlib.compare b a) strengths in
  Printf.printf "%s (top %d of %d):\n" title top (List.length sorted);
  List.iteri
    (fun i ((u, v), p) -> if i < top then Printf.printf "  %6d -> %-6d  %.4f\n" u v p)
    sorted

let print_scores ~top scores =
  let idx = Array.init (Array.length scores) (fun i -> i) in
  Array.sort (fun a b -> Stdlib.compare scores.(b) scores.(a)) idx;
  Printf.printf "user influence scores (top %d):\n" top;
  Array.iteri
    (fun rank u ->
      if rank < top then Printf.printf "  #%-3d user %-6d score %.3f\n" (rank + 1) u scores.(u))
    idx

let print_ranks ~top ranks =
  let n = Array.length ranks in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> Stdlib.compare ranks.(b) ranks.(a)) order;
  Printf.printf "activity-personalised ranks (top %d of %d):\n" (min top n) n;
  Array.iteri
    (fun i u ->
      if i < top then Printf.printf "  #%-3d user %-6d rank %.6f\n" (i + 1) u ranks.(u))
    order

let ranks_of ~fbits ranks_fx =
  let scale = float_of_int (1 lsl fbits) in
  Array.map (fun fx -> float_of_int fx /. scale) ranks_fx

(* How a reply reads on stdout, in-process and under --connect alike.
   An in-process stream run annotates each epoch with its arrival
   count and, under --verify-full, the full recompute's verdict. *)
let print_reply ~top ?arrivals ?(verdicts = [||]) = function
  | Serve_proto.Strengths strengths ->
    print_strengths ~title:"link influence strengths" ~top strengths
  | Serve_proto.Scores scores -> print_scores ~top scores
  | Serve_proto.Rank_summary { ranks_fx; fbits } -> print_ranks ~top (ranks_of ~fbits ranks_fx)
  | Serve_proto.Stream_summary { digests; recomputed; strengths } ->
    Array.iteri
      (fun e d ->
        Printf.printf "epoch %d: %s%d group(s) recomputed, digest %016x%s\n" e
          (match arrivals with
          | Some a -> Printf.sprintf "%d arrival(s), " a.(e)
          | None -> "")
          recomputed.(e) d
          (if e < Array.length verdicts then verdicts.(e) else ""))
      digests;
    if arrivals = None then Printf.printf "%d epoch(s) released\n" (Array.length digests);
    print_strengths ~title:"final link strengths" ~top strengths
  | Serve_proto.Failed _ -> ()

(* --out and the DP release of the published values.  [plaintext] is
   the non-MPC rank reference, when the workload is at hand. *)
let emit_release o ~graph ?plaintext reply =
  let save write path =
    write path;
    Printf.printf "wrote %s\n" path
  in
  let params epsilon = dp_params ~seed:o.seed ~dp_sensitivity:o.dp_sensitivity epsilon in
  let dp_public_degree = o.dp_public_degree in
  match reply with
  | Serve_proto.Strengths strengths ->
    Option.iter (save (Spe_influence.Result_io.save_strengths strengths)) o.out;
    Option.iter
      (fun epsilon ->
        emit_dp_strengths ~params:(params epsilon)
          ~public:(dp_arc_public ~dp_public_degree graph)
          strengths)
      o.dp_epsilon
  | Serve_proto.Scores scores ->
    Option.iter (save (Spe_influence.Result_io.save_scores scores)) o.out;
    Option.iter
      (fun epsilon ->
        emit_dp_vector ~params:(params epsilon)
          ~public:(dp_node_public ~dp_public_degree graph)
          ~what:"user scores" scores)
      o.dp_epsilon
  | Serve_proto.Rank_summary { ranks_fx; fbits } ->
    let ranks = ranks_of ~fbits ranks_fx in
    Option.iter (save (Spe_influence.Result_io.save_scores ranks)) o.out;
    Option.iter
      (fun epsilon ->
        emit_dp_vector ~params:(params epsilon)
          ~public:(dp_node_public ~dp_public_degree graph)
          ?plaintext ~what:"rank vector" ranks)
      o.dp_epsilon
  | Serve_proto.Stream_summary _ | Serve_proto.Failed _ -> ()

(* --- the one executor ----------------------------------------------------- *)

(* What an in-process run leaves for the summary: wire statistics (NR,
   NM, MS), the transcript, the Net_wire accounting on a real
   transport, and the trace sections for the metrics report. *)
type run = {
  stats : Wire.stats;
  transcript : Wire.message list;
  net : (int * Spe_net.Net_wire.totals) option;
  payload_bytes : int;
  sections : (string option * Spe_obs.Trace.t * int) list;
}

(* Drive a built plan.  On sim the plan is lowered to one session and
   run on a wire, whose counts and transcript the summary prints.  On
   memory and socket Plan.execute runs every stage on the shard pool,
   one connection group per session, as the daemons do, with one
   recording trace per session when observability was asked for: NR
   is the plan's declared rounds, NM/MS sum every session's Net_wire
   log. *)
let execute ~trace ~workers transport planned =
  let module Plan = Spe_core.Plan in
  let module Endpoint = Spe_net.Endpoint in
  let module Net_wire = Spe_net.Net_wire in
  let plan = Plan.make ~shards:1 ~stages:(Job.stages planned) ~result:ignore in
  match transport with
  | `Sim ->
    let session = Plan.to_session plan in
    let w = Wire.create () in
    Spe_mpc.Session.run ~trace session ~wire:w;
    let stats = Wire.stats w in
    {
      stats;
      transcript = Wire.messages w;
      net = None;
      payload_bytes = stats.Wire.bits / 8;
      sections = [ (None, trace, Array.length session.Spe_mpc.Session.parties) ];
    }
  | (`Memory | `Socket) as engine ->
    (* The default 2 s round timeout is tuned for loss detection; a
       full pipeline has long compute rounds (e.g. decrypting every
       Protocol 6 bundle under a 1024-bit key), during which a busy
       party looks exactly like a dead one.  Local transports are
       reliable, so wait out the compute instead of Nacking it. *)
    let config =
      { Endpoint.default_config with Endpoint.round_timeout = 300.; linger = 310. }
    in
    let recording = Spe_obs.Trace.enabled trace in
    let (), runs =
      Plan.execute ~config ~workers
        ~traces:(fun _ ->
          if recording then Spe_obs.Trace.create () else Spe_obs.Trace.disabled ())
        ~engine plan
    in
    let logs =
      List.map
        (fun (run : Plan.run) ->
          Array.map
            (fun (o : Endpoint.outcome) -> o.Endpoint.sent)
            run.Plan.endpoint.Endpoint.outcomes)
        runs
    in
    let totals = Net_wire.totals (Array.concat logs) in
    let transport_bytes =
      List.fold_left
        (fun acc (run : Plan.run) -> acc + run.Plan.endpoint.Endpoint.transport_bytes)
        0 runs
    in
    let stats =
      {
        Wire.rounds = Plan.total_rounds plan;
        messages = totals.Net_wire.messages;
        bits = 8 * totals.Net_wire.payload_bytes;
      }
    in
    {
      stats;
      transcript = List.concat_map (fun l -> Wire.messages (Net_wire.merge l)) logs;
      net = Some (transport_bytes, totals);
      payload_bytes = totals.Net_wire.payload_bytes;
      sections =
        List.map
          (fun (run : Plan.run) ->
            ( Some (Printf.sprintf "%s[%d]" run.Plan.stage run.Plan.index),
              run.Plan.trace,
              run.Plan.parties ))
          runs;
    }

(* --- the shared path ------------------------------------------------------ *)

(* [refuse_connect] names an in-process-only flag that was given;
   [local] runs over the loaded, validated workload. *)
let run_pipeline o spec ?refuse_connect ~local () =
  match cli_check o with
  | Some msg -> `Error (true, msg)
  | None -> (
    match Job.check spec with
    | Error msg -> `Error (true, msg)
    | Ok () -> (
      match o.connect with
      | Some addr_spec -> (
        match refuse_connect with
        | Some msg -> `Error (true, msg)
        | None ->
          if o.trace_file <> None || o.metrics <> None then
            `Error
              ( true,
                "--trace/--metrics are daemon-side with --connect; scrape the daemon's \
                 --metrics-addr instead" )
          else if o.dp_public_degree <> None && o.graph_path = None then
            `Error (true, "--dp-public-degree needs --graph")
          else
            run_connect ~addr_spec ~jobs:o.jobs spec ~print:(fun reply ->
                print_reply ~top:o.top reply;
                (* The graph serves only the hub exemption. *)
                let graph =
                  if o.dp_public_degree = None then None
                  else Option.map Graph_io.load o.graph_path
                in
                emit_release o ~graph reply))
      | None -> (
        match (o.graph_path, o.log_paths) with
        | None, _ -> `Error (true, "--graph is required when not using --connect")
        | _, [] -> `Error (true, "--log is required when not using --connect")
        | Some graph_path, log_paths -> (
          let wl =
            {
              Job.graph = Graph_io.load graph_path;
              logs = Array.of_list (List.map Log_io.load log_paths);
            }
          in
          match Job.validate spec wl with
          | Error msg -> `Error (true, msg)
          | Ok () -> ( try local wl with Invalid_argument msg -> `Error (false, msg))))))

type summary = Wire_run of run | Note of string

(* An in-process links, scores or rank run: the central reference
   ([central]) or the built plan on the executor, then the reply
   printer and the run's summary. *)
let run_local o ~protocol ?(show_transcript = false) ?plaintext ~central ~build wl =
  let trace = obs_trace o.trace_file o.metrics in
  let reply, summary, plaintext =
    match o.transport with
    | `Central ->
      let reply, summary = central ~trace wl in
      (reply, summary, None)
    | (`Sim | `Memory | `Socket) as engine ->
      let planned = build wl in
      let run = execute ~trace ~workers:o.workers engine planned in
      (Job.reply_of planned, Wire_run run, Option.map (fun f -> f wl) plaintext)
  in
  print_reply ~top:o.top reply;
  emit_release o ~graph:(Some wl.Job.graph) ?plaintext reply;
  (match summary with
  | Note line -> print_endline line
  | Wire_run run ->
    wire_summary run.stats;
    transport_bytes_summary run.stats run.net;
    if show_transcript then begin
      Printf.printf "\ntranscript:\n";
      List.iter
        (fun (msg : Wire.message) ->
          Format.printf "  r%-3d %a -> %a  %d bits@." msg.Wire.round Wire.pp_party
            msg.Wire.src Wire.pp_party msg.Wire.dst msg.Wire.bits)
        run.transcript
    end;
    emit_observability ~protocol ~engine:(engine_name o.transport)
      ~messages:run.stats.Wire.messages ~payload_bytes:run.payload_bytes ~net:run.net
      run.sections o.trace_file o.metrics);
  `Ok ()

let central_run ~trace ~parties ~wire ~transcript =
  Wire_run
    {
      stats = wire;
      transcript;
      net = None;
      payload_bytes = transcript_payload_bytes transcript;
      sections = [ (None, trace, parties) ];
    }

(* --- spe links ---------------------------------------------------------- *)

let links_cmd =
  let decay =
    Arg.(
      value
      & opt (some string) None
      & info [ "decay" ] ~docv:"KIND"
          ~doc:
            "Temporal decay for Eq. (2): 'linear' or 'exp:ALPHA'. Default: Eq. (1), no decay.")
  in
  let spec_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "spec" ] ~docv:"FILE"
          ~doc:"Action-class spec file: run the non-exclusive pipeline (Protocol 5 first).")
  in
  let obfuscation_arg =
    Arg.(
      value
      & opt (enum [ ("basic", Spe_core.Protocol5.Basic); ("enhanced", Spe_core.Protocol5.Enhanced) ])
          Spe_core.Protocol5.Enhanced
      & info [ "obfuscation" ] ~docv:"MODE"
          ~doc:"Protocol 5 obfuscation for the non-exclusive case: basic or enhanced.")
  in
  let transcript_arg =
    Arg.(value & flag & info [ "transcript" ] ~doc:"Print the full message transcript.")
  in
  let run o h c_factor modulus_bits decay spec_path obfuscation show_transcript =
    let spec =
      {
        Serve_proto.default_spec with
        Serve_proto.pipeline = Serve_proto.Links;
        seed = o.seed;
        shards = o.shards;
        h;
        c_factor;
        modulus_bits;
      }
    in
    (* --decay and --spec are in-process only: they build their plan
       from Shard directly and share the executor and printer. *)
    let refuse_connect =
      if decay <> None || spec_path <> None then
        Some "--decay and --spec do not travel in a daemon job spec"
      else if show_transcript || o.trace_file <> None || o.metrics <> None then
        Some
          "--transcript/--trace/--metrics are daemon-side with --connect; scrape the \
           daemon's --metrics-addr instead"
      else None
    in
    let local wl =
      let estimator =
        match decay with
        | None -> Protocol4.Eq1
        | Some "linear" -> Protocol4.Eq2 (Link_strength.linear_decay_weights ~h)
        | Some spec when String.length spec > 4 && String.sub spec 0 4 = "exp:" -> (
          match float_of_string_opt (String.sub spec 4 (String.length spec - 4)) with
          | Some alpha -> Protocol4.Eq2 (Link_strength.exponential_decay_weights ~h ~alpha)
          | None -> invalid_arg "bad --decay exp:ALPHA")
        | Some other -> invalid_arg (Printf.sprintf "unknown decay %S" other)
      in
      let config = { Protocol4.c_factor; modulus = 1 lsl modulus_bits; h; estimator } in
      let class_spec = Option.map Spe_actionlog.Spec_io.load spec_path in
      let graph = wl.Job.graph and logs = wl.Job.logs in
      let central ~trace _ =
        let s = State.create ~seed:o.seed () in
        let r =
          match class_spec with
          | None -> Driver.link_strengths_exclusive ~trace s ~graph ~logs config
          | Some spec ->
            Driver.link_strengths_non_exclusive ~trace s ~graph ~logs ~spec ~obfuscation
              config
        in
        ( Serve_proto.Strengths r.Driver.strengths,
          central_run ~trace ~parties:(Array.length logs + 1) ~wire:r.Driver.wire
            ~transcript:r.Driver.transcript )
      in
      let build wl =
        match (estimator, class_spec) with
        | Protocol4.Eq1, None -> Job.build spec wl
        | _ ->
          let s = State.create ~seed:o.seed () in
          Job.Links_plan
            (match class_spec with
            | None -> Spe_core.Shard.links_exclusive s ~graph ~logs ~shards:o.shards config
            | Some spec ->
              Spe_core.Shard.links_non_exclusive s ~graph ~logs ~spec ~obfuscation
                ~shards:o.shards config)
      in
      run_local o
        ~protocol:(match class_spec with None -> "links" | Some _ -> "links-nonexcl")
        ~show_transcript ~central ~build wl
    in
    run_pipeline o spec ?refuse_connect ~local ()
  in
  let term =
    Term.(
      ret
        (const run
        $ opts_term ~out_doc:"Also write the full strength list to FILE."
        $ h_arg $ c_arg $ modulus_bits_arg $ decay $ spec_arg $ obfuscation_arg
        $ transcript_arg))
  in
  Cmd.v
    (Cmd.info "links"
       ~doc:
         "Securely compute link influence strengths (Protocol 4, exclusive case) over \
          provider log files, on any engine (--transport).")
    term

(* --- spe scores ---------------------------------------------------------- *)

let scores_cmd =
  let tau =
    Arg.(value & opt int 8 & info [ "tau" ] ~docv:"TAU" ~doc:"Propagation time threshold.")
  in
  let key_bits =
    Arg.(
      value & opt int 256
      & info [ "key-bits" ] ~docv:"BITS"
          ~doc:"Public-key modulus size for Protocol 6 (1024 = paper's deployment).")
  in
  let pack_slots =
    Arg.(
      value & opt int 1
      & info [ "pack-slots" ] ~docv:"SLOTS"
          ~doc:
            "Pack up to SLOTS time-difference entries into each Protocol 6 plaintext \
             (clamped to what the key admits).  1 disables packing and is bit-identical \
             to the paper's protocol.")
  in
  let run o tau key_bits pack_slots modulus_bits =
    let spec =
      {
        Serve_proto.default_spec with
        Serve_proto.pipeline = Serve_proto.Scores;
        seed = o.seed;
        shards = o.shards;
        modulus_bits;
        tau;
        key_bits;
        pack_slots;
      }
    in
    let central ~trace (wl : Job.workload) =
      let config = { Protocol6.default_config with Protocol6.key_bits; pack_slots } in
      let r =
        Driver.user_scores_exclusive ~trace (State.create ~seed:o.seed ()) ~graph:wl.Job.graph
          ~logs:wl.Job.logs ~tau ~modulus:(1 lsl modulus_bits) config
      in
      ( Serve_proto.Scores r.Driver.scores,
        central_run ~trace ~parties:(Array.length wl.Job.logs + 1) ~wire:r.Driver.wire
          ~transcript:r.Driver.transcript )
    in
    run_pipeline o spec
      ~local:(run_local o ~protocol:"scores" ~central ~build:(Job.build spec))
      ()
  in
  let term =
    Term.(
      ret
        (const run
        $ opts_term ~out_doc:"Also write all scores to FILE."
        $ tau $ key_bits $ pack_slots $ modulus_bits_arg))
  in
  Cmd.v
    (Cmd.info "scores"
       ~doc:
         "Securely compute user influence scores (Protocol 6 + Def. 3.3), on any \
          engine (--transport).")
    term

(* --- spe rank ------------------------------------------------------------- *)

(* The second estimand family: activity-personalised PageRank / degree
   centrality.  The graph is public to H; the per-user activity that
   personalises the teleport vector stays split across the providers
   and only its aggregate is reconstructed (Protocol 1/2 primitives),
   so the protocol releases exactly what the plaintext fixed-point
   oracle computes — bit-identical on every engine. *)

let rank_cmd =
  let damping_arg =
    Arg.(
      value & opt float 0.85
      & info [ "damping" ] ~docv:"D" ~doc:"PageRank damping factor, in [0, 1).")
  in
  let iterations_arg =
    Arg.(
      value & opt int 25
      & info [ "iterations" ] ~docv:"I" ~doc:"Power-iteration count (pagerank mode).")
  in
  let fbits_arg =
    Arg.(
      value & opt int 20
      & info [ "fbits" ] ~docv:"B"
          ~doc:
            "Fixed-point fractional bits, in [4, 30] and below --modulus-bits; the \
             documented precision bound against the float recursion shrinks as 2^-B.")
  in
  let mode_arg =
    Arg.(
      value
      & opt (enum [ ("pagerank", `Pagerank); ("degree", `Degree) ]) `Pagerank
      & info [ "mode" ] ~docv:"MODE"
          ~doc:"Estimand: 'pagerank' (damped power iteration) or 'degree' (one blend).")
  in
  let run o damping iterations fbits mode modulus_bits =
    let spec =
      {
        Serve_proto.default_spec with
        Serve_proto.pipeline = Serve_proto.Rank;
        seed = o.seed;
        shards = o.shards;
        modulus_bits;
        damping;
        iterations;
        fbits;
        rank_degree = (mode = `Degree);
      }
    in
    let oracle =
      {
        Rank_oracle.mode =
          (match mode with `Pagerank -> Rank_oracle.Pagerank | `Degree -> Rank_oracle.Degree);
        damping;
        iterations;
        fbits;
      }
    in
    let fixed (wl : Job.workload) =
      let n = Digraph.n wl.Job.graph in
      let activity = Array.make n 0 in
      Array.iter
        (fun l ->
          if Log.num_users l <> n then invalid_arg "rank: log/graph user universe mismatch";
          Array.iteri (fun i v -> activity.(i) <- activity.(i) + v) (Log.user_activity l))
        wl.Job.logs;
      Rank_oracle.fixed oracle wl.Job.graph ~activity
    in
    (* The central engine is the plaintext fixed-point oracle itself:
       same arithmetic, no protocol run and no wire. *)
    let central ~trace:_ wl =
      ( Serve_proto.Rank_summary { ranks_fx = fixed wl; fbits },
        Note "engine central: plaintext fixed-point oracle, no protocol run" )
    in
    run_pipeline o spec
      ~local:
        (run_local o ~protocol:"rank"
           ~plaintext:(fun wl -> Rank_oracle.to_floats oracle (fixed wl))
           ~central ~build:(Job.build spec))
      ()
  in
  let term =
    Term.(
      ret
        (const run
        $ opts_term ~out_doc:"Also write the full rank vector to FILE."
        $ damping_arg $ iterations_arg $ fbits_arg $ mode_arg $ modulus_bits_arg))
  in
  Cmd.v
    (Cmd.info "rank"
       ~doc:
         "Securely compute activity-personalised PageRank / degree centrality \
          (Protocol_rank over the Protocol 1-3 primitives), bit-identical to the \
          plaintext fixed-point oracle on every engine (--transport, --connect).")
    term

(* --- spe stream ----------------------------------------------------------- *)

(* Epoch-delta streaming: replay the providers' logs as seeded arrival
   streams, accumulate them in sliding-window counters, and re-release
   the pair estimates every epoch, re-running the protocols only over
   the dirtied counter groups (Spe_core.Delta).  The ingestion is
   Job's, so `spe stream` in-process and `spe stream --connect` against
   a deployment loaded with the same workload release identical
   digests. *)

let stream_cmd =
  let epoch_arg =
    Arg.(
      value & opt int 25
      & info [ "epoch"; "epoch-ticks" ] ~docv:"TICKS"
          ~doc:"Arrival ticks per release epoch.")
  in
  let window_arg =
    Arg.(
      value & opt int 0
      & info [ "window"; "stream-window" ] ~docv:"N"
          ~doc:
            "Sliding temporal window: a record leaves the counters once its timestamp \
             falls N time units behind the stream clock.  0 (the default) keeps \
             everything — pure accumulation.  (Unlike links/scores, --window here is \
             the stream window; the estimator's memory width is -h.)")
  in
  let epochs_arg =
    Arg.(value & opt int 8 & info [ "epochs" ] ~docv:"E" ~doc:"Release epochs to run.")
  in
  let rate_arg =
    Arg.(
      value & opt float 0.5
      & info [ "rate" ] ~docv:"R" ~doc:"Mean record arrivals per tick, per provider.")
  in
  let burstiness_arg =
    Arg.(
      value & opt float 0.
      & info [ "burstiness" ] ~docv:"B"
          ~doc:
            "Markov-modulated arrival burstiness in [0, 1): 0 is a plain Poisson \
             process, higher values alternate calm and burst regimes.")
  in
  let jitter_arg =
    Arg.(
      value & opt int 0
      & info [ "jitter" ] ~docv:"J"
          ~doc:"Bounded arrival reordering: each record lands up to J ticks late.")
  in
  let h_only_arg =
    Arg.(value & opt int 3 & info [ "h" ] ~docv:"H" ~doc:"Memory-window width h.")
  in
  let stream_transport_arg =
    Arg.(
      value
      & opt (enum [ ("sim", `Sim); ("memory", `Memory); ("socket", `Socket) ]) `Sim
      & info [ "transport" ] ~docv:"ENGINE"
          ~doc:
            "Engine executing each epoch's delta plan: sim, memory or socket.  The \
             released bits are engine-independent.")
  in
  let verify_full_arg =
    Arg.(
      value & flag
      & info [ "verify-full" ]
          ~doc:
            "Also run a full per-epoch recompute (every counter group re-shared every \
             epoch) and assert its release digest matches the delta path's at every \
             epoch — the bit-identity invariant, checked end to end.")
  in
  let run seed graph_path log_paths epoch_ticks window epochs rate burstiness jitter h
      c_factor modulus_bits transport top verify_full connect jobs =
    let o =
      {
        seed;
        graph_path;
        log_paths;
        top;
        transport = (transport :> [ `Central | `Sim | `Memory | `Socket ]);
        shards = 1;
        workers = 2;
        connect;
        jobs;
        trace_file = None;
        metrics = None;
        out = None;
        dp_epsilon = None;
        dp_sensitivity = 1.;
        dp_public_degree = None;
      }
    in
    let spec =
      {
        Serve_proto.default_spec with
        Serve_proto.pipeline = Serve_proto.Stream;
        seed;
        h;
        c_factor;
        modulus_bits;
        epoch_ticks;
        window;
        epochs;
        rate;
        burstiness;
        jitter;
      }
    in
    let refuse_connect =
      if verify_full then
        Some
          "--verify-full is an in-process check; daemons run the delta plan — compare \
           against a local run with the same seed instead"
      else None
    in
    let digests_of planned =
      match Job.reply_of planned with
      | Serve_proto.Stream_summary { digests; _ } -> digests
      | _ -> [||]
    in
    let local wl =
      let trace = Spe_obs.Trace.disabled () in
      let t0 = Unix.gettimeofday () in
      let planned, arrivals = Job.build_stream ~mode:Spe_core.Delta.Delta spec wl in
      ignore (execute ~trace ~workers:o.workers transport planned);
      let reply = Job.reply_of planned in
      (* [--verify-full]: the same ingestion with every group
         recomputed every epoch, on sim. *)
      let full =
        if verify_full then begin
          let full, _ = Job.build_stream ~mode:Spe_core.Delta.Full spec wl in
          ignore (execute ~trace ~workers:o.workers `Sim full);
          Some (digests_of full)
        end
        else None
      in
      let wall = Unix.gettimeofday () -. t0 in
      let delta = digests_of planned in
      let mismatch = ref None in
      let verdicts =
        match full with
        | None -> [||]
        | Some full ->
          Array.mapi
            (fun e d ->
              if full.(e) = d then " = full"
              else begin
                if !mismatch = None then mismatch := Some e;
                Printf.sprintf " <> full %016x" full.(e)
              end)
            delta
      in
      print_reply ~top ~arrivals ~verdicts reply;
      let total = Array.fold_left ( + ) 0 arrivals in
      Printf.printf "%d epoch(s), %d record(s) in %.2f s (%.1f sustained updates/s)\n"
        epochs total wall
        (if wall > 0. then float_of_int total /. wall else 0.);
      match !mismatch with
      | None ->
        if verify_full then
          Printf.printf "verify-full: delta releases bit-identical to full recompute\n";
        `Ok ()
      | Some e ->
        `Error
          ( false,
            Printf.sprintf "verify-full: delta and full release digests diverge at epoch %d" e
          )
    in
    run_pipeline o spec ?refuse_connect ~local ()
  in
  let term =
    Term.(
      ret
        (const run $ seed_arg $ graph_opt_arg $ logs_opt_arg $ epoch_arg $ window_arg
       $ epochs_arg $ rate_arg $ burstiness_arg $ jitter_arg $ h_only_arg $ c_arg
       $ modulus_bits_arg $ stream_transport_arg $ top_arg $ verify_full_arg
       $ connect_arg $ jobs_arg))
  in
  Cmd.v
    (Cmd.info "stream"
       ~doc:
         "Replay the action logs as timestamped arrival streams and re-release link \
          strengths every epoch, re-running the secure protocols only over the counter \
          groups the window moved (Spe_core.Delta).  --verify-full checks the released \
          bits against a full per-epoch recompute.")
    term

(* --- spe campaign --------------------------------------------------------- *)

let campaign_cmd =
  let k = Arg.(value & opt int 5 & info [ "k"; "seed-count" ] ~docv:"K" ~doc:"Seed-set size.") in
  let samples =
    Arg.(
      value & opt int 200
      & info [ "samples" ] ~docv:"S" ~doc:"Monte-Carlo cascade samples per evaluation.")
  in
  let run seed graph_path log_paths h k samples =
    let graph = Graph_io.load graph_path in
    let logs = Array.of_list (List.map Log_io.load log_paths) in
    let s = State.create ~seed () in
    let r = Driver.link_strengths_exclusive s ~graph ~logs (Protocol4.default_config ~h) in
    let model = Maximize.of_strengths graph r.Driver.strengths in
    let seeds, spread = Maximize.celf s model ~k ~samples in
    Printf.printf "campaign seeds (CELF on securely learned strengths):\n";
    List.iteri (fun i u -> Printf.printf "  %d. user %d\n" (i + 1) u) seeds;
    Printf.printf "expected spread under the learned model: %.1f users\n" spread;
    wire_summary r.Driver.wire;
    `Ok ()
  in
  let term =
    Term.(ret (const run $ seed_arg $ graph_arg $ logs_arg $ h_arg $ k $ samples))
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:"Pick viral-marketing seeds from securely learned link strengths.")
    term

(* --- spe privacy ------------------------------------------------------------ *)

let privacy_cmd =
  let bound =
    Arg.(value & opt int 10 & info [ "bound" ] ~docv:"A" ~doc:"Counter range bound A.")
  in
  let trials =
    Arg.(value & opt int 1000 & info [ "trials" ] ~docv:"T" ~doc:"Trials per value of x.")
  in
  let prior =
    Arg.(
      value & opt string "uniform"
      & info [ "prior" ] ~docv:"PRIOR" ~doc:"Prior: 'uniform', 'unimodal' or 'geometric:P'.")
  in
  let run seed bound trials prior_spec =
    let prior =
      match prior_spec with
      | "uniform" -> Posterior.uniform_prior ~bound
      | "unimodal" -> Posterior.unimodal_prior ~bound
      | spec when String.length spec > 10 && String.sub spec 0 10 = "geometric:" -> (
        match float_of_string_opt (String.sub spec 10 (String.length spec - 10)) with
        | Some p -> Posterior.geometric_prior ~bound ~p
        | None -> failwith "bad --prior geometric:P")
      | other -> failwith (Printf.sprintf "unknown prior %S" other)
    in
    let s = State.create ~seed () in
    let r = Gain.run s ~prior ~trials_per_x:trials in
    Printf.printf "masking-gain experiment (Sec. 7.2): %d samples\n" (Array.length r.Gain.gains);
    Printf.printf "average gain      = %+.4f\n" r.Gain.average;
    Printf.printf "positive fraction = %.3f\n" r.Gain.positive_fraction;
    Format.printf "%a" Gain.pp_histogram r.Gain.histogram;
    `Ok ()
  in
  let term = Term.(ret (const run $ seed_arg $ bound $ trials $ prior)) in
  Cmd.v
    (Cmd.info "privacy" ~doc:"Run the Sec. 7.2 masking-gain experiment (Figure 1).")
    term

(* --- spe costs --------------------------------------------------------------- *)

let costs_cmd =
  let n = Arg.(value & opt int 1000 & info [ "users" ] ~docv:"N" ~doc:"Number of users.") in
  let q = Arg.(value & opt int 8000 & info [ "pairs" ] ~docv:"Q" ~doc:"Published pair count |E'|.") in
  let m = Arg.(value & opt int 5 & info [ "providers" ] ~docv:"M" ~doc:"Number of providers.") in
  let actions =
    Arg.(value & opt int 50 & info [ "actions" ] ~docv:"A" ~doc:"Total actions (Table 2).")
  in
  let z =
    Arg.(
      value & opt int 1024 & info [ "ciphertext-bits" ] ~docv:"Z" ~doc:"Ciphertext size in bits (Table 2).")
  in
  let run n q m modulus_bits actions z =
    let node_bits = Wire.bits_for_int_mod (max 2 n) in
    Printf.printf "Table 1 model (Protocol 4):\n";
    Format.printf "%a@."
      Model.pp
      (Model.table1 ~n ~q ~m ~modulus_bits ~node_bits ~counters:(n + q));
    let per = actions / m in
    let firsts = actions - (per * (m - 1)) in
    let actions_per_provider = Array.init m (fun k -> if k = 0 then firsts else per) in
    Printf.printf "\nTable 2 model (Protocol 6):\n";
    Format.printf "%a@."
      Model.pp
      (Model.table2 ~q ~m ~node_bits ~key_bits:(2 * z) ~ciphertext_bits:z
         ~actions_per_provider ());
    `Ok ()
  in
  let term = Term.(ret (const run $ n $ q $ m $ modulus_bits_arg $ actions $ z)) in
  Cmd.v
    (Cmd.info "costs" ~doc:"Print the analytic communication-cost tables (Sec. 7.1).")
    term

(* --- spe leakage ---------------------------------------------------------------- *)

let leakage_cmd =
  let bound =
    Arg.(value & opt int 100 & info [ "bound" ] ~docv:"A" ~doc:"Counter range bound A.")
  in
  let x = Arg.(value & opt int 50 & info [ "value" ] ~docv:"X" ~doc:"True aggregate value.") in
  let trials =
    Arg.(value & opt int 20000 & info [ "trials" ] ~docv:"T" ~doc:"Monte-Carlo trials.")
  in
  let run seed modulus_bits bound x trials =
    let modulus = 1 lsl modulus_bits in
    let t = Leakage.theoretical ~modulus ~input_bound:bound ~x in
    let s = State.create ~seed () in
    let o = Leakage.monte_carlo s ~modulus ~input_bound:bound ~x ~trials in
    let rate hits = float_of_int hits /. float_of_int trials in
    Printf.printf "Protocol 2 leak rates at S = 2^%d, A = %d, x = %d (%d trials):\n"
      modulus_bits bound x trials;
    Printf.printf "  P2 lower bound: theory %.5f, measured %.5f\n" t.Leakage.p2_lower
      (rate o.Leakage.p2_lower_hits);
    Printf.printf "  P2 upper bound: theory %.5f, measured %.5f\n" t.Leakage.p2_upper
      (rate o.Leakage.p2_upper_hits);
    Printf.printf "  P3 any bound:   bound  %.5f, measured %.5f\n"
      (t.Leakage.p3_lower +. t.Leakage.p3_upper)
      (rate (o.Leakage.p3_lower_hits + o.Leakage.p3_upper_hits));
    `Ok ()
  in
  let term = Term.(ret (const run $ seed_arg $ modulus_bits_arg $ bound $ x $ trials)) in
  Cmd.v
    (Cmd.info "leakage" ~doc:"Measure Protocol 2's Theorem 4.1 leak rates empirically.")
    term

(* --- spe em ------------------------------------------------------------------------ *)

let em_cmd =
  let iterations =
    Arg.(value & opt int 100 & info [ "iterations" ] ~docv:"I" ~doc:"Maximum EM iterations.")
  in
  let run graph_path log_paths h iterations top =
    let graph = Graph_io.load graph_path in
    let logs = List.map Log_io.load log_paths in
    let log = Partition.reunify (Array.of_list logs) in
    let result = Spe_influence.Em.learn log graph ~h ~max_iterations:iterations in
    let strengths = Spe_influence.Em.to_strengths result graph in
    let sorted = List.sort (fun (_, a) (_, b) -> Stdlib.compare b a) strengths in
    Printf.printf "EM baseline (Saito et al.), %d iterations, final log-likelihood %.2f\n"
      result.Spe_influence.Em.iterations
      (match List.rev result.Spe_influence.Em.log_likelihood with ll :: _ -> ll | [] -> nan);
    Printf.printf "top %d arcs:\n" top;
    List.iteri
      (fun i ((u, v), p) -> if i < top then Printf.printf "  %6d -> %-6d  %.4f\n" u v p)
      sorted;
    Printf.printf
      "note: EM runs on the unified log in the clear - it is the non-private baseline\n\
       the paper's counting estimator (spe links) replaces.\n";
    `Ok ()
  in
  let term = Term.(ret (const run $ graph_arg $ logs_arg $ h_arg $ iterations $ top_arg)) in
  Cmd.v
    (Cmd.info "em"
       ~doc:"Learn influence probabilities with the EM baseline (non-private reference).")
    term

(* --- spe metrics ------------------------------------------------------------------- *)

let metrics_cmd =
  let run graph_path =
    let g = Graph_io.load graph_path in
    let module Metrics = Spe_graph.Metrics in
    Printf.printf "nodes              %d\n" (Digraph.n g);
    Printf.printf "arcs               %d\n" (Digraph.edge_count g);
    Printf.printf "max out-degree     %d\n" (Metrics.max_degree g `Out);
    Printf.printf "max in-degree      %d\n" (Metrics.max_degree g `In);
    Printf.printf "reciprocity        %.3f\n" (Metrics.reciprocity g);
    Printf.printf "global clustering  %.3f\n" (Metrics.global_clustering g);
    let pr = Metrics.pagerank g in
    Printf.printf "top PageRank users:";
    List.iter (fun v -> Printf.printf " %d (%.4f)" v pr.(v)) (Metrics.top_k 5 pr);
    Printf.printf "\n";
    `Ok ()
  in
  let term = Term.(ret (const run $ graph_arg)) in
  Cmd.v (Cmd.info "metrics" ~doc:"Print structural metrics of a social graph file.") term

(* --- spe verify ---------------------------------------------------------------------- *)

let verify_cmd =
  let run seed graph_path log_paths h =
    let graph = Graph_io.load graph_path in
    let logs = Array.of_list (List.map Log_io.load log_paths) in
    let s = State.create ~seed () in
    let r = Driver.link_strengths_exclusive s ~graph ~logs (Protocol4.default_config ~h) in
    (* The plaintext reference on the unified log the protocol never
       materialises. *)
    let unified = Partition.reunify logs in
    let ct =
      Spe_influence.Counters.compute unified ~h ~pairs:r.Driver.detail.Protocol4.pairs
    in
    let reference =
      Link_strength.restrict_to_graph ct (Link_strength.all_eq1 ct) graph
    in
    let max_err = ref 0. and worst = ref (0, 0) in
    List.iter2
      (fun ((u, v), exact) (_, secure) ->
        let err = abs_float (exact -. secure) in
        if err > !max_err then begin
          max_err := err;
          worst := (u, v)
        end)
      reference r.Driver.strengths;
    Printf.printf "verified %d arcs against the plaintext reference\n"
      (List.length r.Driver.strengths);
    Printf.printf "max |secure - exact| = %.3e (arc %d -> %d)\n" !max_err (fst !worst)
      (snd !worst);
    Printf.printf "%s\n"
      (if !max_err < 1e-3 then "OK: within the float-masking noise bound (1e-3)"
       else "WARNING: deviation exceeds the expected noise bound");
    wire_summary r.Driver.wire;
    `Ok ()
  in
  let term = Term.(ret (const run $ seed_arg $ graph_arg $ logs_arg $ h_arg)) in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Run the secure pipeline AND the plaintext reference on the same files and \
          report the deviation.")
    term

(* --- spe shares ----------------------------------------------------------------------- *)

(* Run the distributed sharing protocols (1 and 2) over a chosen
   engine: the in-process simulated wire, the in-memory transport or
   real Unix-domain sockets.  The shares and the NR/NM/MS statistics
   are engine-independent; the real transports additionally report the
   measured framed bytes and the framing overhead (DESIGN.md,
   "Framing overhead"). *)

let shares_cmd =
  let module P1d = Spe_mpc.Protocol1_distributed in
  let module P2d = Spe_mpc.Protocol2_distributed in
  let module Session = Spe_mpc.Session in
  let module Runtime = Spe_mpc.Runtime in
  let module Endpoint = Spe_net.Endpoint in
  let module Net_wire = Spe_net.Net_wire in
  let protocol_arg =
    Arg.(
      value
      & opt (enum [ ("1", `P1); ("2", `P2) ]) `P1
      & info [ "protocol" ] ~docv:"P"
          ~doc:"Which sharing protocol: 1 (modular shares) or 2 (integer shares).")
  in
  let transport_arg =
    Arg.(
      value
      & opt (enum [ ("sim", `Sim); ("memory", `Memory); ("socket", `Socket) ]) `Sim
      & info [ "transport" ] ~docv:"T"
          ~doc:
            "Engine hosting the party programs: the simulated wire (sim), in-memory \
             channels (memory) or Unix-domain sockets (socket).")
  in
  let providers_arg =
    Arg.(value & opt int 3 & info [ "providers" ] ~docv:"M" ~doc:"Number of sharing parties.")
  in
  let counters_arg =
    Arg.(value & opt int 8 & info [ "counters" ] ~docv:"L" ~doc:"Counters shared per party.")
  in
  let bound_arg =
    Arg.(
      value & opt int 1000
      & info [ "bound" ] ~docv:"A" ~doc:"Protocol 2 aggregate bound A (ignored by protocol 1).")
  in
  let run seed protocol transport m len modulus_bits bound trace_file metrics =
    if m < 2 then `Error (false, "need at least two providers")
    else begin
      let modulus = 1 lsl modulus_bits in
      let parties = Array.init m (fun k -> Wire.Provider k) in
      let gen = State.create ~seed:(seed lxor 0x5e) () in
      let per_party_max = match protocol with `P1 -> modulus | `P2 -> bound / m in
      let inputs =
        Array.init m (fun _ -> Array.init len (fun _ -> State.next_int gen (max 1 per_party_max)))
      in
      let s = State.create ~seed () in
      let parties', programs, extract =
        match protocol with
        | `P1 ->
          let session = P1d.make s ~parties ~modulus ~inputs in
          ( session.Session.parties,
            session.Session.programs,
            fun () ->
              let r = session.Session.result () in
              (r.Spe_mpc.Protocol1.share1, r.Spe_mpc.Protocol1.share2) )
        | `P2 ->
          let session =
            P2d.make s ~parties ~third_party:Wire.Host ~modulus ~input_bound:bound ~inputs
          in
          ( session.Session.parties,
            session.Session.programs,
            fun () ->
              let r = session.Session.result () in
              (r.Spe_mpc.Protocol2.share1, r.Spe_mpc.Protocol2.share2) )
      in
      let max_rounds = match protocol with `P1 -> P1d.max_rounds | `P2 -> P2d.max_rounds in
      let trace = obs_trace trace_file metrics in
      let stats, transport_bytes =
        match transport with
        | `Sim ->
          let engine = Runtime.create () in
          Array.iteri (fun k p -> Runtime.add_party engine p programs.(k)) parties';
          let w = Wire.create () in
          let _rounds =
            Spe_obs.Trace.span trace Spe_obs.Trace.Session "session" (fun () ->
                Runtime.run ~trace engine ~wire:w ~max_rounds)
          in
          (Wire.stats w, None)
        | `Memory | `Socket ->
          let res =
            Spe_obs.Trace.span trace Spe_obs.Trace.Session "session" (fun () ->
                match transport with
                | `Memory ->
                  Endpoint.run_memory ~trace ~parties:parties' ~programs ~max_rounds ()
                | _ -> Endpoint.run_socket ~trace ~parties:parties' ~programs ~max_rounds ())
          in
          let logs =
            Array.map (fun (o : Endpoint.outcome) -> o.Endpoint.sent) res.Endpoint.outcomes
          in
          (Wire.stats (Net_wire.merge logs), Some (res.Endpoint.transport_bytes, Net_wire.totals logs))
      in
      let share1, share2 = extract () in
      let preview = min len 8 in
      Printf.printf "protocol %s over %s, %d providers, %d counters, S = 2^%d\n"
        (match protocol with `P1 -> "1" | `P2 -> "2")
        (match transport with `Sim -> "the simulated wire" | `Memory -> "in-memory channels"
                            | `Socket -> "unix sockets")
        m len modulus_bits;
      Printf.printf "share1:";
      for l = 0 to preview - 1 do Printf.printf " %d" share1.(l) done;
      if preview < len then Printf.printf " ...";
      Printf.printf "\nshare2:";
      for l = 0 to preview - 1 do Printf.printf " %d" share2.(l) done;
      if preview < len then Printf.printf " ...";
      Printf.printf "\n";
      let ok = ref true in
      for l = 0 to len - 1 do
        let x = Array.fold_left (fun acc v -> acc + v.(l)) 0 inputs in
        let reconstructed =
          match protocol with
          | `P1 -> (share1.(l) + share2.(l)) mod modulus = x mod modulus
          | `P2 -> share1.(l) + share2.(l) = x
        in
        if not reconstructed then ok := false
      done;
      Printf.printf "reconstruction check: %s\n" (if !ok then "OK" else "FAILED");
      wire_summary stats;
      (match transport_bytes with
      | None -> ()
      | Some (total, totals) ->
        Printf.printf
          "transport: %d framed bytes on the wire (%d payload, overhead factor %.3f)\n"
          total totals.Net_wire.payload_bytes
          (float_of_int total /. float_of_int (max 1 totals.Net_wire.payload_bytes)));
      emit_observability
        ~protocol:(match protocol with `P1 -> "shares-p1" | `P2 -> "shares-p2")
        ~engine:(engine_name transport) ~messages:stats.Wire.messages
        ~payload_bytes:(stats.Wire.bits / 8) ~net:transport_bytes
        [ (None, trace, Array.length parties') ]
        trace_file metrics;
      if !ok then `Ok () else `Error (false, "share reconstruction failed")
    end
  in
  let term =
    Term.(
      ret
        (const run $ seed_arg $ protocol_arg $ transport_arg $ providers_arg $ counters_arg
       $ modulus_bits_arg $ bound_arg $ trace_file_arg $ metrics_arg))
  in
  Cmd.v
    (Cmd.info "shares"
       ~doc:
         "Run the distributed sharing protocols over a real transport (or the simulated \
          wire) and compare the costs.")
    term

(* --- spe serve / scrape / shutdown ---------------------------------------------------- *)

(* Long-lived party daemons (lib/serve).  Each party of the deployment
   runs one `spe serve` process; `spe links|scores --connect` submits
   jobs to the host daemon; `spe scrape` reads a daemon's live metrics;
   `spe shutdown` drains and stops a whole roster. *)

let roster_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "roster" ] ~docv:"SPEC"
        ~doc:
          "Every party's daemon address, in any order: \
           H=ADDR,P1=ADDR,...,Pm=ADDR where ADDR is HOST:PORT or unix:PATH.")

let serve_cmd =
  let party_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "party" ] ~docv:"P" ~doc:"Which party this daemon is: H, P1, P2, ...")
  in
  let listen_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "Bind override (default: this party's roster entry) — e.g. bind 0.0.0.0 \
             while the roster advertises a hostname.")
  in
  let max_sessions_arg =
    Arg.(
      value & opt int 4
      & info [ "max-sessions" ] ~docv:"N"
          ~doc:"Concurrent pipeline jobs at H (admission control bound).")
  in
  let max_queue_arg =
    Arg.(
      value & opt int 64
      & info [ "max-queue" ] ~docv:"N"
          ~doc:"Jobs allowed to wait past the active set; beyond it submissions get a \
                typed busy reply.")
  in
  let metrics_addr_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-addr" ] ~docv:"ADDR"
          ~doc:
            "Also serve live metrics (spe-serve-metrics/1: scheduler gauges plus the \
             cumulative spe-metrics/2 report) at ADDR, over plain TCP or HTTP — see \
             spe scrape and OBSERVABILITY.md.")
  in
  let run party roster listen max_sessions max_queue metrics_addr graph_path log_paths =
    let ( let* ) r f = match r with Error msg -> `Error (true, msg) | Ok v -> f v in
    let* () = if max_sessions < 1 then Error "--max-sessions must be at least 1" else Ok () in
    let* () = if max_queue < 1 then Error "--max-queue must be at least 1" else Ok () in
    let* party = Serve_addr.party_of_string party in
    let* roster = Serve_addr.roster_of_string roster in
    let* listen =
      match listen with
      | None -> Ok None
      | Some s -> Result.map Option.some (Serve_addr.parse s)
    in
    let* metrics_addr =
      match metrics_addr with
      | None -> Ok None
      | Some s -> Result.map Option.some (Serve_addr.parse s)
    in
    if party >= Array.length roster then
      `Error
        ( true,
          Printf.sprintf "--party %s is outside the %d-party roster"
            (Serve_addr.party_name party) (Array.length roster) )
    else if List.length log_paths <> Array.length roster - 1 then
      `Error
        ( true,
          Printf.sprintf
            "the roster has %d providers but %d --log files were given; every daemon \
             loads the full workload (the plan rebuild is what makes the deployment \
             deterministic)"
            (Array.length roster - 1) (List.length log_paths) )
    else begin
      let graph = Graph_io.load graph_path in
      let logs = Array.of_list (List.map Log_io.load log_paths) in
      let config =
        {
          (Serve_daemon.default_config ~party ~roster) with
          Serve_daemon.listen;
          max_sessions;
          max_queue;
          metrics_addr;
        }
      in
      let shown = match listen with Some a -> a | None -> roster.(party) in
      Printf.printf "%s: %s listening on %s (%d parties, %d sessions, queue %d)%s\n%!"
        Serve_proto.protocol
        (Serve_addr.party_name party)
        (Serve_addr.to_string shown)
        (Array.length roster) max_sessions max_queue
        (match metrics_addr with
        | Some a -> Printf.sprintf ", metrics on %s" (Serve_addr.to_string a)
        | None -> "");
      match Serve_daemon.run config { Spe_serve.Job.graph; logs } with
      | () -> `Ok ()
      | exception Failure msg -> `Error (false, msg)
      | exception Unix.Unix_error (err, _, _) ->
        `Error
          ( false,
            Printf.sprintf "cannot serve on %s: %s"
              (Serve_addr.to_string shown) (Unix.error_message err) )
    end
  in
  let term =
    Term.(
      ret
        (const run $ party_arg $ roster_arg $ listen_arg $ max_sessions_arg $ max_queue_arg
       $ metrics_addr_arg $ graph_arg $ logs_arg))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run one party as a long-lived daemon (spe-serve/3): connections to the peer \
          daemons are established once and reused across every submitted pipeline job; \
          the host daemon owns admission control.  Submit work with spe \
          links|scores|rank|stream --connect.")
    term

let scrape_cmd =
  let addr_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "connect" ] ~docv:"ADDR" ~doc:"A daemon's --metrics-addr endpoint.")
  in
  let run addr_spec =
    match Serve_addr.parse addr_spec with
    | Error msg -> `Error (true, "--connect " ^ msg)
    | Ok addr -> (
      match Serve_client.scrape addr with
      | doc ->
        print_string doc;
        `Ok ()
      | exception Unix.Unix_error (err, _, _) ->
        `Error
          ( false,
            Printf.sprintf "cannot scrape %s: %s" (Serve_addr.to_string addr)
              (Unix.error_message err) ))
  in
  Cmd.v
    (Cmd.info "scrape"
       ~doc:
         "Fetch a serve daemon's live metrics document (spe-serve-metrics/1) from its \
          --metrics-addr.")
    Term.(ret (const run $ addr_arg))

let shutdown_cmd =
  let timeout_arg =
    Arg.(
      value & opt float 30.
      & info [ "timeout" ] ~docv:"S" ~doc:"Per-daemon drain timeout in seconds.")
  in
  let run roster timeout =
    match Serve_addr.roster_of_string roster with
    | Error msg -> `Error (true, msg)
    | Ok roster -> (
      match Serve_client.shutdown_roster ~timeout roster with
      | [] ->
        Printf.printf "all %d daemons drained and stopped\n" (Array.length roster);
        `Ok ()
      | stragglers ->
        `Error
          ( false,
            Printf.sprintf "daemon(s) did not confirm shutdown in %.0f s: %s" timeout
              (String.concat ", " (List.map Serve_addr.party_name stragglers)) )
      | exception Serve_client.Connection_lost msg -> `Error (false, msg))
  in
  Cmd.v
    (Cmd.info "shutdown"
       ~doc:
         "Gracefully stop a whole daemon roster: H first (it drains in-flight jobs and \
          refuses queued ones with typed replies), then each provider.")
    Term.(ret (const run $ roster_arg $ timeout_arg))

(* --- spe chaos ------------------------------------------------------------------------ *)

(* Deterministic fault campaigns over the sharded pipelines: generate
   seeded fault schedules, run them through Spe_chaos.Harness's
   invariant oracles, shrink every violation to a minimal spe-schedule/1
   reproducer, and replay saved reproducers exactly. *)

let chaos_cmd =
  let module Schedule = Spe_chaos.Schedule in
  let module Harness = Spe_chaos.Harness in
  let module Campaign = Spe_chaos.Campaign in
  let campaign_arg =
    Arg.(
      value & opt int 0
      & info [ "campaign" ] ~docv:"N" ~doc:"Run N seeded fault schedules.")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"Replay one saved spe-schedule/1 document instead of a campaign.")
  in
  let target_arg =
    Arg.(
      value
      & opt (enum [ ("links", `Links); ("scores", `Scores); ("both", `Both) ]) `Both
      & info [ "target" ] ~docv:"PIPELINE"
          ~doc:"Which pipeline(s) to torment: links, scores or both.")
  in
  let chaos_engine_arg =
    Arg.(
      value
      & opt (enum [ ("memory", `Memory); ("socket", `Socket); ("both", `Both) ]) `Both
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:"Which transport engine(s) to run on: memory, socket or both.")
  in
  let out_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out-dir" ] ~docv:"DIR"
          ~doc:"Write each shrunk failing schedule to DIR/chaos-ID.json.")
  in
  let daemon_kill_arg =
    Arg.(
      value & flag
      & info [ "daemon-kill" ]
          ~doc:
            "Fault at whole-party granularity: fork a live spe-serve deployment per \
             seed, SIGKILL one provider daemon mid-burst, and check every client gets \
             a typed reply (never a hang), surviving results match the central oracle, \
             and the host keeps serving.  Uses --campaign N seeds and --target.")
  in
  let run campaign seed replay target engine out_dir daemon_kill =
    let read_file path =
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    in
    let requested_pipeline =
      match target with
      | `Links -> Some Schedule.Links
      | `Scores -> Some Schedule.Scores
      | `Both -> None
    in
    match replay with
    | Some _ when daemon_kill ->
      `Error (true, "--replay and --daemon-kill are mutually exclusive")
    | Some path -> (
      match Schedule.of_string (read_file path) with
      | exception Failure msg -> `Error (false, path ^ ": " ^ msg)
      | sched when Result.is_error (Schedule.check_replay_target sched ~requested:requested_pipeline) ->
        `Error
          ( false,
            path ^ ": "
            ^ Result.fold ~ok:(fun () -> "") ~error:Fun.id
                (Schedule.check_replay_target sched ~requested:requested_pipeline) )
      | sched -> (
        Printf.printf "replaying schedule %s: %s over %s, %d events (seed %d)\n%!"
          (Schedule.id sched)
          (Schedule.pipeline_name sched.Schedule.pipeline)
          (Schedule.engine_name sched.Schedule.engine)
          (List.length sched.Schedule.events)
          sched.Schedule.seed;
        match Harness.run sched with
        | Harness.Pass ->
          Printf.printf "replay: all invariant oracles passed\n";
          `Ok ()
        | Harness.Fail { oracle; detail } ->
          `Error (false, Printf.sprintf "invariant violation (%s): %s" oracle detail)))
    | None when daemon_kill ->
      let n = max campaign 1 in
      let pipelines =
        match requested_pipeline with
        | Some p -> [ p ]
        | None -> [ Schedule.Links; Schedule.Scores ]
      in
      let violations = ref 0 in
      List.iter
        (fun pipeline ->
          for s = seed to seed + n - 1 do
            Printf.printf "daemon-kill %s seed %d: %!" (Schedule.pipeline_name pipeline) s;
            match Spe_chaos.Daemon_fault.run ~seed:s pipeline with
            | Harness.Pass -> Printf.printf "pass\n%!"
            | Harness.Fail { oracle; detail } ->
              incr violations;
              Printf.printf "%s violation: %s\n%!" oracle detail
          done)
        pipelines;
      if !violations = 0 then `Ok ()
      else `Error (false, Printf.sprintf "%d invariant violation(s)" !violations)
    | None ->
      if campaign <= 0 then `Error (true, "use --campaign N or --replay FILE")
      else begin
        let pipelines =
          match target with
          | `Links -> [ Schedule.Links ]
          | `Scores -> [ Schedule.Scores ]
          | `Both -> [ Schedule.Links; Schedule.Scores ]
        in
        let engines =
          match engine with
          | `Memory -> [ Schedule.Memory ]
          | `Socket -> [ Schedule.Socket ]
          | `Both -> [ Schedule.Memory; Schedule.Socket ]
        in
        let targets =
          List.concat_map (fun p -> List.map (fun e -> (p, e)) engines) pipelines
        in
        let t0 = Unix.gettimeofday () in
        let summary =
          Campaign.run
            ~on_result:(fun s sched outcome ->
              match outcome with
              | Harness.Pass -> ()
              | Harness.Fail { oracle; _ } ->
                Printf.printf "seed %d (%s/%s, schedule %s): %s violation, shrinking...\n%!"
                  s
                  (Schedule.pipeline_name sched.Schedule.pipeline)
                  (Schedule.engine_name sched.Schedule.engine)
                  (Schedule.id sched) oracle)
            ~seeds:campaign ~seed ~targets ()
        in
        let elapsed = Unix.gettimeofday () -. t0 in
        List.iter
          (fun (v : Campaign.violation) ->
            let Harness.{ oracle; detail } = v.Campaign.failure in
            Printf.printf
              "seed %d: %s violation shrunk to %d event(s) (schedule %s): %s\n" v.Campaign.seed
              oracle
              (List.length v.Campaign.shrunk.Schedule.events)
              (Schedule.id v.Campaign.shrunk)
              detail;
            match out_dir with
            | None -> ()
            | Some dir ->
              (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
              let path =
                Filename.concat dir
                  (Printf.sprintf "chaos-%s.json" (Schedule.id v.Campaign.shrunk))
              in
              let oc = open_out path in
              output_string oc (Schedule.to_string v.Campaign.shrunk);
              close_out oc;
              Printf.printf "wrote %s\n" path)
          summary.Campaign.violations;
        Printf.printf "campaign: %d schedules in %.1f s, %d violation(s)\n"
          summary.Campaign.runs elapsed
          (List.length summary.Campaign.violations);
        if summary.Campaign.violations = [] then `Ok ()
        else
          `Error
            ( false,
              Printf.sprintf "%d invariant violation(s)"
                (List.length summary.Campaign.violations) )
      end
  in
  let term =
    Term.(
      ret
        (const run $ campaign_arg $ seed_arg $ replay_arg $ target_arg $ chaos_engine_arg
       $ out_dir_arg $ daemon_kill_arg))
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run deterministic fault campaigns against the sharded pipelines (drops, \
          delays, duplicates, dead links, killed workers) and shrink any invariant \
          violation to a replayable spe-schedule/1 file.")
    term

(* --- entry point ------------------------------------------------------------------ *)

let () =
  let doc = "privacy-preserving estimation of social influence (EDBT 2014)" in
  let info = Cmd.info "spe" ~version:"1.0.0" ~doc in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [ generate_cmd; links_cmd; scores_cmd; rank_cmd; stream_cmd; campaign_cmd; serve_cmd;
            scrape_cmd; shutdown_cmd; chaos_cmd; privacy_cmd; costs_cmd; leakage_cmd;
            em_cmd; metrics_cmd; verify_cmd; shares_cmd ]))
