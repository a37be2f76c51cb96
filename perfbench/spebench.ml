(* The daemon benchmark.  One run generates a seeded workload, deploys
   H plus two provider daemons as separate processes, keeps two jobs in
   flight from one client connection for --seconds, verifies every
   reply off the clock, and prints one JSON line of metrics last.

   --trace 0 prints the end-to-end metrics, taken from outside the
   daemons only: the client clock and /proc/<pid>/{stat,io,status}.
   --trace 1 prints the per-layer metrics: an untraced phase for the
   per-daemon /proc split, a traced deployment whose spe-metrics/2
   reports are scraped at the end, and an in-process replay of the same
   job specs with a span around every layer call.  No end-to-end metric
   comes from a traced run. *)

module Proto = Spe_serve.Serve_proto

type inject = No_fault | Corrupt_reply | Stall_provider

type options = {
  workload : Workload.t;
  seed : int;
  seconds : float;
  trace : bool;
  dir : string;  (** Scratch directory of this run: inputs and sockets. *)
  spans_file : string option;
  inject : inject;
}

let in_flight = 2

(* Per-job deadline, far below the daemons' 300 s round timeout. *)
let deadline = 30.

(* peak_rss_mb is read when this many replies of the timed phase have
   come, so it prices a fixed amount of work: the daemons' peak grows
   with the jobs they have completed (perfbench/NOTES.md). *)
let rss_jobs = 50

(* Set-ups per untraced run; setup_s is their median. *)
let setup_runs = 5

(* --- statistics ------------------------------------------------------------- *)

let median = Replay.median

(* job_tail_s: over all N latencies of the run, the highest whole
   percentile q that leaves at least 10 samples beyond it, by nearest
   rank (the sample of rank ceil(q N / 100)); the maximum when N is 10
   or less.  Returns (q, value). *)
let tail latencies =
  let a = Array.of_list latencies in
  Array.sort compare a;
  let n = Array.length a in
  let rank q = ((q * n) + 99) / 100 in
  let rec highest q = if q = 0 || n - rank q >= 10 then q else highest (q - 1) in
  match highest 99 with
  | _ when n = 0 -> (100, 0.)
  | 0 -> (100, a.(n - 1))
  | q -> (q, a.(rank q - 1))

(* --- one measured phase -------------------------------------------------------- *)

type measured = {
  phase : Loop.phase;
  verdicts : (unit, string) result list;  (** One per job, submission order. *)
  cpu : Procfs.sample array;  (** Per daemon, over the phase. *)
  client_cpu : float;  (** This process's CPU over the phase. *)
  hwm_kb : int array;  (** Per daemon, when [rss_jobs] replies had come (or at the end). *)
  hwm_end_kb : int array;  (** Per daemon, at the end of the phase. *)
  steal : float;
  reports : Spe_obs.Metrics.report list;  (** Scraped, traced deployments only. *)
}

let ok_jobs m = List.length (List.filter Result.is_ok m.verdicts)

let attempted m = List.length m.phase.Loop.jobs

let per_ok m x = x /. float_of_int (max 1 (ok_jobs m))

let jobs_per_s m = float_of_int (ok_jobs m) /. Float.max 1e-9 (m.phase.Loop.t1 -. m.phase.Loop.t0)

let cpu_total m = Array.fold_left (fun acc s -> acc +. s.Procfs.cpu_s) 0. m.cpu

let sum_int f m = float_of_int (Array.fold_left (fun acc s -> acc + f s) 0 m.cpu)

let corrupt = function
  | Proto.Strengths (((arc, p) :: rest)) -> Proto.Strengths ((arc, p +. 0.5) :: rest)
  | Proto.Scores a -> Proto.Scores (Array.mapi (fun i x -> if i = 0 then x +. 0.5 else x) a)
  | Proto.Stream_summary ({ strengths = (arc, p) :: rest; _ } as s) ->
    Proto.Stream_summary { s with strengths = (arc, p +. 0.5) :: rest }
  | reply -> reply

(* Verify every reply against the plaintext reference, and one
   rotating job bit for bit against the in-process oracle.  A job with
   no reply, a failed reply or a mismatch counts as failed. *)
let verify o oracle (phase : Loop.phase) =
  let checked =
    List.mapi
      (fun i (job : Loop.job) ->
        match job.Loop.reply with
        | None -> (job, Error (Printf.sprintf "no reply within the %.0f s deadline" deadline))
        | Some reply ->
          (job, Oracle.check oracle (if o.inject = Corrupt_reply && i = 0 then corrupt reply else reply)))
      phase.Loop.jobs
  in
  match List.filter (fun (_, v) -> Result.is_ok v) checked with
  | [] -> List.map snd checked
  | verified ->
    let pick, _ = List.nth verified (o.seed mod List.length verified) in
    let exact = Oracle.exact oracle pick.Loop.spec (Option.get pick.Loop.reply) in
    List.map (fun (job, v) -> if job == pick then exact else v) checked

let measure o oracle (dep : Deploy.t) ~next =
  let pids = Deploy.pids dep in
  if o.inject = Stall_provider then Unix.kill pids.(Array.length pids - 1) Sys.sigstop;
  let host0 = Procfs.host_ticks () in
  let before = Array.map Procfs.sample pids in
  let client0 = Replay.process_cpu () in
  let hwm_at = ref None in
  let on_reply n = if n = rss_jobs then hwm_at := Some (Array.map Procfs.vm_hwm_kb pids) in
  let phase = Loop.run dep.Deploy.client ~next ~in_flight ~seconds:o.seconds ~deadline ~on_reply in
  let client_cpu = Replay.process_cpu () -. client0 in
  let after = Array.map Procfs.sample pids in
  let steal = Procfs.steal_share host0 (Procfs.host_ticks ()) in
  let hwm_end_kb = Array.map Procfs.vm_hwm_kb pids in
  let hwm_kb = Option.value ~default:hwm_end_kb !hwm_at in
  let reports =
    if phase.Loop.stalled then begin
      Deploy.kill dep;
      []
    end
    else begin
      let reports = Deploy.scrape_reports dep in
      Deploy.stop dep;
      reports
    end
  in
  { phase; verdicts = verify o oracle phase; cpu = Array.map2 Procfs.diff before after; client_cpu; hwm_kb; hwm_end_kb; steal;
    reports }

(* Deploy, then run and verify one warm-up job.  The returned time runs
   from the first fork until every daemon has a full mesh and the
   warm-up reply is verified. *)
let setup o oracle ~next ~traced =
  let t0 = Unix.gettimeofday () in
  let dep = Deploy.start ~dir:o.dir ~traced in
  let warm = Loop.run dep.Deploy.client ~next ~in_flight:1 ~seconds:0. ~deadline ~on_reply:ignore in
  let verdict =
    match warm.Loop.jobs with
    | [ { Loop.reply = Some reply; _ } ] -> Oracle.check oracle reply
    | _ -> Error (Printf.sprintf "no reply within the %.0f s deadline" deadline)
  in
  match verdict with
  | Ok () -> (dep, Unix.gettimeofday () -. t0)
  | Error e ->
    Deploy.kill dep;
    failwith ("warm-up job: " ^ e)

(* --- output ------------------------------------------------------------------- *)

let number f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0"

let result_line ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct attempted
    failed
    (String.concat ", "
       (List.map
          (fun (name, value, unit) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number value) unit)
          metrics))

let failures m =
  List.iteri
    (fun i v -> match v with Error e -> Printf.printf "job %d failed: %s\n" i e | Ok () -> ())
    m.verdicts

let cpu_split m =
  String.concat " "
    (Array.to_list (Array.mapi (fun p s -> Printf.sprintf "%s=%.4f" (Spe_serve.Addr.party_name p) (per_ok m s.Procfs.cpu_s)) m.cpu))

let latencies m =
  List.map2 (fun job v -> Loop.latency ~deadline ~ok:(Result.is_ok v) job) m.phase.Loop.jobs m.verdicts

let rss_split kbs =
  String.concat " "
    (Array.to_list
       (Array.mapi (fun p kb -> Printf.sprintf "%s=%.1f" (Spe_serve.Addr.party_name p) (float_of_int kb /. 1024.)) kbs))

(* Host noise next to every run: diagnostics, not gates. *)
let diagnostics o label m =
  failures m;
  let q, _ = tail (latencies m) in
  Printf.printf "%s %s seed %d: %d jobs in %.2f s, %d failed; job_tail_s is p%d of N=%d\n" label
    o.workload.Workload.name o.seed (attempted m) (m.phase.Loop.t1 -. m.phase.Loop.t0)
    (attempted m - ok_jobs m) q (attempted m);
  Printf.printf "%s host.steal_share %.4f; cpu s/job %s client=%.4f\n" label m.steal (cpu_split m)
    (per_ok m m.client_cpu);
  Printf.printf "%s peak rss MB at reply %d: %s; at the end: %s\n" label
    (min rss_jobs (List.length (List.filter (fun (j : Loop.job) -> j.Loop.reply <> None) m.phase.Loop.jobs)))
    (rss_split m.hwm_kb) (rss_split m.hwm_end_kb)

let end_to_end m ~setups =
  let lat = latencies m in
  [
    ("setup_s", median setups, "s");
    ("jobs_per_s", jobs_per_s m, "1/s");
    ("job_p50_s", median lat, "s");
    ("job_tail_s", snd (tail lat), "s");
    ("cpu_s_per_job", per_ok m (cpu_total m), "s");
    ("wire_bytes_per_job", per_ok m (sum_int (fun s -> s.Procfs.wchar) m), "B");
    ("peak_rss_mb", float_of_int (Array.fold_left ( + ) 0 m.hwm_kb) /. 1024., "MB");
  ]

(* --- the two kinds of run ------------------------------------------------------ *)

let job_source o =
  let count = ref 0 in
  fun () ->
    let i = !count in
    incr count;
    Workload.job_spec o.workload ~seed:o.seed i

let untraced o =
  let oracle = Oracle.start o.workload ~seed:o.seed ~inputs:o.dir in
  let next = job_source o in
  let rec setups i acc =
    let dep, t = setup o oracle ~next ~traced:false in
    if i < setup_runs then begin
      Deploy.stop dep;
      setups (i + 1) (t :: acc)
    end
    else (dep, t :: acc)
  in
  let dep, setup_times = setups 1 [] in
  let m = measure o oracle dep ~next in
  Oracle.stop oracle;
  diagnostics o "untraced" m;
  Printf.printf "untraced setup_s samples: %s\n"
    (String.concat " " (List.rev_map (Printf.sprintf "%.4f") setup_times));
  let failed = attempted m - ok_jobs m in
  result_line ~correct:(failed = 0) ~attempted:(attempted m) ~failed (end_to_end m ~setups:setup_times)

(* Sum of compute time per party label over the scraped reports. *)
let compute_by_party reports =
  let by = Hashtbl.create 4 in
  List.iter
    (fun (r : Spe_obs.Metrics.report) ->
      List.iter
        (fun (c : Spe_obs.Metrics.compute_row) ->
          Hashtbl.replace by c.Spe_obs.Metrics.party
            (c.Spe_obs.Metrics.total_s +. Option.value ~default:0. (Hashtbl.find_opt by c.Spe_obs.Metrics.party)))
        r.Spe_obs.Metrics.compute)
    reports;
  by

let drop_replies m =
  List.iter (fun (job : Loop.job) -> job.Loop.reply <- None) m.phase.Loop.jobs;
  Gc.compact ()

(* The traced run splits --seconds between its untraced and traced
   phases and gives the replay at most a quarter more, so a traced run
   takes about as long as an untraced one. *)
let traced o =
  let oracle = Oracle.start o.workload ~seed:o.seed ~inputs:o.dir in
  let next = job_source o in
  let o = { o with seconds = o.seconds /. 2. } in
  (* Both deployments are forked before this process holds the replies
     of a timed phase: a forked daemon's RSS counts every page it shares
     with this process, and OCaml 5.1 keeps a dropped heap resident.
     The traced deployment waits idle through the untraced phase. *)
  let traced_dep, _ = setup o oracle ~next ~traced:true in
  let dep, _ = setup o oracle ~next ~traced:false in
  let plain = measure o oracle dep ~next in
  diagnostics o "untraced" plain;
  (* [measure] has verified the replies; the traced phase's client need
     not mark them. *)
  drop_replies plain;
  let tr = measure o oracle traced_dep ~next in
  diagnostics o "traced" tr;
  Oracle.stop oracle;
  let candidates =
    List.combine tr.phase.Loop.jobs tr.verdicts
    |> List.filter_map (fun ((job : Loop.job), v) ->
           if Result.is_ok v then Some (job.Loop.spec, job.Loop.reply) else None)
    |> List.filteri (fun i _ -> i < 5)
  in
  (* The replay's allocations need not mark the other replies either. *)
  drop_replies tr;
  (* Every deployment is down; only now does this process load the
     workload, for the replay. *)
  let wl = Workload.load o.dir in
  let replay_until = Unix.gettimeofday () +. (o.seconds /. 2.) in
  let replay_one i (spec, expected) =
    match Replay.job wl ~job:i ~expected spec with
    | counts, verdict -> (Some counts, verdict)
    | exception e -> (None, Error ("replay raised " ^ Printexc.to_string e))
  in
  let rec replay i acc = function
    | candidate :: rest when i = 0 || Unix.gettimeofday () < replay_until ->
      replay (i + 1) (replay_one i candidate :: acc) rest
    | _ -> List.rev acc
  in
  let replayed = replay 0 [] candidates in
  let replay_failed = List.length (List.filter (fun (_, v) -> Result.is_error v) replayed) in
  List.iter (fun (_, v) -> match v with Error e -> Printf.printf "replay failed: %s\n" e | Ok () -> ()) replayed;
  let mean f =
    match List.filter_map fst replayed with
    | [] -> 0.
    | l -> List.fold_left (fun acc c -> acc +. float_of_int (f c)) 0. l /. float_of_int (List.length l)
  in
  let spec = (List.hd tr.phase.Loop.jobs).Loop.spec in
  let crypto = Replay.crypto o.workload wl spec in
  let build = Replay.mean "serve.plan_build"
  and merge = Replay.mean "serve.merge"
  and socket = Replay.per_job "net.socket_run" in
  let cpu_per_job = per_ok plain (cpu_total plain) in
  let payload = mean (fun c -> c.Replay.payload_bytes) in
  let wire = per_ok plain (sum_int (fun s -> s.Procfs.wchar) plain) in
  let provider_cpu =
    per_ok plain (cpu_total plain -. plain.cpu.(0).Procfs.cpu_s) /. float_of_int Workload.providers
  in
  let residual = cpu_per_job -. (3. *. build) -. socket -. merge in
  let sum_reports f = float_of_int (List.fold_left (fun acc r -> acc + f r) 0 tr.reports) in
  let compute = compute_by_party tr.reports in
  (* The scraped reports are cumulative since start, warm-up job included. *)
  let traced_jobs = float_of_int (ok_jobs tr + 1) in
  let party_compute p =
    ( Printf.sprintf "obs.compute_s_per_job.%s" (Spe_serve.Addr.party_name p),
      Option.value ~default:0. (Hashtbl.find_opt compute (Spe_serve.Addr.party_name p)) /. traced_jobs,
      "s" )
  in
  Printf.printf
    "ledger %s, CPU-s per job: cpu_s_per_job %.4f = 3 x serve.plan_build_s %.4f + net.socket_run_s %.4f + \
     serve.merge_s %.4f + residual serve.deploy_overhead_s_per_job %.4f\n"
    o.workload.Workload.name cpu_per_job build socket merge residual;
  Option.iter Replay.write_spans o.spans_file;
  let attempted = attempted plain + attempted tr + List.length replayed in
  let failed = attempted - ok_jobs plain - ok_jobs tr - (List.length replayed - replay_failed) in
  result_line ~correct:(failed = 0) ~attempted ~failed
    ([
       ("serve.plan_build_s", build, "s");
       ("serve.merge_s", merge, "s");
       ("serve.h_cpu_s_per_job", per_ok plain plain.cpu.(0).Procfs.cpu_s, "s");
       ("serve.provider_cpu_s_per_job", provider_cpu, "s");
       ("serve.deploy_overhead_s_per_job", residual, "s");
       ("core.sessions_per_job", mean (fun c -> c.Replay.sessions), "count");
       ("core.rounds_per_job", mean (fun c -> c.Replay.rounds), "count");
       ("mpc.sim_run_s", Replay.mean "mpc.sim_run", "s");
       ("mpc.messages_per_job", mean (fun c -> c.Replay.messages), "count");
       ("mpc.payload_bytes_per_job", payload, "B");
       ("net.socket_run_s", socket, "s");
       ("net.memory_run_s", Replay.per_job "net.memory_run", "s");
       ("net.write_syscalls_per_job", per_ok plain (sum_int (fun s -> s.Procfs.syscw) plain), "count");
       ("net.read_syscalls_per_job", per_ok plain (sum_int (fun s -> s.Procfs.syscr) plain), "count");
       ("net.framing_ratio", wire /. Float.max 1. payload, "ratio");
       ("net.retransmits", sum_reports (fun r -> r.Spe_obs.Metrics.retransmits), "count");
       ("net.nacks", sum_reports (fun r -> r.Spe_obs.Metrics.nacks), "count");
       ("net.timeouts", sum_reports (fun r -> r.Spe_obs.Metrics.timeouts), "count");
       ("crypto.ciphertexts_per_job", float_of_int crypto.Replay.ciphertexts, "count");
       ("crypto.keygen_s", crypto.Replay.keygen_s, "s");
       ("crypto.encrypt_s_per_op", crypto.Replay.encrypt_s, "s");
       ("crypto.decrypt_s_per_op", crypto.Replay.decrypt_s, "s");
       ("influence.ingest_s_per_job", Replay.per_job "influence.ingest", "s");
       ("influence.counters_s", Replay.per_job "influence.counters", "s");
     ]
    @ List.init (Workload.providers + 1) party_compute
    @ [
        ("obs.trace_overhead", jobs_per_s plain /. Float.max 1e-9 (jobs_per_s tr), "ratio");
        ("host.steal_share", plain.steal, "ratio");
      ])

(* --- command line ------------------------------------------------------------- *)

let usage =
  "spebench --workload NAME --seed N --seconds S --trace 0|1 --dir DIR [--spans FILE] [--size full|tiny] \
   [--inject none|corrupt|stall]"

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* A terminated run still kills and reaps its daemons (at_exit). *)
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2))) [ Sys.sigterm; Sys.sigint ];
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) and dir = ref "" in
  let spans = ref "" and size = ref "full" and inject = ref "none" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME serve-links, serve-scores or serve-stream");
      ("--seed", Arg.Set_int seed, "N workload and job seed");
      ("--seconds", Arg.Set_float seconds, "S length of each timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--dir", Arg.Set_string dir, "DIR scratch directory for inputs and sockets");
      ("--spans", Arg.Set_string spans, "FILE where the traced run writes its spans");
      ("--size", Arg.Set_string size, "full|tiny workload size (tiny: self-test)");
      ("--inject", Arg.Set_string inject, "none|corrupt|stall fault for the self-test");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let fail msg =
    prerr_endline ("spebench: " ^ msg);
    exit 2
  in
  let w = match Workload.find !workload with Some w -> w | None -> fail ("unknown workload " ^ !workload) in
  if !seed < 0 then fail "--seed must be a non-negative integer";
  if !seconds <= 0. then fail "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  if !dir = "" || not (Sys.file_exists !dir) then fail "--dir must name an existing directory";
  let o =
    {
      workload = (match !size with "full" -> w | "tiny" -> Workload.tiny w | s -> fail ("unknown size " ^ s));
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      dir = !dir;
      spans_file = (if !spans = "" then None else Some !spans);
      inject =
        (match !inject with
        | "none" -> No_fault
        | "corrupt" -> Corrupt_reply
        | "stall" -> Stall_provider
        | s -> fail ("unknown fault " ^ s));
    }
  in
  match if o.trace then traced o else untraced o with
  | () -> ()
  | exception e -> fail (Printexc.to_string e)
