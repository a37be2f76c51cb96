(* Shared builders for the cross-suite tests.  The random workload
   (Erdős–Rényi graph, planted cascade log, exclusive provider
   partition) and the live-deployment roster were duplicated across
   test_net.ml, test_obs.ml, test_serve.ml and test_delta.ml; they live
   here once, with no behavior change — the bodies are the originals,
   draw for draw. *)

module State = Spe_rng.State
module Generate = Spe_graph.Generate
module Cascade = Spe_actionlog.Cascade
module Partition = Spe_actionlog.Partition
module Plan = Spe_core.Plan
module Transport = Spe_net.Transport
module Schedule = Spe_chaos.Schedule
module Harness = Spe_chaos.Harness
module Job = Spe_serve.Job
module Daemon = Spe_serve.Daemon
module Client = Spe_serve.Client

(* The standard random pipeline workload: ER graph, cascade log with
   planted p = 0.3 influence, exclusive partition across m providers —
   all drawn from one seeded generator. *)
let workload ~seed ~n ~edges ~actions ~m =
  let s = State.create ~seed () in
  let g = Generate.erdos_renyi_gnm s ~n ~m:edges in
  let planted = Cascade.uniform_probabilities ~p:0.3 g in
  let log =
    Cascade.generate s planted
      { Cascade.num_actions = actions; seeds_per_action = 2; max_delay = 3 }
  in
  (g, Partition.exclusive s log ~m)

(* Drive a plan on one of the three engines. *)
let run_plan ?(workers = 2) engine (plan : _ Plan.t) = fst (Plan.execute ~workers ~engine plan)

(* --- decoder fuzzing ------------------------------------------------------------ *)

(* Fuzz inputs for a decoder: arbitrary short byte strings, and
   single-byte mutations of the valid encodings in [seeds]. *)
let fuzz_input ~seeds =
  let seeds = Array.of_list seeds in
  QCheck.Gen.(
    oneof
      [
        map Bytes.of_string (string_size (int_range 0 48));
        map3
          (fun i pos byte ->
            let b = Bytes.copy seeds.(i) in
            Bytes.set_uint8 b (pos mod Bytes.length b) byte;
            b)
          (int_bound (Array.length seeds - 1))
          nat (int_range 0 255);
      ])

(* The property: hostile bytes either decode to a value that survives
   an encode/decode round trip, or raise the decoder's
   Invalid_argument — never another exception.  [compare], not [=], so
   NaN payloads compare equal to themselves. *)
let decodes_or_rejects ~decode ~encode bytes =
  match decode bytes with
  | exception Invalid_argument _ -> true
  | v -> compare (decode (encode v)) v = 0

(* --- live deployments ------------------------------------------------------- *)

(* A small links workload: 3 providers like the chaos campaigns, so the
   mesh is a real 4-daemon clique. *)
let links_workload =
  { Schedule.wseed = 97; users = 18; edges = 50; actions = 8; providers = 3 }

(* Start one in-process daemon per party over a temp unix-domain
   roster, run [f client daemons roster], then shut everything down.
   [metrics_addr] goes to H; [trace_all] gives every daemon a metrics
   endpoint, so every daemon records a report per seat.  Teardown is
   bounded: a daemon that does not confirm its shutdown, or has not
   stopped 30 s later, fails the test by name instead of hanging it. *)
let with_deployment ?(workload = links_workload) ?(max_sessions = 4) ?(max_queue = 64)
    ?(dial_timeout = 15.) ?metrics_addr ?(trace_all = false) f =
  let graph, logs = Harness.workload_inputs workload in
  let m = Array.length logs in
  let roster = Transport.Socket.temp_unix_addresses ~m:(m + 1) in
  let maddrs = if trace_all then Some (Transport.Socket.temp_unix_addresses ~m:(m + 1)) else None in
  let daemons =
    Array.init (m + 1) (fun party ->
        Daemon.start
          {
            (Daemon.default_config ~party ~roster) with
            Daemon.max_sessions;
            max_queue;
            metrics_addr =
              (match maddrs with
              | Some a -> Some a.(party)
              | None -> if party = 0 then metrics_addr else None);
            round_timeout = 60.;
            linger = 61.;
            dial_timeout;
          }
          { Job.graph; logs })
  in
  let client = Client.connect ~retry_for:10. roster.(0) in
  let result = try Ok (f client daemons roster ~graph ~logs) with e -> Error e in
  Client.close client;
  let unconfirmed = Client.shutdown_roster ~timeout:15. roster in
  let running =
    List.filter
      (fun party ->
        match Daemon.wait ~timeout:30. daemons.(party) with
        | () -> false
        | exception Failure _ -> true)
      (List.init (m + 1) Fun.id)
  in
  let names parties = String.concat ", " (List.map Spe_serve.Addr.party_name parties) in
  match result with
  | Error e -> raise e
  | Ok v ->
    if unconfirmed <> [] || running <> [] then
      Alcotest.failf "deployment teardown: shutdown unconfirmed by [%s], still running [%s]"
        (names unconfirmed) (names running);
    v

let gauge daemons party name =
  match List.assoc_opt name (Daemon.gauges daemons.(party)) with
  | Some v -> v
  | None -> Alcotest.fail (Printf.sprintf "gauge %s missing" name)
