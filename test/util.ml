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
module Wire = Spe_mpc.Wire
module Session = Spe_mpc.Session
module Protocol3 = Spe_mpc.Protocol3
module Protocol3_distributed = Spe_mpc.Protocol3_distributed
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

(* Run one session on a transport engine: its result and its endpoint
   result (logs and transport bytes). *)
let run_session ?config ?fault ?trace engine session =
  let r, acct =
    Plan.execute ?config
      ~faults:(fun _ -> fault)
      ?traces:(Option.map Fun.const trace)
      ~engine
      (Plan.of_session ~label:"session" session)
  in
  match acct.Plan.net with
  | Some { Plan.runs = [ run ]; _ } -> (r, run.Plan.endpoint)
  | _ -> invalid_arg "Util.run_session: one transport session expected"

(* --- the batched Protocol 3 ---------------------------------------------------- *)

(* A random batch in Protocol 4's shape: [groups] denominators below
   1000, the last one zero, and [per] numerators per group no larger
   than its denominator, each split into two players' integer additive
   shares as Protocol 2 leaves them — a random first share and the
   (possibly negative) rest.  Returns the plaintext denominators and
   numerators, each numerator's group, and the two players' shares. *)
let p3_batch s ~groups ~per =
  let den = Array.init groups (fun g -> if g = groups - 1 then 0 else State.next_int s 1000) in
  let group_of = Array.init (groups * per) (fun k -> k / per) in
  let num = Array.map (fun g -> State.next_int s (den.(g) + 1)) group_of in
  let split xs =
    let first = Array.map (fun _ -> State.next_int s 100_000) xs in
    (Array.map float_of_int first, Array.mapi (fun i x -> float_of_int (x - first.(i))) xs)
  in
  let d1, d2 = split den in
  let n1, n2 = split num in
  (den, num, group_of, { Protocol3.den = d1; num = n1 }, { Protocol3.den = d2; num = n2 })

(* One player's shares as a single vector: denominators, then
   numerators — the layout the session form below sends. *)
let p3_flat (m : Protocol3.shares) = Array.append m.Protocol3.den m.Protocol3.num

(* The central form on a batch, plus the round of sends to the host that
   its pipelines charge; returns the two masked vectors the host
   receives. *)
let p3_central st ~wire ~groups s1 s2 =
  let o = Protocol3.run st ~wire ~p1:(Wire.Provider 0) ~p2:(Wire.Provider 1) ~groups s1 s2 in
  let v1 = p3_flat o.Protocol3.masked1 and v2 = p3_flat o.Protocol3.masked2 in
  Wire.round wire (fun () ->
      Wire.send wire ~src:(Wire.Provider 0) ~dst:Wire.Host
        ~bits:(Array.length v1 * Wire.float_bits);
      Wire.send wire ~src:(Wire.Provider 1) ~dst:Wire.Host
        ~bits:(Array.length v2 * Wire.float_bits));
  (v1, v2)

(* The session form on the same batch, its masks drawn from [st] where
   the central form draws them; the session result is the two vectors
   its host delivered. *)
let p3_session st ~groups (s1 : Protocol3.shares) s2 =
  let g = Array.length s1.Protocol3.den in
  let masks = Protocol3_distributed.draw st ~groups:g in
  let entries s () = (p3_flat s, Array.append (Array.init g Fun.id) groups) in
  let delivered = ref None in
  Session.map
    (fun () -> Option.get !delivered)
    (Protocol3_distributed.mask_phase ~p1:(Wire.Provider 0) ~p2:(Wire.Provider 1)
       ~host:Wire.Host ~masks ~agree:g ~shares1:(entries s1) ~shares2:(entries s2)
       ~deliver:(fun v1 v2 -> delivered := Some (v1, v2)))

(* The host's quotients from the two vectors of a [g]-group batch. *)
let p3_quotients ~groups g (v1, v2) =
  let split v = { Protocol3.den = Array.sub v 0 g; num = Array.sub v g (Array.length v - g) } in
  Protocol3.quotients ~groups (split v1) (split v2)

(* IEEE bit patterns, for bit-for-bit comparison of float vectors. *)
let float_bits v = Array.map Int64.bits_of_float v

(* --- decoder fuzzing ------------------------------------------------------------ *)

(* Fuzz inputs for a decoder: arbitrary short byte strings, and
   single-byte mutations of the valid encodings in [seeds].  With
   [alphabet] both draw their bytes from it: for a text format, its
   significant characters reach the decoder's value checks far more
   often than uniform bytes do. *)
let fuzz_input ?alphabet ~seeds =
  let seeds = Array.of_list seeds in
  QCheck.Gen.(
    let byte, text =
      match alphabet with
      | None -> (int_range 0 255, string_size (int_range 0 48))
      | Some cs -> (map Char.code (oneofl cs), string_size ~gen:(oneofl cs) (int_range 0 48))
    in
    oneof
      [
        map Bytes.of_string text;
        ( int_bound (Array.length seeds - 1) >>= fun i ->
          (* Uniform over the whole seed: QCheck's [nat] draws three
             quarters of its values below 100. *)
          int_bound (Bytes.length seeds.(i) - 1) >>= fun pos ->
          map
            (fun byte ->
              let b = Bytes.copy seeds.(i) in
              Bytes.set_uint8 b pos byte;
              b)
            byte );
      ])

(* The characters that carry a JSON document's structure and numbers. *)
let json_alphabet =
  [ '0'; '1'; '2'; '9'; '-'; '.'; 'e'; '"'; '{'; '}'; '['; ']'; ','; ':'; ' '; 'n'; '\\'; 'u' ]

(* A JSON document without its layout, for compact fuzz seeds. *)
let compact_json s = Spe_obs.Obs_io.Json.to_string ~pretty:false (Spe_obs.Obs_io.Json.of_string s)

(* The property: hostile bytes either decode to a value that survives
   an encode/decode round trip, or raise [Codec.Malformed] — never
   another exception.  [compare], not [=], so NaN payloads compare
   equal to themselves. *)
let decodes_or_rejects ~decode ~encode bytes =
  match decode bytes with
  | exception Spe_mpc.Codec.Malformed _ -> true
  | v -> compare (decode (encode v)) v = 0

(* The property for the JSON readers: hostile bytes read to a value or
   raise [Failure] — never another exception. *)
let reads_or_fails ~read bytes =
  match read (Bytes.to_string bytes) with _ -> true | exception Failure _ -> true

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
  Spe_serve.Addr.with_temp_roster ~parties:(m + 1) @@ fun roster ->
  Spe_serve.Addr.with_temp_roster ~parties:(m + 1) @@ fun maddrs ->
  let daemons =
    Array.init (m + 1) (fun party ->
        Daemon.start
          {
            (Daemon.default_config ~party ~roster) with
            Daemon.max_sessions;
            max_queue;
            metrics_addr =
              (if trace_all then Some maddrs.(party)
               else if party = 0 then metrics_addr
               else None);
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
