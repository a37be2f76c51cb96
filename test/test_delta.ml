(* Epoch-delta recomputation (Delta): the dirty-group path must be
   invisible — bit-identical releases to a full per-epoch recompute on
   every engine — while actually recomputing less. *)

module State = Spe_rng.State
module Generate = Spe_graph.Generate
module Log = Spe_actionlog.Log
module Counters = Spe_influence.Counters
module Protocol4 = Spe_core.Protocol4
module Delta = Spe_core.Delta
module Plan = Spe_core.Plan
module Session = Spe_mpc.Session
module Job = Spe_serve.Job
module Proto = Spe_serve.Serve_proto

let stream_spec ~seed ~epochs ~window =
  {
    Proto.default_spec with
    Proto.pipeline = Proto.Stream;
    seed;
    epochs;
    epoch_ticks = 25;
    window = Option.value window ~default:0;
    h = 2;
    c_factor = 2.;
    modulus_bits = 40;
    rate = 0.5;
    burstiness = 0.4;
    jitter = 2;
  }

let workload ~seed ~m =
  let graph, logs = Util.workload ~seed ~n:18 ~edges:50 ~actions:8 ~m in
  { Job.graph; logs }

let delta_of = function
  | Job.Stream_plan { delta; _ } -> delta
  | _ -> invalid_arg "not a stream plan"

(* Drive [epochs] epochs of the streaming pipeline through the one
   stream ingestion ([Job.build_stream]) and run every stage on
   [engine].  Returns the releases in epoch order, the instance and the
   records that arrived per epoch. *)
let releases_of ~seed ~mode ~engine ?(m = 3) ?(epochs = 6) ?(window = Some 6) () =
  let wl = workload ~seed ~m in
  let planned, arrivals = Job.build_stream ~mode (stream_spec ~seed ~epochs ~window) wl in
  Util.run_plan ~workers:2 engine
    (Plan.make ~shards:1 ~stages:(Job.stages planned) ~result:ignore);
  let delta = delta_of planned in
  let releases = Delta.releases delta in
  Alcotest.(check (list int))
    "one release per epoch, in order" (List.init epochs Fun.id)
    (List.map (fun (r : Delta.release) -> r.Delta.epoch) releases);
  (releases, delta, arrivals, wl)

let check_bit_identical label (delta : Delta.release list) (full : Delta.release list) =
  Alcotest.(check int) (label ^ ": epoch count") (List.length full) (List.length delta);
  List.iter2
    (fun (d : Delta.release) (f : Delta.release) ->
      Alcotest.(check int)
        (Printf.sprintf "%s: epoch %d digest" label d.Delta.epoch)
        f.Delta.digest d.Delta.digest;
      Alcotest.(check (array (float 0.)))
        (Printf.sprintf "%s: epoch %d estimates" label d.Delta.epoch)
        f.Delta.estimates d.Delta.estimates;
      Alcotest.(check bool)
        (Printf.sprintf "%s: epoch %d strengths" label d.Delta.epoch)
        true
        (d.Delta.strengths = f.Delta.strengths))
    delta full

(* A seed either keeps dirtying groups, so its Delta = Full check
   reaches past epoch 1, or has every record arrive by epoch 1, so its
   later epochs release from clean caches; the count pins which, so
   neither kind of coverage lapses unnoticed. *)
let check_recomputing label ~busy (releases : Delta.release list) =
  let epochs = List.filter (fun (r : Delta.release) -> r.Delta.recomputed > 0) releases in
  if busy then
    Alcotest.(check bool) (label ^ ": at least 3 epochs recompute a group") true
      (List.length epochs >= 3)
  else
    Alcotest.(check bool) (label ^ ": only epochs 0-1 recompute a group") true
      (List.for_all (fun (r : Delta.release) -> r.Delta.epoch <= 1) epochs)

let test_delta_matches_full_sim () =
  List.iter
    (fun (seed, busy) ->
      let label = Printf.sprintf "seed %d" seed in
      let delta, _, _, _ = releases_of ~seed ~mode:Delta.Delta ~engine:`Sim () in
      let full, _, _, _ = releases_of ~seed ~mode:Delta.Full ~engine:`Sim () in
      check_bit_identical label delta full;
      check_recomputing label ~busy delta;
      (* The delta path must actually save work somewhere: with a short
         window over a bursty stream, some epoch leaves most groups
         clean. *)
      let saved =
        List.exists2
          (fun (d : Delta.release) (f : Delta.release) ->
            d.Delta.recomputed < f.Delta.recomputed)
          delta full
      in
      Alcotest.(check bool) "delta recomputes strictly less somewhere" true saved)
    [ (331, true); (332, false); (333, true); (334, true) ]

let test_delta_matches_full_qcheck () =
  let prop seed =
    let delta, _, _, _ = releases_of ~seed ~mode:Delta.Delta ~engine:`Sim ~epochs:4 () in
    let full, _, _, _ = releases_of ~seed ~mode:Delta.Full ~engine:`Sim ~epochs:4 () in
    List.length delta = List.length full
    && List.for_all2
         (fun (d : Delta.release) (f : Delta.release) ->
           d.Delta.digest = f.Delta.digest && d.Delta.estimates = f.Delta.estimates)
         delta full
  in
  let arb = QCheck.make ~print:string_of_int (QCheck.Gen.int_range 1 5000) in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:8 ~name:"delta digest = full digest per epoch" arb prop)

(* Seed 331 dirties groups in every epoch, so each epoch's mask phase
   runs on every engine; the count below keeps it that way. *)
let test_engines_bit_identical () =
  let seed = 331 in
  let sim, _, _, _ = releases_of ~seed ~mode:Delta.Delta ~engine:`Sim ~epochs:4 () in
  check_recomputing "seed 331" ~busy:true sim;
  List.iter
    (fun (label, engine) ->
      let rs, _, _, _ = releases_of ~seed ~mode:Delta.Delta ~engine ~epochs:4 () in
      check_bit_identical label rs sim)
    [ ("memory", `Memory); ("socket", `Socket) ]

(* The masked quotients must sit within rounding of the plaintext
   estimates of the final window.  The expected counters come from the
   batch [Counters.compute] over each provider's log filtered to that
   window, not from the accumulators: once every record has arrived, a
   provider's window holds exactly its records later than its last
   record time minus the window. *)
let test_estimates_match_plaintext () =
  let seed = 523 and window = 6 in
  let releases, delta, arrivals, wl =
    releases_of ~seed ~mode:Delta.Delta ~engine:`Sim ~window:(Some window) ()
  in
  Alcotest.(check int)
    "every record arrived by the last epoch"
    (Array.fold_left (fun acc l -> acc + Log.size l) 0 wl.Job.logs)
    (Array.fold_left ( + ) 0 arrivals);
  let pairs = Delta.pairs delta in
  let counters =
    Array.map
      (fun log ->
        let now = Log.max_time log in
        let in_window =
          Log.of_records ~num_users:(Log.num_users log) ~num_actions:(Log.num_actions log)
            (List.filter (fun (r : Log.record) -> r.Log.time > now - window) (Log.records log))
        in
        Counters.compute in_window ~h:2 ~pairs)
      wl.Job.logs
  in
  let last = List.nth releases (List.length releases - 1) in
  Alcotest.(check bool) "some pair has a nonzero estimate" true
    (Array.exists (fun x -> x > 0.5) last.Delta.estimates);
  Array.iteri
    (fun k (i, _) ->
      let den = Array.fold_left (fun acc c -> acc + c.Counters.a.(i)) 0 counters in
      let num =
        Array.fold_left
          (fun acc c -> acc + Array.fold_left ( + ) 0 c.Counters.c.(k))
          0 counters
      in
      let expect = if den = 0 then 0. else float_of_int num /. float_of_int den in
      let got = last.Delta.estimates.(k) in
      (* Masked float shares carry ~1e-4 absolute noise at S = 2^40
         (same envelope as the batch pipeline tests). *)
      if Float.abs (got -. expect) > 1e-3 *. (1. +. Float.abs expect) then
        Alcotest.failf "pair %d: estimate %.12g <> plaintext %.12g" k got expect)
    pairs

let test_empty_epochs_release () =
  (* Run past the end of the stream: late epochs have no arrivals, so
     Delta mode runs only the release stage, and the released bits
     freeze. *)
  let seed = 619 in
  let releases, _, _, _ =
    releases_of ~seed ~mode:Delta.Delta ~engine:`Sim ~epochs:10 ()
  in
  let full, _, _, _ = releases_of ~seed ~mode:Delta.Full ~engine:`Sim ~epochs:10 () in
  check_bit_identical "empty epochs" releases full;
  let last_two =
    match List.rev releases with
    | a :: b :: _ -> (a, b)
    | _ -> Alcotest.fail "need at least two epochs"
  in
  let a, b = last_two in
  Alcotest.(check int) "stream drained: digest frozen" b.Delta.digest a.Delta.digest

let test_unwindowed_stream_delta () =
  (* window = None: nothing expires, dirty sets still shrink epochs. *)
  List.iter
    (fun (seed, busy) ->
      let label = Printf.sprintf "unwindowed seed %d" seed in
      let delta, _, _, _ = releases_of ~seed ~mode:Delta.Delta ~engine:`Sim ~window:None () in
      let full, _, _, _ = releases_of ~seed ~mode:Delta.Full ~engine:`Sim ~window:None () in
      check_bit_identical label delta full;
      check_recomputing label ~busy delta)
    [ (733, false); (734, true) ]

let test_epoch_stages_validate () =
  let g = Generate.erdos_renyi_gnm (State.create ~seed:7 ()) ~n:6 ~m:10 in
  let config = Protocol4.default_config ~h:1 in
  let d =
    Delta.create (State.create ~seed:8 ()) ~graph:g ~m:2 ~num_actions:4 ~group_seed:9
      config
  in
  let input () =
    { Protocol4.a = Array.make 6 0;
      c = Array.make_matrix (Array.length (Delta.pairs d)) 1 0 }
  in
  Alcotest.check_raises "non-consecutive epoch"
    (Invalid_argument "Delta.epoch_stages: epochs must be consecutive from 0") (fun () ->
      ignore
        (Delta.epoch_stages d ~mode:Delta.Delta
           { Delta.epoch = 3; dirty_users = []; dirty_pairs = []; inputs = [| input (); input () |] }))

(* Every epoch's recomputed groups run as one session, of the rounds one
   group took on its own: a 2-round core (3 at m >= 3, where provider 2
   is also the third party), the 1-round verdict and the 3-round mask
   phase. *)
let test_one_session_per_epoch () =
  List.iter
    (fun (m, rounds) ->
      let seed = 811 + m in
      let planned, _ =
        Job.build_stream ~mode:Delta.Delta
          (stream_spec ~seed ~epochs:6 ~window:(Some 6))
          (workload ~seed ~m)
      in
      let groups =
        List.filter (fun (st : Plan.stage) -> st.Plan.label = "delta-groups") (Job.stages planned)
      in
      Alcotest.(check bool) (Printf.sprintf "m = %d: some epoch recomputes" m) true (groups <> []);
      List.iter
        (fun (st : Plan.stage) ->
          match st.Plan.sessions with
          | [| session |] ->
            Alcotest.(check int)
              (Printf.sprintf "m = %d: rounds of the epoch's session" m)
              rounds session.Session.rounds
          | sessions ->
            Alcotest.failf "m = %d: %d sessions in one delta-groups stage" m
              (Array.length sessions))
        groups;
      Util.run_plan `Sim (Plan.make ~shards:1 ~stages:(Job.stages planned) ~result:ignore);
      Alcotest.(check bool)
        (Printf.sprintf "m = %d: one session covered several groups" m)
        true
        (List.exists
           (fun (r : Delta.release) -> r.Delta.recomputed > 1)
           (Delta.releases (delta_of planned))))
    [ (2, 6); (3, 7) ]

(* [epoch_stages] reads its inputs during the call only: overwriting the
   arrays afterwards, before the stages run, leaves the release as it
   is. *)
let test_inputs_read_during_call () =
  let seed = 907 in
  let g, logs = Util.workload ~seed ~n:18 ~edges:50 ~actions:8 ~m:2 in
  let config = Protocol4.default_config ~h:2 in
  let num_actions = Array.fold_left (fun acc l -> max acc (Log.num_actions l)) 0 logs in
  let release ~overwrite =
    let d =
      Delta.create (State.create ~seed ()) ~graph:g ~m:2 ~num_actions ~group_seed:(seed + 1)
        config
    in
    let inputs =
      Array.map
        (fun l -> Protocol4.provider_input_of_log l ~h:2 ~pairs:(Delta.pairs d))
        logs
    in
    let stages =
      Delta.epoch_stages d ~mode:Delta.Full
        { Delta.epoch = 0; dirty_users = []; dirty_pairs = []; inputs }
    in
    if overwrite then
      Array.iter
        (fun input ->
          Array.fill input.Protocol4.a 0 (Array.length input.Protocol4.a) 0;
          Array.iter (fun row -> Array.fill row 0 (Array.length row) 1) input.Protocol4.c)
        inputs;
    Util.run_plan `Sim (Plan.make ~shards:1 ~stages ~result:ignore);
    List.hd (Delta.releases d)
  in
  let kept = release ~overwrite:false and overwritten = release ~overwrite:true in
  Alcotest.(check bool) "the release is not all zero" true
    (Array.exists (fun x -> x <> 0.) kept.Delta.estimates);
  check_bit_identical "inputs overwritten after the call" [ overwritten ] [ kept ]

let () =
  Alcotest.run "spe_delta"
    [
      ( "delta",
        [
          Alcotest.test_case "delta = full (sim)" `Quick test_delta_matches_full_sim;
          Alcotest.test_case "delta = full (qcheck)" `Quick test_delta_matches_full_qcheck;
          Alcotest.test_case "engines bit-identical" `Quick test_engines_bit_identical;
          Alcotest.test_case "estimates match plaintext" `Quick
            test_estimates_match_plaintext;
          Alcotest.test_case "empty epochs still release" `Quick test_empty_epochs_release;
          Alcotest.test_case "unwindowed delta" `Quick test_unwindowed_stream_delta;
          Alcotest.test_case "epoch validation" `Quick test_epoch_stages_validate;
          Alcotest.test_case "one session per epoch" `Quick test_one_session_per_epoch;
          Alcotest.test_case "inputs read during the call only" `Quick
            test_inputs_read_during_call;
        ] );
    ]
