(* Turning a wire {!Serve_proto.spec} into per-daemon work.

   The deployment invariant everything here rests on: every daemon
   rebuilds the {e identical} plan from [(spec, workload)], because the
   sharded pipelines draw all joint randomness at plan-build time in a
   deterministic order (Spe_core.Shard, "permute-then-shard").  Each
   daemon then executes only its own party's seats over the mux, and
   the merged result is read at H exactly as the in-process pool reads
   it — the closure state behind [Plan.result] is written by the host's
   own programs. *)

module Session = Spe_mpc.Session
module Wire = Spe_mpc.Wire
module Plan = Spe_core.Plan

type workload = { graph : Spe_graph.Digraph.t; logs : Spe_actionlog.Log.t array }

(* A deterministic content digest for the Hello handshake: daemons over
   different inputs could never agree on a plan, so refuse them at
   connection time.  FNV-1a over the canonical record streams — not
   Hashtbl.hash, whose node-count cutoff would ignore most of the
   data. *)
let digest { graph; logs } =
  let fnv_prime = 0x100000001b3 in
  (* The canonical 64-bit offset basis truncated to OCaml's 63-bit int. *)
  let h = ref 0x3bf29ce484222325 in
  let mix v =
    h := (!h lxor (v land 0xFFFF)) * fnv_prime land max_int;
    h := (!h lxor (v lsr 16)) * fnv_prime land max_int
  in
  let module G = Spe_graph.Digraph in
  mix (G.n graph);
  for u = 0 to G.n graph - 1 do
    Array.iter
      (fun v ->
        mix u;
        mix v)
      (G.out_neighbors graph u)
  done;
  let module Log = Spe_actionlog.Log in
  Array.iter
    (fun log ->
      mix (Log.num_users log);
      mix (Log.num_actions log);
      List.iter
        (fun (r : Log.record) ->
          mix r.Log.user;
          mix r.Log.action;
          mix r.Log.time)
        (Log.records log))
    logs;
  mix (Array.length logs);
  !h

type planned =
  | Links_plan of Spe_core.Protocol4.result Plan.t
  | Scores_plan of Spe_core.Shard.scores Plan.t
  | Stream_plan of { delta : Spe_core.Delta.t; stages : Plan.stage list }
  | Rank_plan of { fbits : int; plan : Spe_rank.Protocol_rank.result Plan.t }

let check (spec : Serve_proto.spec) =
  if spec.Serve_proto.shards < 1 then Error "shards must be at least 1"
  else if spec.Serve_proto.modulus_bits < 2 || spec.Serve_proto.modulus_bits > 61 then
    Error "modulus-bits out of range"
  else
    match spec.Serve_proto.pipeline with
    | Serve_proto.Links ->
      if spec.Serve_proto.h < 1 then Error "window h must be at least 1"
      else if spec.Serve_proto.c_factor < 1.0 then Error "c-factor must be >= 1"
      else Ok ()
    | Serve_proto.Scores ->
      if spec.Serve_proto.tau < 1 then Error "tau must be at least 1"
      else if spec.Serve_proto.key_bits < 16 then Error "key-bits too small"
      else if spec.Serve_proto.pack_slots < 1 then Error "pack-slots must be at least 1"
      else Ok ()
    | Serve_proto.Stream ->
      if spec.Serve_proto.h < 1 then Error "window h must be at least 1"
      else if spec.Serve_proto.c_factor < 1.0 then Error "c-factor must be >= 1"
      else if spec.Serve_proto.epoch_ticks < 1 then Error "epoch-ticks must be at least 1"
      else if spec.Serve_proto.epochs < 1 then Error "epochs must be at least 1"
      else if spec.Serve_proto.window < 0 then Error "window must be >= 0"
      else if spec.Serve_proto.rate <= 0. then Error "rate must be positive"
      else if spec.Serve_proto.burstiness < 0. || spec.Serve_proto.burstiness >= 1. then
        Error "burstiness must be in [0, 1)"
      else if spec.Serve_proto.jitter < 0 then Error "jitter must be >= 0"
      else Ok ()
    | Serve_proto.Rank -> (
      match
        Spe_rank.Oracle.validate
          {
            Spe_rank.Oracle.mode =
              (if spec.Serve_proto.rank_degree then Spe_rank.Oracle.Degree
               else Spe_rank.Oracle.Pagerank);
            damping = spec.Serve_proto.damping;
            iterations = spec.Serve_proto.iterations;
            fbits = spec.Serve_proto.fbits;
          }
      with
      | () ->
        if spec.Serve_proto.fbits >= spec.Serve_proto.modulus_bits then
          Error "fbits must lie below modulus-bits"
        else Ok ()
      | exception Invalid_argument msg -> Error msg)

let validate spec workload =
  if Array.length workload.logs < 2 then Error "need at least two providers" else check spec

let rank_config (spec : Serve_proto.spec) =
  {
    Spe_rank.Protocol_rank.oracle =
      {
        Spe_rank.Oracle.mode =
          (if spec.Serve_proto.rank_degree then Spe_rank.Oracle.Degree
           else Spe_rank.Oracle.Pagerank);
        damping = spec.Serve_proto.damping;
        iterations = spec.Serve_proto.iterations;
        fbits = spec.Serve_proto.fbits;
      };
    modulus = 1 lsl spec.Serve_proto.modulus_bits;
  }

let links_config (spec : Serve_proto.spec) =
  {
    Spe_core.Protocol4.c_factor = spec.Serve_proto.c_factor;
    modulus = 1 lsl spec.Serve_proto.modulus_bits;
    h = spec.Serve_proto.h;
    estimator = Spe_core.Protocol4.Eq1;
  }

(* The one stream ingestion: replay the seeded sources provider by
   provider into windowed accumulators over the instance's published
   pair order, snapshot each epoch's inputs, and concatenate the
   per-epoch Delta stages into one plan.  Every daemon replays the
   identical ingestion (the sources are pure functions of the spec seed
   and the shared workload), so the plan agreement invariant carries
   over unchanged — epoch inputs are eager snapshots, which is exactly
   what [Delta.epoch_stages] permits for building ahead of execution. *)
let build_stream ~mode (spec : Serve_proto.spec) workload =
  let module State = Spe_rng.State in
  let module Log = Spe_actionlog.Log in
  let module Source = Spe_actionlog.Source in
  let module Stream = Spe_influence.Stream in
  let module Counters = Spe_influence.Counters in
  let module Protocol4 = Spe_core.Protocol4 in
  let module Delta = Spe_core.Delta in
  let config = links_config spec in
  let m = Array.length workload.logs in
  let num_actions =
    Array.fold_left (fun acc l -> max acc (Log.num_actions l)) 0 workload.logs
  in
  let delta =
    Delta.create
      (State.create ~seed:spec.Serve_proto.seed ())
      ~graph:workload.graph ~m ~num_actions
      ~group_seed:(spec.Serve_proto.seed lxor 0x5bd1e995)
      config
  in
  let pairs = Delta.pairs delta in
  let window = if spec.Serve_proto.window = 0 then None else Some spec.Serve_proto.window in
  let sources =
    Array.mapi
      (fun k l ->
        Source.create
          (State.create ~seed:(spec.Serve_proto.seed + 101 + k) ())
          l ~rate:spec.Serve_proto.rate ~burstiness:spec.Serve_proto.burstiness
          ~jitter:spec.Serve_proto.jitter ())
      workload.logs
  in
  let streams =
    Array.map
      (fun _ ->
        Stream.create ?window
          ~num_users:(Spe_graph.Digraph.n workload.graph)
          ~num_actions ~h:config.Protocol4.h ~pairs ())
      workload.logs
  in
  let union_sorted lists = List.sort_uniq compare (List.concat lists) in
  let arrivals = Array.make spec.Serve_proto.epochs 0 in
  let stages = ref [] in
  for e = 0 to spec.Serve_proto.epochs - 1 do
    let horizon = (e + 1) * spec.Serve_proto.epoch_ticks in
    Array.iteri
      (fun k src ->
        List.iter
          (fun (r : Log.record) ->
            arrivals.(e) <- arrivals.(e) + 1;
            let acc = streams.(k) in
            Stream.advance acc ~now:(max (Stream.now acc) r.Log.time);
            Stream.add acc r)
          (Source.take_until src ~arrival:horizon))
      sources;
    let dirty_users =
      union_sorted (Array.to_list (Array.map Stream.dirty_users streams))
    in
    let dirty_pairs =
      union_sorted (Array.to_list (Array.map Stream.dirty_pairs streams))
    in
    let inputs =
      Array.map
        (fun acc ->
          let c = Stream.snapshot acc in
          { Protocol4.a = c.Counters.a; c = c.Counters.c })
        streams
    in
    Array.iter Stream.clear_dirty streams;
    stages :=
      Delta.epoch_stages delta ~mode { Delta.epoch = e; dirty_users; dirty_pairs; inputs }
      :: !stages
  done;
  (Stream_plan { delta; stages = List.concat (List.rev !stages) }, arrivals)

let build (spec : Serve_proto.spec) workload =
  let s = Spe_rng.State.create ~seed:spec.Serve_proto.seed () in
  match spec.Serve_proto.pipeline with
  | Serve_proto.Links ->
    Links_plan
      (Spe_core.Shard.links_exclusive s ~graph:workload.graph ~logs:workload.logs
         ~shards:spec.Serve_proto.shards (links_config spec))
  | Serve_proto.Scores ->
    let config =
      {
        Spe_core.Protocol6.default_config with
        Spe_core.Protocol6.key_bits = spec.Serve_proto.key_bits;
        pack_slots = spec.Serve_proto.pack_slots;
      }
    in
    Scores_plan
      (Spe_core.Shard.user_scores_exclusive s ~graph:workload.graph ~logs:workload.logs
         ~tau:spec.Serve_proto.tau
         ~modulus:(1 lsl spec.Serve_proto.modulus_bits)
         ~shards:spec.Serve_proto.shards config)
  | Serve_proto.Stream -> fst (build_stream ~mode:Spe_core.Delta.Delta spec workload)
  | Serve_proto.Rank ->
    Rank_plan
      {
        fbits = spec.Serve_proto.fbits;
        plan =
          Spe_rank.Protocol_rank.plan s ~graph:workload.graph ~logs:workload.logs
            ~shards:spec.Serve_proto.shards (rank_config spec);
      }

let stages = function
  | Links_plan plan -> plan.Plan.stages
  | Scores_plan plan -> plan.Plan.stages
  | Stream_plan { stages; _ } -> stages
  | Rank_plan { plan; _ } -> plan.Plan.stages

(* Only the host calls this, and only after every stage quiesced. *)
let reply_of = function
  | Links_plan plan ->
    Serve_proto.Strengths (plan.Plan.result ()).Spe_core.Protocol4.strengths
  | Scores_plan plan ->
    Serve_proto.Scores (plan.Plan.result ()).Spe_core.Shard.scores
  | Stream_plan { delta; _ } ->
    let module Delta = Spe_core.Delta in
    let releases = Delta.releases delta in
    Serve_proto.Stream_summary
      {
        digests = Array.of_list (List.map (fun r -> r.Delta.digest) releases);
        recomputed = Array.of_list (List.map (fun r -> r.Delta.recomputed) releases);
        strengths =
          (match List.rev releases with
          | [] -> []
          | last :: _ -> last.Delta.strengths);
      }
  | Rank_plan { fbits; plan } ->
    Serve_proto.Rank_summary
      { ranks_fx = (plan.Plan.result ()).Spe_rank.Protocol_rank.ranks_fx; fbits }

(* Daemon ids mirror the frame codec's party order. *)
let daemon_of_party = function Wire.Host -> 0 | Wire.Provider k -> k + 1

(* Session ids: the coordinator's global job number, shifted past the
   widest per-job session index.  Every daemon enumerates a plan's
   sessions in the same (stage, index) order, so the ids agree without
   any negotiation. *)
let sid_stride = 65536

let sid ~job ~gidx =
  if gidx >= sid_stride then invalid_arg "Job.sid: plan has too many sessions";
  (job * sid_stride) + gidx

type seat = {
  sid : int;
  session : unit Session.t;
  peers : int array;  (** Daemon id by group index. *)
  index : int;  (** This daemon's group index. *)
}

(* The per-stage seats of one daemon, plus every sid of the job (for
   cancellation, including sessions this daemon is not seated in). *)
let seats ~job ~party planned =
  let gidx = ref 0 in
  let all_sids = ref [] in
  let per_stage =
    List.map
      (fun (stage : Plan.stage) ->
        Array.to_list stage.Plan.sessions
        |> List.filter_map (fun (session : unit Session.t) ->
               let id = sid ~job ~gidx:!gidx in
               incr gidx;
               all_sids := id :: !all_sids;
               let peers = Array.map daemon_of_party session.Session.parties in
               let index = ref (-1) in
               Array.iteri (fun j p -> if p = party then index := j) peers;
               if !index < 0 then None
               else Some { sid = id; session; peers; index = !index }))
      (stages planned)
  in
  (per_stage, List.rev !all_sids)
