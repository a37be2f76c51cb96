(* The schedule document: pure data, a strict spe-schedule/1 JSON
   round-trip, and the compiler from per-frame events to a
   Spe_net.Fault policy.  Everything stateful (running the plan,
   applying kills and skew) lives in Harness. *)

module Json = Spe_obs.Obs_io.Json
module Fault = Spe_net.Fault

type pipeline = Links | Scores
type engine = Memory | Socket

type workload = {
  wseed : int;
  users : int;
  edges : int;
  actions : int;
  providers : int;
}

type event =
  | Drop of { session : int; src : int; dst : int; nth : int }
  | Delay of { session : int; src : int; dst : int; nth : int; seconds : float }
  | Duplicate of { session : int; src : int; dst : int; nth : int }
  | Blackhole of { session : int; src : int; dst : int; from_nth : int }
  | Kill of { session : int }
  | Skew of { factor : float }

type t = {
  seed : int;
  pipeline : pipeline;
  engine : engine;
  shards : int;
  workers : int;
  workload : workload;
  events : event list;
}

let schema = "spe-schedule/1"
let pipeline_name = function Links -> "links" | Scores -> "scores"
let engine_name = function Memory -> "memory" | Socket -> "socket"

(* A replayed schedule pins its own pipeline; silently running it when
   the operator asked for the other one would "pass" the wrong target.
   [requested = None] means no restriction (--target both). *)
let check_replay_target t ~requested =
  match requested with
  | None -> Ok ()
  | Some p when p = t.pipeline -> Ok ()
  | Some p ->
    Error
      (Printf.sprintf
         "schedule targets the %s pipeline but --target %s was requested; rerun with \
          --target %s (or both)"
         (pipeline_name t.pipeline) (pipeline_name p) (pipeline_name t.pipeline))

let skew t =
  List.fold_left
    (fun acc ev -> match ev with Skew { factor } -> acc *. factor | _ -> acc)
    1.0 t.events

let fatal t =
  List.find_opt
    (function Kill _ | Blackhole _ -> true | _ -> false)
    t.events

let kills_session t session =
  List.exists (function Kill k -> k.session = session | _ -> false) t.events

let fault_for t ~session =
  (* Bucket this session's per-frame events by directed link.  Lookups
     happen on the sender's hot path, but these tables are tiny (the
     generator emits a handful of events) and the policy's own mutex
     already serializes decisions. *)
  let drops = Hashtbl.create 8 (* (src, dst) -> nth, multi *) in
  let dups = Hashtbl.create 8 (* (src, dst) -> nth, multi *) in
  let delays = Hashtbl.create 8 (* (src, dst, nth) -> seconds *) in
  let holes = Hashtbl.create 4 (* (src, dst) -> earliest from_nth *) in
  let any = ref false in
  List.iter
    (fun ev ->
      match ev with
      | Drop e when e.session = session ->
        any := true;
        Hashtbl.add drops (e.src, e.dst) e.nth
      | Duplicate e when e.session = session ->
        any := true;
        Hashtbl.add dups (e.src, e.dst) e.nth
      | Delay e when e.session = session ->
        any := true;
        Hashtbl.replace delays (e.src, e.dst, e.nth) e.seconds
      | Blackhole e when e.session = session ->
        any := true;
        let prev =
          Option.value ~default:max_int (Hashtbl.find_opt holes (e.src, e.dst))
        in
        Hashtbl.replace holes (e.src, e.dst) (min prev e.from_nth)
      | _ -> ())
    t.events;
  if not !any then None
  else
    let counters = Hashtbl.create 8 (* (src, dst) -> frames seen *) in
    Some
      (Fault.make (fun ~src ~dst ->
           let n =
             Option.value ~default:0 (Hashtbl.find_opt counters (src, dst))
           in
           Hashtbl.replace counters (src, dst) (n + 1);
           match Hashtbl.find_opt holes (src, dst) with
           | Some from_nth when n >= from_nth -> Fault.Drop
           | _ ->
             if List.mem n (Hashtbl.find_all drops (src, dst)) then Fault.Drop
             else (
               match Hashtbl.find_opt delays (src, dst, n) with
               | Some seconds -> Fault.Delay seconds
               | None ->
                 if List.mem n (Hashtbl.find_all dups (src, dst)) then
                   Fault.Duplicate
                 else Fault.Deliver)))

(* ---------- JSON ---------- *)

let fail fmt = Printf.ksprintf failwith fmt

let as_int key j =
  match Json.member key j with
  | Json.Int i -> i
  | _ -> fail "Schedule: field %S must be an integer" key

let as_float key j =
  match Json.member key j with
  | Json.Float f -> f
  | Json.Int i -> float_of_int i
  | _ -> fail "Schedule: field %S must be a number" key

let as_string key j =
  match Json.member key j with
  | Json.String s -> s
  | _ -> fail "Schedule: field %S must be a string" key

(* An integer field the harness builds from, within [lo, hi]. *)
let as_bounded key ?(hi = max_int) ~lo j =
  let v = as_int key j in
  if v < lo || v > hi then
    if hi = max_int then fail "Schedule: field %S must be at least %d, got %d" key lo v
    else fail "Schedule: field %S must be in [%d, %d], got %d" key lo hi v;
  v

(* A number the fault compiler turns into a delay or a timeout factor. *)
let as_number key ~ok ~want j =
  let v = as_float key j in
  if not (ok v) then fail "Schedule: field %S must be %s, got %g" key want v;
  v

let event_to_json ev =
  let link kind session src dst tail =
    Json.Obj
      ([
         ("kind", Json.String kind);
         ("session", Json.Int session);
         ("src", Json.Int src);
         ("dst", Json.Int dst);
       ]
      @ tail)
  in
  match ev with
  | Drop e -> link "drop" e.session e.src e.dst [ ("nth", Json.Int e.nth) ]
  | Delay e ->
    link "delay" e.session e.src e.dst
      [ ("nth", Json.Int e.nth); ("seconds", Json.Float e.seconds) ]
  | Duplicate e ->
    link "duplicate" e.session e.src e.dst [ ("nth", Json.Int e.nth) ]
  | Blackhole e ->
    link "blackhole" e.session e.src e.dst
      [ ("from_nth", Json.Int e.from_nth) ]
  | Kill e ->
    Json.Obj [ ("kind", Json.String "kill"); ("session", Json.Int e.session) ]
  | Skew e ->
    Json.Obj [ ("kind", Json.String "skew"); ("factor", Json.Float e.factor) ]

let event_of_json j =
  match as_string "kind" j with
  | "drop" ->
    Drop
      {
        session = as_int "session" j;
        src = as_int "src" j;
        dst = as_int "dst" j;
        nth = as_bounded "nth" ~lo:0 j;
      }
  | "delay" ->
    Delay
      {
        session = as_int "session" j;
        src = as_int "src" j;
        dst = as_int "dst" j;
        nth = as_bounded "nth" ~lo:0 j;
        seconds = as_number "seconds" ~ok:(fun s -> s >= 0.) ~want:"at least 0" j;
      }
  | "duplicate" ->
    Duplicate
      {
        session = as_int "session" j;
        src = as_int "src" j;
        dst = as_int "dst" j;
        nth = as_bounded "nth" ~lo:0 j;
      }
  | "blackhole" ->
    Blackhole
      {
        session = as_int "session" j;
        src = as_int "src" j;
        dst = as_int "dst" j;
        from_nth = as_bounded "from_nth" ~lo:0 j;
      }
  | "kill" -> Kill { session = as_int "session" j }
  | "skew" ->
    Skew
      {
        factor =
          as_number "factor"
            ~ok:(fun f -> Float.is_finite f && f > 0.)
            ~want:"a finite number above 0" j;
      }
  | kind -> fail "Schedule: unknown event kind %S" kind

let to_json t =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("seed", Json.Int t.seed);
      ("pipeline", Json.String (pipeline_name t.pipeline));
      ("engine", Json.String (engine_name t.engine));
      ("shards", Json.Int t.shards);
      ("workers", Json.Int t.workers);
      ( "workload",
        Json.Obj
          [
            ("seed", Json.Int t.workload.wseed);
            ("users", Json.Int t.workload.users);
            ("edges", Json.Int t.workload.edges);
            ("actions", Json.Int t.workload.actions);
            ("providers", Json.Int t.workload.providers);
          ] );
      ("events", Json.List (List.map event_to_json t.events));
    ]

let of_json j =
  (match as_string "schema" j with
  | s when s = schema -> ()
  | s -> fail "Schedule: unsupported schema %S (want %S)" s schema);
  let pipeline =
    match as_string "pipeline" j with
    | "links" -> Links
    | "scores" -> Scores
    | s -> fail "Schedule: unknown pipeline %S" s
  in
  let engine =
    match as_string "engine" j with
    | "memory" -> Memory
    | "socket" -> Socket
    | s -> fail "Schedule: unknown engine %S" s
  in
  let w = Json.member "workload" j in
  (* A replay file may have been edited by hand: refuse what the
     harness cannot build (two cascade seeds per action, a simple
     directed graph, the pipelines' two providers and one shard). *)
  let users = as_bounded "users" ~lo:2 w in
  let workload =
    {
      wseed = as_int "seed" w;
      users;
      edges = as_bounded "edges" ~lo:0 ~hi:(users * (users - 1)) w;
      actions = as_bounded "actions" ~lo:1 w;
      providers = as_bounded "providers" ~lo:2 w;
    }
  in
  let events =
    match Json.member "events" j with
    | Json.List evs -> List.map event_of_json evs
    | _ -> failwith "Schedule: field \"events\" must be a list"
  in
  {
    seed = as_int "seed" j;
    pipeline;
    engine;
    shards = as_bounded "shards" ~lo:1 j;
    workers = as_bounded "workers" ~lo:1 j;
    workload;
    events;
  }

let to_string t = Json.to_string ~pretty:true (to_json t) ^ "\n"
let of_string s = of_json (Json.of_string s)

let id t =
  String.sub
    (Digest.to_hex (Digest.string (Json.to_string ~pretty:false (to_json t))))
    0 12
