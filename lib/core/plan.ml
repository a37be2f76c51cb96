module Session = Spe_mpc.Session
module Wire = Spe_mpc.Wire
module Endpoint = Spe_net.Endpoint
module Net_wire = Spe_net.Net_wire

type stage = { label : string; epoch : int option; sessions : unit Session.t array }

type 'r t = { shards : int; stages : stage list; result : unit -> 'r }

let stage ?epoch ~label sessions =
  (match epoch with
  | Some e when e < 0 -> invalid_arg "Plan.stage: epoch must be >= 0"
  | _ -> ());
  { label; epoch; sessions }

let make ~shards ~stages ~result =
  if shards < 1 then invalid_arg "Plan.make: need at least one shard";
  if stages = [] then invalid_arg "Plan.make: need at least one stage";
  List.iter
    (fun s -> if Array.length s.sessions = 0 then invalid_arg "Plan.make: empty stage")
    stages;
  { shards; stages; result }

let map f t =
  { shards = t.shards; stages = t.stages; result = (fun () -> f (t.result ())) }

let of_session ~label (session : _ Session.t) =
  make ~shards:1
    ~stages:[ stage ~label [| Session.map ignore session |] ]
    ~result:session.Session.result

let total_rounds t =
  List.fold_left
    (fun acc stage ->
      Array.fold_left (fun a s -> a + s.Session.rounds) acc stage.sessions)
    0 t.stages

let session_of_stage stage =
  match Array.to_list stage.sessions with
  | [] -> invalid_arg "Plan.to_session: empty stage"
  | [ s ] -> s
  | ss -> Session.map ignore (Session.all ss)

let to_session t =
  match t.stages with
  | [] -> invalid_arg "Plan.to_session: empty plan"
  | s0 :: rest ->
    let seq_unit a b = Session.map (fun ((), ()) -> ()) (Session.seq a b) in
    let combined =
      List.fold_left
        (fun acc stage -> seq_unit acc (session_of_stage stage))
        (session_of_stage s0) rest
    in
    Session.map (fun () -> t.result ()) combined

type run = {
  stage : string;
  index : int;
  parties : int;
  trace : Spe_obs.Trace.t;
  endpoint : Endpoint.result;
}

type net = { transport_bytes : int; totals : Net_wire.totals; runs : run list }

type accounting = {
  stats : Wire.stats;
  transcript : Wire.message list;
  traces : (string option * Spe_obs.Trace.t * int) list;
  net : net option;
}

let execute ?config ?workers ?(faults = fun _ -> None) ?(kills = fun _ -> false)
    ?(traces = fun _ -> Spe_obs.Trace.disabled ()) ~engine t =
  match engine with
  | `Sim ->
    let session = to_session t and trace = traces 0 and w = Wire.create () in
    let r = Session.run ~trace session ~wire:w in
    ( r,
      {
        stats = Wire.stats w;
        transcript = Wire.messages w;
        traces = [ (None, trace, Array.length session.Session.parties) ];
        net = None;
      } )
  | (`Memory | `Socket) as engine ->
    let run_stage =
      match engine with
      | `Memory -> Endpoint.run_sessions_memory
      | `Socket -> Endpoint.run_sessions_socket
    in
    let runs = ref [] and base = ref 0 in
    List.iter
      (fun stage ->
        let b = !base and ns = Array.length stage.sessions in
        let stage_traces = Array.init ns (fun i -> traces (b + i)) in
        let out =
          match
            run_stage ?config ?workers
              ~faults:(Array.init ns (fun i -> faults (b + i)))
              ~kills:(Array.init ns (fun i -> kills (b + i)))
              ~traces:stage_traces stage.sessions
          with
          | out -> out
          | exception Endpoint.Shard_failed { shard; phase; exn } ->
            raise (Endpoint.Shard_failed { shard = b + shard; phase; exn })
        in
        Array.iteri
          (fun i ((), endpoint) ->
            runs :=
              {
                stage = stage.label;
                index = i;
                parties = Array.length stage.sessions.(i).Session.parties;
                trace = stage_traces.(i);
                endpoint;
              }
              :: !runs)
          out;
        base := b + ns)
      t.stages;
    let runs = List.rev !runs in
    let logs run =
      Array.map (fun (o : Endpoint.outcome) -> o.Endpoint.sent) run.endpoint.Endpoint.outcomes
    in
    let totals = Net_wire.totals (Array.concat (List.map logs runs)) in
    ( t.result (),
      {
        stats =
          {
            Wire.rounds = total_rounds t;
            messages = totals.Net_wire.messages;
            bits = 8 * totals.Net_wire.payload_bytes;
          };
        transcript =
          List.concat_map (fun run -> Wire.messages (Net_wire.merge (logs run))) runs;
        traces =
          List.map
            (fun run ->
              (Some (Printf.sprintf "%s[%d]" run.stage run.index), run.trace, run.parties))
            runs;
        net =
          Some
            {
              transport_bytes =
                List.fold_left
                  (fun acc run -> acc + run.endpoint.Endpoint.transport_bytes)
                  0 runs;
              totals;
              runs;
            };
      } )
