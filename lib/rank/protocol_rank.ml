module Dist = Spe_rng.Dist
module Wire = Spe_mpc.Wire
module Runtime = Spe_mpc.Runtime
module Session = Spe_mpc.Session
module Protocol2_distributed = Spe_mpc.Protocol2_distributed
module Plan = Spe_core.Plan
module Digraph = Spe_graph.Digraph
module Log = Spe_actionlog.Log

type config = { oracle : Oracle.config; modulus : int }

let default_config = { oracle = Oracle.default_config; modulus = 1 lsl 40 }

type result = { ranks_fx : int array; ranks : float array; activity : int array }

let rounds config = (2 * Oracle.transitions_count config.oracle) + 2

let plan st ~graph ~logs ~shards config =
  let m = Array.length logs in
  if m < 2 then invalid_arg "Protocol_rank: need at least two providers";
  if shards < 1 then invalid_arg "Protocol_rank: need at least one shard";
  Oracle.validate config.oracle;
  let n = Digraph.n graph in
  if n < 1 then invalid_arg "Protocol_rank: empty graph";
  Array.iter
    (fun l ->
      if Log.num_users l <> n then
        invalid_arg "Protocol_rank: log/graph user universe mismatch")
    logs;
  let num_actions = Array.fold_left (fun acc l -> max acc (Log.num_actions l)) 0 logs in
  let modulus = config.modulus in
  if modulus <= Oracle.scale config.oracle then
    invalid_arg "Protocol_rank: modulus must exceed the fixed-point scale";
  if modulus <= m * num_actions then
    invalid_arg "Protocol_rank: modulus must exceed the aggregate activity bound";
  let transitions_count = Oracle.transitions_count config.oracle in
  let parties = Array.init m (fun k -> Wire.Provider k) in
  let third_party = if m > 2 then Wire.Provider 2 else Wire.Host in
  let p0 = parties.(0) and p1 = parties.(1) in
  (* Every draw happens here, in a fixed order independent of the shard
     count: the batched Protocol 2 secrets over the full user range,
     then one fresh re-share vector per oracle transition.  Shards are
     cut afterwards as contiguous chunks, so any k (and any engine)
     merges to the same bits. *)
  let rand =
    Protocol2_distributed.draw st ~m ~modulus ~input_bound:num_actions ~length:n
  in
  let reshares =
    Array.init transitions_count (fun _ ->
        Array.init n (fun _ -> Dist.uniform_int st ~lo:0 ~hi:(modulus - 1)))
  in
  let k_eff = max 1 (min shards n) in
  let bound s = s * n / k_eff in
  let cores =
    Array.init k_eff (fun s ->
        let u0 = bound s and u1 = bound (s + 1) in
        let len = u1 - u0 in
        let sl = Protocol2_distributed.slice rand ~start:u0 ~len in
        let inputs =
          Array.init m (fun k () -> Array.sub (Log.user_activity logs.(k)) u0 len)
        in
        Protocol2_distributed.make_core ~parties ~third_party ~slice:sl ~inputs)
  in
  (* One full-batch verdict, exactly as the links plan: core [y] values
     are in the slice's induced permuted order, so scattering through
     the sorted global slots rebuilds the full permuted vector. *)
  let y_of () =
    let y = Array.make n 0 in
    Array.iter
      (fun (core : Protocol2_distributed.core) ->
        let ym = core.y () in
        Array.iteri (fun j p -> y.(p) <- ym.(j)) core.slots)
      cores;
    y
  in
  let apply verdicts =
    Array.iter
      (fun (core : Protocol2_distributed.core) -> core.apply_wraps verdicts)
      cores
  in
  let verdict =
    Protocol2_distributed.make_verdict ~p1:parties.(1) ~third_party ~modulus
      ~input_bound:num_actions ~y_of ~apply
  in
  (* A player's full share is the concatenation of its per-core shares:
     slices are contiguous user ranges and core shares are in slice
     input order, so this is the whole-vector share in user order.
     Post-verdict player-2 entries may be negative (the wrap adjustment
     subtracts the modulus), so everything is reduced before going on
     the wire as [Ints] residues. *)
  let reduce s = ((s mod modulus) + modulus) mod modulus in
  let full_share of_core () =
    Array.map reduce
      (Array.concat (Array.to_list (Array.map (fun c -> (of_core c) ()) cores)))
  in
  let ints values = Runtime.Ints { modulus; values } in
  let from inbox src =
    List.find_map
      (fun msg ->
        match msg.Runtime.payload with
        | Runtime.Ints { values; _ } when msg.Runtime.src = src -> Some values
        | _ -> None)
      inbox
  in
  let require who = function
    | Some v -> v
    | None -> failwith ("Protocol_rank: missing " ^ who ^ " shares")
  in
  let activity = ref [||] in
  let published = ref [||] in
  let player_view = [| [||]; [||] |] in
  (* The iterate session's schedule (R = 2 * transitions + 2 rounds):
     round 1 the players send their reduced activity shares; at every
     even round H reconstructs mod S — the aggregate activity at round
     2, the echoed iterate afterwards — applies the next oracle
     transition and sends fresh additive shares of it (pre-drawn
     [reshares]); at odd rounds the players echo their shares straight
     back.  After the last transition H broadcasts the published rank
     vector, which the players receive at their finishing call. *)
  let last_echo_round = (2 * transitions_count) + 1 in
  let player idx me share_of ~round ~inbox =
    if round = 1 then [ { Runtime.src = me; dst = Wire.Host; payload = ints (share_of ()) } ]
    else
      match from inbox Wire.Host with
      | None -> []
      | Some v ->
        if round <= last_echo_round then
          [ { Runtime.src = me; dst = Wire.Host; payload = ints v } ]
        else begin
          player_view.(idx) <- v;
          []
        end
  in
  let transitions = ref [||] in
  let next = ref 0 in
  let host ~round ~inbox =
    if round mod 2 = 1 then []
    else begin
      let v =
        if round = 2 then begin
          let s1 = require "player 1" (from inbox p0) in
          let s2 = require "player 2" (from inbox p1) in
          let a = Array.init n (fun i -> (s1.(i) + s2.(i)) mod modulus) in
          activity := a;
          let t = Oracle.teleport config.oracle ~n ~activity:a in
          transitions :=
            Array.of_list (Oracle.transitions config.oracle graph ~teleport:t);
          t
        end
        else begin
          let u = require "player 1 echo" (from inbox p0) in
          let w = require "player 2 echo" (from inbox p1) in
          Array.init n (fun i -> (u.(i) + w.(i)) mod modulus)
        end
      in
      let i = !next in
      if i < Array.length !transitions then begin
        incr next;
        let v' = (!transitions).(i) v in
        let u = reshares.(i) in
        let w = Array.init n (fun j -> reduce (v'.(j) - u.(j))) in
        [
          { Runtime.src = Wire.Host; dst = p0; payload = ints u };
          { Runtime.src = Wire.Host; dst = p1; payload = ints w };
        ]
      end
      else begin
        published := v;
        [
          { Runtime.src = Wire.Host; dst = p0; payload = ints v };
          { Runtime.src = Wire.Host; dst = p1; payload = ints v };
        ]
      end
    end
  in
  let iterate =
    Session.with_label "rank-iterate"
      (Session.make
         ~parties:[| p0; p1; Wire.Host |]
         ~programs:
           [|
             player 0 p0 (full_share (fun c -> c.Protocol2_distributed.share1));
             player 1 p1 (full_share (fun c -> c.Protocol2_distributed.share2));
             host;
           |]
         ~rounds:(rounds config)
         ~result:(fun () -> ()))
  in
  let result () =
    let ranks_fx = !published in
    (* Player views are only populated by player programs that ran in
       this process; under a daemon deployment H's plan copy never runs
       them, so an untouched view is not a disagreement. *)
    Array.iteri
      (fun idx view ->
        if view <> [||] && view <> ranks_fx then
          failwith
            (Printf.sprintf "Protocol_rank: player %d release disagrees with H"
               (idx + 1)))
      player_view;
    { ranks_fx; ranks = Oracle.to_floats config.oracle ranks_fx; activity = !activity }
  in
  Plan.make ~shards:k_eff
    ~stages:
      [
        Plan.stage ~label:"rank-share"
          (Array.map (fun (c : Protocol2_distributed.core) -> c.session) cores);
        Plan.stage ~label:"p2-verdict" [| verdict.Protocol2_distributed.session |];
        Plan.stage ~label:"rank-iterate" [| iterate |];
      ]
    ~result
