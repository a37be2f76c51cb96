module State = Spe_rng.State
module Wire = Spe_mpc.Wire
module Protocol3 = Spe_mpc.Protocol3
module Digraph = Spe_graph.Digraph
module Log = Spe_actionlog.Log

type host_result = { host : int; strengths : ((int * int) * float) list }

(* Host j's wire identity.  The Wire.party type has a single host
   constructor; multiple hosts are modelled as providers beyond the
   real provider range for accounting purposes. *)
let host_party ~m j = Wire.Provider (m + j)

let run st ~wire ~graphs ~logs config =
  let t = Array.length graphs in
  if t < 1 then invalid_arg "Protocol4_multi_host.run: need at least one host";
  let m = Array.length logs in
  if m < 2 then invalid_arg "Protocol4_multi_host.run: need at least two providers";
  let n = Digraph.n graphs.(0) in
  Array.iter
    (fun g ->
      if Digraph.n g <> n then
        invalid_arg "Protocol4_multi_host.run: hosts must share the user universe")
    graphs;
  Array.iter
    (fun l ->
      if Log.num_users l <> n then
        invalid_arg "Protocol4_multi_host.run: log/graph user universe mismatch")
    logs;
  let num_actions = Array.fold_left (fun acc l -> max acc (Log.num_actions l)) 0 logs in
  (* Each host publishes its own obfuscated pair set (Steps 1-2 per
     host, each a broadcast to the m providers). *)
  let published =
    Array.mapi
      (fun j g ->
        let ob = Spe_graph.Obfuscate.make st g ~c:config.Protocol4.c_factor in
        let qj = Spe_graph.Obfuscate.size ob in
        let node_bits = Wire.bits_for_int_mod (max 2 n) in
        Wire.round wire (fun () ->
            for k = 0 to m - 1 do
              Wire.send wire ~src:(host_party ~m j) ~dst:(Wire.Provider k)
                ~bits:(qj * 2 * node_bits)
            done);
        ob.Spe_graph.Obfuscate.pairs)
      graphs
  in
  (* Union of all published pairs, with each host's back-references. *)
  let union_index = Hashtbl.create 1024 in
  let union_rev = ref [] in
  let next = ref 0 in
  Array.iter
    (Array.iter (fun pair ->
         if not (Hashtbl.mem union_index pair) then begin
           Hashtbl.replace union_index pair !next;
           union_rev := pair :: !union_rev;
           incr next
         end))
    published;
  let union_pairs = Array.of_list (List.rev !union_rev) in
  (* One shared batch of sharing + masking over the union. *)
  let inputs =
    Array.map
      (fun l -> Protocol4.provider_input_of_log l ~h:config.Protocol4.h ~pairs:union_pairs)
      logs
  in
  let ms = Protocol4.share_and_mask st ~wire ~n ~num_actions ~pairs:union_pairs ~inputs config in
  let estimates =
    Protocol3.quotients ~groups:(Array.map fst union_pairs)
      ms.Protocol4.masked.Protocol3.masked1 ms.Protocol4.masked.Protocol3.masked2
  in
  (* Per host: players 1 and 2 ship the masked activity vector plus the
     masked numerators of that host's pairs only, from which the host
     computes those pairs' quotients. *)
  Array.mapi
    (fun j pairs ->
      let qj = Array.length pairs in
      Wire.round wire (fun () ->
          Wire.send wire ~src:(Wire.Provider 0) ~dst:(host_party ~m j)
            ~bits:((n + qj) * Wire.float_bits);
          Wire.send wire ~src:(Wire.Provider 1) ~dst:(host_party ~m j)
            ~bits:((n + qj) * Wire.float_bits));
      let strengths = ref [] in
      Array.iter
        (fun ((u, v) as pair) ->
          if Digraph.mem_edge graphs.(j) u v then
            strengths := ((u, v), estimates.(Hashtbl.find union_index pair)) :: !strengths)
        pairs;
      { host = j; strengths = List.rev !strengths })
    published
