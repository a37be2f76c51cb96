module Wire = Spe_mpc.Wire
module Runtime = Spe_mpc.Runtime
module Session = Spe_mpc.Session
module Digraph = Spe_graph.Digraph
module Obfuscate = Spe_graph.Obfuscate

let publish_slice_session ~node_modulus ~pairs ~m ~lo ~hi =
  if m < 1 then invalid_arg "Protocol4_distributed.publish_slice_session: need a provider";
  if lo < 0 || hi < lo || hi > Array.length pairs then
    invalid_arg "Protocol4_distributed.publish_slice_session: slice out of range";
  let flat =
    Array.init
      (2 * (hi - lo))
      (fun i ->
        let u, v = pairs.(lo + (i / 2)) in
        if i land 1 = 0 then u else v)
  in
  let received = Array.make m [||] in
  let host_program ~round ~inbox:_ =
    if round = 1 then
      List.init m (fun k ->
          { Runtime.src = Wire.Host; dst = Wire.Provider k;
            payload = Runtime.Ints { modulus = node_modulus; values = flat } })
    else []
  in
  let provider_program k ~round ~inbox =
    if round = 2 then
      List.iter
        (fun msg ->
          match msg.Runtime.payload with
          | Runtime.Ints { values; _ } when msg.Runtime.src = Wire.Host ->
            received.(k) <-
              Array.init
                (Array.length values / 2)
                (fun i -> (values.(2 * i), values.((2 * i) + 1)))
          | _ -> ())
        inbox;
    []
  in
  let parties = Array.append [| Wire.Host |] (Array.init m (fun k -> Wire.Provider k)) in
  let programs = Array.append [| host_program |] (Array.init m provider_program) in
  let session = Session.make ~parties ~programs ~rounds:1 ~result:(fun () -> ()) in
  (session, fun k -> received.(k))

let publish_pairs_phase st ~graph ~m ~c_factor =
  if m < 1 then invalid_arg "Protocol4_distributed.publish_pairs_phase: need a provider";
  let ob = Obfuscate.make st graph ~c:c_factor in
  let q = Obfuscate.size ob in
  let pairs = ob.Obfuscate.pairs in
  let node_modulus = max 2 (Digraph.n graph) in
  let session, received_of = publish_slice_session ~node_modulus ~pairs ~m ~lo:0 ~hi:q in
  (Session.map (fun () -> pairs) session, pairs, received_of)

let numerator_share estimator shares ~at =
  match estimator with
  | Protocol4.Eq1 -> float_of_int shares.(at)
  | Protocol4.Eq2 w ->
    let w = (w :> float array) in
    let acc = ref 0. in
    for l = 0 to Array.length w - 1 do
      acc := !acc +. (w.(l) *. float_of_int shares.(at + l))
    done;
    !acc
