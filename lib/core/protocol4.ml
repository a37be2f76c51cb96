module State = Spe_rng.State
module Wire = Spe_mpc.Wire
module Protocol2 = Spe_mpc.Protocol2
module Protocol3 = Spe_mpc.Protocol3
module Digraph = Spe_graph.Digraph
module Obfuscate = Spe_graph.Obfuscate
module Log = Spe_actionlog.Log
module Counters = Spe_influence.Counters

type estimator = Eq1 | Eq2 of Spe_influence.Link_strength.weights

type config = { c_factor : float; modulus : int; h : int; estimator : estimator }

let default_config ~h = { c_factor = 2.; modulus = 1 lsl 40; h; estimator = Eq1 }

type provider_input = { a : int array; c : int array array }

let provider_input_of_log log ~h ~pairs =
  let ct = Counters.compute log ~h ~pairs in
  { a = ct.Counters.a; c = ct.Counters.c }

type result = {
  strengths : ((int * int) * float) list;
  pairs : (int * int) array;
  pair_estimates : float array;
  p2_leaks : Protocol2.leak array;
  p3_leaks : Protocol2.leak array;
}

let publish_pairs st ~wire ~graph ~m ~c_factor =
  let ob = Obfuscate.make st graph ~c:c_factor in
  let q = Obfuscate.size ob in
  let node_bits = Wire.bits_for_int_mod (max 2 (Digraph.n graph)) in
  Wire.round wire (fun () ->
      for k = 0 to m - 1 do
        Wire.send wire ~src:Wire.Host ~dst:(Wire.Provider k) ~bits:(q * 2 * node_bits)
      done);
  ob.Obfuscate.pairs

let validate_inputs ~n ~q ~h inputs =
  let m = Array.length inputs in
  if m < 2 then invalid_arg "Protocol4.run: need at least two providers";
  Array.iter
    (fun input ->
      if Array.length input.a <> n then invalid_arg "Protocol4.run: activity vector length";
      if Array.length input.c <> q then invalid_arg "Protocol4.run: lag counter pair count";
      Array.iter
        (fun row -> if Array.length row <> h then invalid_arg "Protocol4.run: lag counter width")
        input.c)
    inputs;
  m

(* The counters provider k contributes to the batched Protocol 2,
   flattened as [a_0..a_(n-1); per-pair numerator counters].  For Eq. 1
   the numerator counter of a pair is b^h (the lag row-sum); for Eq. 2
   the h lag counters are shared individually. *)
let flatten_input estimator input =
  let numer =
    match estimator with
    | Eq1 -> Array.map (fun row -> Array.fold_left ( + ) 0 row) input.c
    | Eq2 _ -> Array.concat (Array.to_list input.c)
  in
  Array.append input.a numer

(* One player's Protocol 3 inputs: its activity shares (the
   denominators, one group per user) and one numerator share per
   published pair — the window share under Eq. 1, the local weighted
   combination of the h lag shares under Eq. 2. *)
let player_shares estimator ~h ~n ~q shares =
  let numerator_share k =
    match estimator with
    | Eq1 -> float_of_int shares.(n + k)
    | Eq2 w ->
      let w = (w :> float array) in
      let acc = ref 0. in
      for l = 0 to h - 1 do
        acc := !acc +. (w.(l) *. float_of_int shares.(n + (k * h) + l))
      done;
      !acc
  in
  { Protocol3.den = Array.init n (fun i -> float_of_int shares.(i));
    num = Array.init q numerator_share }

let strengths_of_estimates ~graph ~pairs estimates =
  let strengths = ref [] in
  for k = Array.length pairs - 1 downto 0 do
    let u, v = pairs.(k) in
    if Digraph.mem_edge graph u v then strengths := ((u, v), estimates.(k)) :: !strengths
  done;
  !strengths

type masked_shares = {
  masked : Protocol3.outcome;
  share_p2_leaks : Protocol2.leak array;
  share_p3_leaks : Protocol2.leak array;
}

let share_and_mask st ~wire ~n ~num_actions ~pairs ~inputs config =
  if config.h < 1 then invalid_arg "Protocol4.run: window must be >= 1";
  if config.modulus <= num_actions then invalid_arg "Protocol4.run: modulus must exceed A";
  (match config.estimator with
  | Eq1 -> ()
  | Eq2 w ->
    if Array.length (w :> float array) <> config.h then
      invalid_arg "Protocol4.run: weight profile length must equal h");
  let q = Array.length pairs in
  let m = validate_inputs ~n ~q ~h:config.h inputs in
  let parties = Array.init m (fun k -> Wire.Provider k) in
  let third_party = if m > 2 then Wire.Provider 2 else Wire.Host in
  (* Steps 3-4: batched Protocol 2 over all counters. *)
  let flat_inputs = Array.map (flatten_input config.estimator) inputs in
  let { Protocol2.share1; share2; views } =
    Protocol2.run st ~wire ~parties ~third_party ~modulus:config.modulus
      ~input_bound:num_actions ~inputs:flat_inputs
  in
  (* Steps 5-8 up to the sends: Protocol 3 with one joint mask r_i per
     user, over a_i and every pair sourced at i. *)
  let shares_of = player_shares config.estimator ~h:config.h ~n ~q in
  let masked =
    Protocol3.run st ~wire ~p1:parties.(0) ~p2:parties.(1) ~groups:(Array.map fst pairs)
      (shares_of share1) (shares_of share2)
  in
  { masked; share_p2_leaks = views.Protocol2.p2_leaks; share_p3_leaks = views.Protocol2.p3_leaks }

let run st ~wire ~graph ~num_actions ~pairs ~inputs config =
  let n = Digraph.n graph in
  let q = Array.length pairs in
  let ms = share_and_mask st ~wire ~n ~num_actions ~pairs ~inputs config in
  (* Steps 7-8: each of players 1 and 2 ships n + q masked reals. *)
  Wire.round wire (fun () ->
      Wire.send wire ~src:(Wire.Provider 0) ~dst:Wire.Host ~bits:((n + q) * Wire.float_bits);
      Wire.send wire ~src:(Wire.Provider 1) ~dst:Wire.Host ~bits:((n + q) * Wire.float_bits));
  (* Step 9: the host reconstructs the quotients. *)
  let pair_estimates =
    Protocol3.quotients ~groups:(Array.map fst pairs) ms.masked.Protocol3.masked1
      ms.masked.Protocol3.masked2
  in
  {
    strengths = strengths_of_estimates ~graph ~pairs pair_estimates;
    pairs;
    pair_estimates;
    p2_leaks = ms.share_p2_leaks;
    p3_leaks = ms.share_p3_leaks;
  }

let run_with_logs st ~wire ~graph ~logs config =
  let m = Array.length logs in
  if m < 2 then invalid_arg "Protocol4.run_with_logs: need at least two providers";
  let num_actions =
    Array.fold_left (fun acc l -> max acc (Log.num_actions l)) 0 logs
  in
  Array.iter
    (fun l ->
      if Log.num_users l <> Digraph.n graph then
        invalid_arg "Protocol4.run_with_logs: log/graph user universe mismatch")
    logs;
  let pairs = publish_pairs st ~wire ~graph ~m ~c_factor:config.c_factor in
  let inputs = Array.map (fun l -> provider_input_of_log l ~h:config.h ~pairs) logs in
  run st ~wire ~graph ~num_actions ~pairs ~inputs config
