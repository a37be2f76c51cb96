module State = Spe_rng.State
module Wire = Spe_mpc.Wire
module Protocol2 = Spe_mpc.Protocol2
module Protocol3 = Spe_mpc.Protocol3
module Ot = Spe_mpc.Ot
module Digraph = Spe_graph.Digraph
module Log = Spe_actionlog.Log
module Counters = Spe_influence.Counters

type result = { strengths : ((int * int) * float) list; transfers : int }

let all_pairs n =
  let acc = ref [] in
  for u = n - 1 downto 0 do
    for v = n - 1 downto 0 do
      if u <> v then acc := (u, v) :: !acc
    done
  done;
  Array.of_list !acc

(* Split a double into two non-negative 32-bit OT messages and back. *)
let float_halves f =
  let bits = Int64.bits_of_float f in
  ( Int64.to_int (Int64.shift_right_logical bits 32),
    Int64.to_int (Int64.logand bits 0xFFFFFFFFL) )

let float_of_halves (hi, lo) =
  Int64.float_of_bits
    (Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo))

let analytic_wire_bits ~n ~edges ~key_bits ~modulus_bits =
  let q = n * (n - 1) in
  let counters = n + q in
  let m = 2 in
  (* Protocol 1/2 rounds (m = 2) + masked activity + 4|E| transfers. *)
  let sharing = (m * (m - 1) * counters * modulus_bits) + (2 * counters * modulus_bits) + counters in
  let masks = 4 * n * Wire.float_bits in
  let activity = 2 * n * Wire.float_bits in
  sharing + masks + activity + (4 * edges * Ot.wire_bits ~n:q ~key_bits)

let run st ~wire ~graph ~num_actions ~logs ~modulus ~h ~key_bits =
  let m = Array.length logs in
  if m < 2 then invalid_arg "Protocol4_oblivious.run: need at least two providers";
  let n = Digraph.n graph in
  let pairs = all_pairs n in
  let q = Array.length pairs in
  (* Providers build counters for every ordered pair; nothing about E
     is published. *)
  let inputs =
    Array.map
      (fun log ->
        let ct = Counters.compute log ~h ~pairs in
        Array.append ct.Counters.a (Array.map (fun row -> Array.fold_left ( + ) 0 row) ct.Counters.c))
      logs
  in
  let parties = Array.init m (fun k -> Wire.Provider k) in
  let third_party = if m > 2 then Wire.Provider 2 else Wire.Host in
  let { Protocol2.share1; share2; views = _ } =
    Protocol2.run st ~wire ~parties ~third_party ~modulus ~input_bound:num_actions ~inputs
  in
  (* Protocol 3 with per-user masks, as in Protocol 4. *)
  let shares_of shares =
    { Protocol3.den = Array.init n (fun i -> float_of_int shares.(i));
      num = Array.init q (fun k -> float_of_int shares.(n + k)) }
  in
  let { Protocol3.masked1; masked2; _ } =
    Protocol3.run st ~wire ~p1:parties.(0) ~p2:parties.(1) ~groups:(Array.map fst pairs)
      (shares_of share1) (shares_of share2)
  in
  (* Masked activity denominators travel in the clear (per user). *)
  Wire.round wire (fun () ->
      Wire.send wire ~src:parties.(0) ~dst:Wire.Host ~bits:(n * Wire.float_bits);
      Wire.send wire ~src:parties.(1) ~dst:Wire.Host ~bits:(n * Wire.float_bits));
  (* The host retrieves the masked numerator shares of its real arcs
     by oblivious transfer; the providers never learn the indices. *)
  let transfers = ref 0 in
  let fetch (masked : Protocol3.shares) idx ~sender =
    let messages_hi = Array.make q 0 and messages_lo = Array.make q 0 in
    for k = 0 to q - 1 do
      let hi, lo = float_halves masked.Protocol3.num.(k) in
      messages_hi.(k) <- hi;
      messages_lo.(k) <- lo
    done;
    let hi =
      Ot.transfer st ~wire ~sender ~receiver:Wire.Host ~key_bits ~messages:messages_hi
        ~choice:idx
    in
    let lo =
      Ot.transfer st ~wire ~sender ~receiver:Wire.Host ~key_bits ~messages:messages_lo
        ~choice:idx
    in
    transfers := !transfers + 2;
    float_of_halves (hi, lo)
  in
  (* Pair index lookup. *)
  let index = Hashtbl.create q in
  Array.iteri (fun k pair -> Hashtbl.replace index pair k) pairs;
  let strengths =
    Digraph.fold_edges graph ~init:[] ~f:(fun acc u v ->
        let idx = Hashtbl.find index (u, v) in
        let num = fetch masked1 idx ~sender:parties.(0) +. fetch masked2 idx ~sender:parties.(1) in
        let den = masked1.Protocol3.den.(u) +. masked2.Protocol3.den.(u) in
        let p = if den = 0. then 0. else num /. den in
        ((u, v), p) :: acc)
    |> List.rev
  in
  { strengths; transfers = !transfers }
