type payload =
  | Ints of { modulus : int; values : int array }
  | Floats of float array
  | Bits of bool array
  | Nats of { width_bits : int; values : Spe_bignum.Nat.t array }
  | Tuples of { moduli : int array; rows : int array array }
  | Batch of payload list

(* Closed form over the payload's shape, the lengths Frame's encoder
   states; the residue and width checks are the encoders' own, so a
   payload the wire charges is one the transports can encode. *)
let rec payload_bits = function
  | Ints { modulus; values } -> 8 * Codec.residues_length ~modulus values
  | Floats values -> 64 * Array.length values
  | Bits flags -> 8 * ((Array.length flags + 7) / 8)
  | Nats { width_bits; values } -> 8 * Codec.nats_length ~width_bits values
  | Tuples { moduli; rows } ->
    let row_bytes =
      Array.fold_left (fun acc modulus -> acc + Codec.residue_bytes ~modulus) 0 moduli
    in
    8 * row_bytes * Array.length rows
  | Batch payloads -> List.fold_left (fun acc p -> acc + payload_bits (batch_part p)) 0 payloads

(* Nothing builds a batch of batches, and refusing one keeps every
   decoder one level deep. *)
and batch_part = function
  | Batch _ -> invalid_arg "Runtime: a batch inside a batch"
  | p -> p

type message = { src : Wire.party; dst : Wire.party; payload : payload }

type program = round:int -> inbox:message list -> message list

type t = { mutable parties : (Wire.party * program) list (* registration order *) }

let create () = { parties = [] }

let add_party t party program =
  if List.mem_assoc party t.parties then invalid_arg "Runtime.add_party: duplicate party";
  t.parties <- t.parties @ [ (party, program) ]

let party_label p = Format.asprintf "%a" Wire.pp_party p

let run ?(trace = Spe_obs.Trace.disabled ()) t ~wire ~max_rounds =
  let tracing = Spe_obs.Trace.enabled trace in
  let inboxes : (Wire.party, message list) Hashtbl.t = Hashtbl.create 8 in
  let inbox_of party = Option.value ~default:[] (Hashtbl.find_opt inboxes party) in
  let rec loop round =
    if round > max_rounds then failwith "Runtime.run: protocol did not terminate";
    (* Deliver this round: every party steps on its inbox. *)
    let step () =
      List.concat_map
        (fun (party, program) ->
          let inbox = List.rev (inbox_of party) in
          Hashtbl.remove inboxes party;
          let sends =
            if tracing then
              Spe_obs.Trace.span trace ~party:(party_label party) ~index:round
                Spe_obs.Trace.Compute "step" (fun () -> program ~round ~inbox)
            else program ~round ~inbox
          in
          List.iter
            (fun msg ->
              if msg.src <> party then invalid_arg "Runtime.run: forged source";
              if not (List.mem_assoc msg.dst t.parties) then
                invalid_arg "Runtime.run: message to unknown party")
            sends;
          sends)
        t.parties
    in
    let outputs =
      if tracing then Spe_obs.Trace.span trace ~index:round Spe_obs.Trace.Round "round" step
      else step ()
    in
    match outputs with
    | [] -> round - 1
    | sends ->
      Wire.round wire (fun () ->
          List.iter
            (fun msg ->
              let bits = payload_bits msg.payload in
              Wire.send wire ~src:msg.src ~dst:msg.dst ~bits;
              if tracing then begin
                let src = party_label msg.src in
                Spe_obs.Trace.count trace ~party:src ~round Spe_obs.Trace.Messages 1;
                Spe_obs.Trace.count trace ~party:src ~round Spe_obs.Trace.Payload_bytes
                  (bits / 8)
              end;
              Hashtbl.replace inboxes msg.dst (msg :: inbox_of msg.dst))
            sends);
      loop (round + 1)
  in
  loop 1
