module Wire = Spe_mpc.Wire
module Runtime = Spe_mpc.Runtime
module Session = Spe_mpc.Session
module Log = Spe_actionlog.Log

let make st ~h ~providers ~trusted ~logs ~obfuscation =
  if h < 1 then invalid_arg "Protocol5_distributed.make: window must be >= 1";
  let d = Array.length providers in
  if d < 1 then invalid_arg "Protocol5_distributed.make: need at least one provider";
  if Array.length logs <> d then invalid_arg "Protocol5_distributed.make: one log per provider";
  if Array.exists (fun p -> p = trusted) providers then
    invalid_arg "Protocol5_distributed.make: trusted party must be outside the class providers";
  let num_actions = Log.num_actions logs.(0) in
  Array.iter
    (fun l ->
      if Log.num_users l <> Log.num_users logs.(0) || Log.num_actions l <> num_actions then
        invalid_arg "Protocol5_distributed.make: mismatched log universes")
    logs;
  let representative = providers.(0) in
  (* All the class randomness (the joint renaming secrets, the shift
     cipher) is drawn here, in the central order; the programs only
     ship and count. *)
  let plan = Protocol5.prepare st ~h ~logs ~obfuscation in
  let user_modulus = max 2 plan.Protocol5.obf_users in
  let action_modulus = max 2 num_actions in
  let time_modulus = max 2 plan.Protocol5.period in
  let count_modulus = max 2 (num_actions + 1) in
  let record_moduli = [| user_modulus; action_modulus; time_modulus |] in
  let a_moduli = [| user_modulus; count_modulus |] in
  let c_moduli = Array.append [| user_modulus; user_modulus |] (Array.make h count_modulus) in
  let result = ref None in
  let decode_counters inbox =
    List.iter
      (fun msg ->
        match msg.Runtime.payload with
        | Runtime.Batch
            [ Runtime.Tuples { rows = a_rows; _ }; Runtime.Tuples { rows = c_rows; _ } ]
          when msg.Runtime.src = trusted ->
          let a_table = Hashtbl.create (Array.length a_rows) in
          Array.iter (fun row -> Hashtbl.replace a_table row.(0) row.(1)) a_rows;
          let c_table = Hashtbl.create (Array.length c_rows) in
          Array.iter
            (fun row -> Hashtbl.replace c_table (row.(0), row.(1)) (Array.sub row 2 h))
            c_rows;
          result := Some (plan.Protocol5.unobfuscate a_table c_table)
        | _ -> ())
      inbox
  in
  let provider_program k ~round ~inbox =
    match round with
    | 1 ->
      (* Round 1: every class provider ships its obfuscated class log. *)
      let rows =
        Array.of_list
          (List.map
             (fun r -> [| r.Protocol5.user; r.Protocol5.action; r.Protocol5.time |])
             plan.Protocol5.obf_logs.(k))
      in
      [ { Runtime.src = providers.(k); dst = trusted;
          payload = Runtime.Tuples { moduli = record_moduli; rows } } ]
    | _ ->
      (* Round 3 (the finishing call): the representative receives the
         counter tables and inverts the obfuscation. *)
      if k = 0 then decode_counters inbox;
      []
  in
  let trusted_program ~round ~inbox =
    if round = 2 then begin
      let records =
        List.concat_map
          (fun msg ->
            match msg.Runtime.payload with
            | Runtime.Tuples { moduli; rows } when moduli = record_moduli ->
              List.map
                (fun row -> { Protocol5.user = row.(0); action = row.(1); time = row.(2) })
                (Array.to_list rows)
            | _ -> [])
          inbox
      in
      let a_table, c_table =
        Protocol5.trusted_count ~h ~lag_of:plan.Protocol5.lag_of records
      in
      let a_rows =
        Array.of_list (Hashtbl.fold (fun u cnt acc -> [| u; cnt |] :: acc) a_table [])
      in
      let c_rows =
        Array.of_list
          (Hashtbl.fold
             (fun (u, u') row acc -> Array.append [| u; u' |] row :: acc)
             c_table [])
      in
      [ { Runtime.src = trusted; dst = representative;
          payload =
            Runtime.Batch
              [ Runtime.Tuples { moduli = a_moduli; rows = a_rows };
                Runtime.Tuples { moduli = c_moduli; rows = c_rows } ] } ]
    end
    else []
  in
  let parties = Array.append providers [| trusted |] in
  let programs =
    Array.append (Array.init d provider_program) [| trusted_program |]
  in
  Session.with_label "p5-class"
  @@ Session.make ~parties ~programs ~rounds:2 ~result:(fun () ->
         match !result with
         | Some counters -> counters
         | None -> failwith "Protocol5_distributed: counters never arrived")
