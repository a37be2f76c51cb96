module Dist = Spe_rng.Dist

let make st ~p1 ~p2 ~host ~a1 ~a2 =
  if a1 < 0 || a2 < 0 then invalid_arg "Protocol3_distributed.make: inputs must be non-negative";
  if p1 = p2 || p1 = host || p2 = host then
    invalid_arg "Protocol3_distributed.make: parties must be distinct";
  (* Steps 1-2: jointly drawn mask, consumed straight off the supplied
     generator exactly as Protocol3.run does — bit-identical masked
     values, hence a bit-identical quotient. *)
  let r = Dist.mask_pair st in
  let quotient = ref 0. in
  let sender value party ~round ~inbox:_ =
    if round = 1 then
      [ { Runtime.src = party; dst = host;
          payload = Runtime.Floats [| r *. float_of_int value |] } ]
    else []
  in
  let host_program ~round:_ ~inbox =
    let masked_of party =
      List.find_map
        (fun msg ->
          match msg.Runtime.payload with
          | Runtime.Floats v when msg.Runtime.src = party -> Some v.(0)
          | _ -> None)
        inbox
    in
    (match (masked_of p1, masked_of p2) with
    | Some m1, Some m2 -> quotient := (if m2 = 0. then 0. else m1 /. m2)
    | _ -> ());
    []
  in
  Session.with_label "p3-divide"
    (Session.make
       ~parties:[| p1; p2; host |]
       ~programs:[| sender a1 p1; sender a2 p2; host_program |]
       ~rounds:1
       ~result:(fun () -> !quotient))
