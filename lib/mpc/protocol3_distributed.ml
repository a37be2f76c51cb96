module Dist = Spe_rng.Dist

let draw st ~groups = Array.init groups (fun _ -> Dist.mask_pair st)

let mask_phase ~p1 ~p2 ~host ~masks ~agree ~shares1 ~shares2 ~deliver =
  if p1 = p2 || p1 = host || p2 = host then
    invalid_arg "Protocol3_distributed.mask_phase: parties must be distinct";
  let player me other shares ~round ~inbox:_ =
    match round with
    | 1 | 2 ->
      [ { Runtime.src = me; dst = other; payload = Runtime.Floats (Array.make agree 0.) } ]
    | 3 ->
      let values, groups = shares () in
      (* In place, by a loop: no second vector and no boxed float per
         entry on the phase's largest send. *)
      for e = 0 to Array.length values - 1 do
        values.(e) <- masks.(groups.(e)) *. values.(e)
      done;
      [ { Runtime.src = me; dst = host; payload = Runtime.Floats values } ]
    | _ -> []
  in
  let host_program ~round:_ ~inbox =
    let masked_of party =
      List.find_map
        (fun msg ->
          match msg.Runtime.payload with
          | Runtime.Floats v when msg.Runtime.src = party -> Some v
          | _ -> None)
        inbox
    in
    (match (masked_of p1, masked_of p2) with
    | Some v1, Some v2 -> deliver v1 v2
    | _ -> ());
    []
  in
  Session.with_label "p3-mask"
    (Session.make
       ~parties:[| p1; p2; host |]
       ~programs:[| player p1 p2 shares1; player p2 p1 shares2; host_program |]
       ~rounds:3 ~result:ignore)
