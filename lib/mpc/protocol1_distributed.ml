module State = Spe_rng.State

(* Mirror the central implementation's draw order exactly — party k's
   random pieces come off the shared generator before party k+1's, each
   in (element, piece) order — so the shares are bit-identical to
   Protocol1.run from an equal-positioned generator. *)
let draw_pieces st ~m ~modulus input =
  let len = Array.length input in
  let pieces = Array.init m (fun _ -> Array.make len 0) in
  Array.iteri
    (fun l x ->
      let partial = ref 0 in
      for j = 1 to m - 1 do
        let r = State.next_int st modulus in
        pieces.(j).(l) <- r;
        partial := (!partial + r) mod modulus
      done;
      pieces.(0).(l) <- ((x - !partial) mod modulus + modulus) mod modulus)
    input;
  pieces

let make st ~parties ~modulus ~inputs =
  let m = Array.length parties in
  if m < 2 then invalid_arg "Protocol1_distributed.make: need at least two parties";
  if Array.length inputs <> m then
    invalid_arg "Protocol1_distributed.make: one input vector per party";
  let all_pieces = Array.map (draw_pieces st ~m ~modulus) inputs in
  (* Outputs extracted from the party closures after the run. *)
  let result1 = ref [||] and result2 = ref [||] in
  let programs =
    Array.mapi
      (fun k party ->
        let pieces = all_pieces.(k) in
        (* Party-local state. *)
        let own_piece = ref [||] in
        let aggregate = ref [||] in
        let program ~round ~inbox =
          match round with
          | 1 ->
            (* Keep piece k, address piece j to party j. *)
            own_piece := pieces.(k);
            List.filter_map
              (fun j ->
                if j = k then None
                else
                  Some
                    {
                      Runtime.src = party;
                      dst = parties.(j);
                      payload = Runtime.Ints { modulus; values = pieces.(j) };
                    })
              (List.init m (fun j -> j))
          | 2 ->
            (* Aggregate own piece plus everything received. *)
            let s = Array.copy !own_piece in
            List.iter
              (fun msg ->
                match msg.Runtime.payload with
                | Runtime.Ints { values; _ } ->
                  Array.iteri (fun l v -> s.(l) <- (s.(l) + v) mod modulus) values
                | _ -> invalid_arg "Protocol1_distributed: unexpected payload")
              inbox;
            aggregate := s;
            if k = 0 then begin
              result1 := s;
              []
            end
            else if k = 1 then begin
              result2 := s;
              []
            end
            else
              [ { Runtime.src = party; dst = parties.(1);
                  payload = Runtime.Ints { modulus; values = s } } ]
          | 3 ->
            (* Only party 2 has an inbox: fold the forwarded aggregates. *)
            if k = 1 then begin
              let s = !aggregate in
              List.iter
                (fun msg ->
                  match msg.Runtime.payload with
                  | Runtime.Ints { values; _ } ->
                    Array.iteri (fun l v -> s.(l) <- (s.(l) + v) mod modulus) values
                  | _ -> invalid_arg "Protocol1_distributed: unexpected payload")
                inbox;
              result2 := s
            end;
            []
          | _ -> []
        in
        program)
      parties
  in
  Session.with_label "p1-shares"
    (Session.make ~parties ~programs
       ~rounds:(if m = 2 then 1 else 2)
       ~result:(fun () -> { Protocol1.share1 = !result1; share2 = !result2 }))
