module State = Spe_rng.State
module Perm = Spe_rng.Perm

type handle = { share1 : unit -> int array; share2 : unit -> int array }

(* ------------------------------------------------------------------ *)
(* Pre-drawn randomness and shard slices                               *)
(* ------------------------------------------------------------------ *)

type randomness = {
  modulus : int;
  input_bound : int;
  rpieces : int array array array;
  masks : int array;
  perm : Perm.t;
}

let draw st ~m ~modulus ~input_bound ~length =
  if m < 2 then invalid_arg "Protocol2_distributed.draw: need at least two parties";
  if input_bound < 0 || input_bound >= modulus then
    invalid_arg "Protocol2_distributed.draw: need 0 <= A < S";
  let len = length in
  (* Mirror the central draw order exactly: the Protocol 1 pieces of
     party 0, then party 1, ..., then player 2's masks, then the shared
     batch permutation — so both shares are bit-identical to
     Protocol2.run from an equal-positioned generator. *)
  let rpieces =
    Array.init m (fun _ ->
        let pieces = Array.init m (fun _ -> Array.make len 0) in
        for l = 0 to len - 1 do
          for j = 1 to m - 1 do
            pieces.(j).(l) <- State.next_int st modulus
          done
        done;
        pieces)
  in
  let masks = Array.init len (fun _ -> State.next_int st (modulus - input_bound)) in
  let perm = Perm.random st len in
  { modulus; input_bound; rpieces; masks; perm }

let concat = function
  | [] -> invalid_arg "Protocol2_distributed.concat: need at least one batch"
  | first :: _ as batches ->
    let m = Array.length first.rpieces in
    List.iter
      (fun r ->
        if
          r.modulus <> first.modulus || r.input_bound <> first.input_bound
          || Array.length r.rpieces <> m
        then invalid_arg "Protocol2_distributed.concat: batches drawn for different parameters")
      batches;
    let rpieces =
      Array.init m (fun k ->
          Array.init m (fun j -> Array.concat (List.map (fun r -> r.rpieces.(k).(j)) batches)))
    in
    let masks = Array.concat (List.map (fun r -> r.masks) batches) in
    (* Block-diagonal: batch b's counters keep their own permutation,
       shifted to the block that starts at b's offset. *)
    let perm = Array.make (Array.length masks) 0 in
    ignore
      (List.fold_left
         (fun off r ->
           Array.iteri (fun i p -> perm.(off + i) <- off + p) (r.perm :> int array);
           off + Array.length r.masks)
         0 batches);
    { first with rpieces; masks; perm = Perm.of_array perm }

type slice = {
  randomness : randomness;
  start : int;
  positions : int array;
  slots : int array;
}

let slice r ~start ~len =
  let full = Array.length r.masks in
  if start < 0 || len < 0 || start + len > full then
    invalid_arg "Protocol2_distributed.slice: out of range";
  let rpieces =
    Array.map (Array.map (fun row -> Array.sub row start len)) r.rpieces
  in
  let masks = Array.sub r.masks start len in
  (* The slice's counters keep their *global* permuted slots
     ([positions]); the induced permutation sends local index [i] to
     the rank of its global slot within the slice, so concatenating the
     per-slice permuted batches in slot order reassembles the full
     permuted batch.  No extra draws: the induced order is a pure
     function of the one shared permutation.  One walk over the global
     slots, each marked with its local index, yields both the ranks and
     the slice's slots in ascending order. *)
  let positions = Array.sub (r.perm :> int array) start len in
  let local = Array.make full (-1) in
  Array.iteri (fun i p -> local.(p) <- i) positions;
  let slots = Array.make len 0 and ranks = Array.make len 0 in
  let j = ref 0 in
  for p = 0 to full - 1 do
    let i = local.(p) in
    if i >= 0 then begin
      slots.(!j) <- p;
      ranks.(i) <- !j;
      incr j
    end
  done;
  let perm = Perm.of_array ranks in
  { randomness = { r with rpieces; masks; perm }; start; positions; slots }

(* ------------------------------------------------------------------ *)
(* The verdict-less core: Protocol 1 aggregation plus the masked       *)
(* wrap-test vectors to the third party, who assembles y silently at   *)
(* its finishing call.                                                 *)
(* ------------------------------------------------------------------ *)

type core = {
  session : unit Session.t;
  share1 : unit -> int array;
  share2 : unit -> int array;
  y : unit -> int array;
  slots : int array;
  apply_wraps : bool array -> unit;
  p2_leaks : unit -> Protocol2.leak array;
}

let make_core ~parties ~third_party ~slice:sl ~inputs =
  let m = Array.length parties in
  if m < 2 then invalid_arg "Protocol2_distributed.make: need at least two parties";
  if third_party = parties.(0) || third_party = parties.(1) then
    invalid_arg "Protocol2_distributed.make: third party must differ from players 1 and 2";
  if Array.length inputs <> m then
    invalid_arg "Protocol2_distributed.make: one input thunk per party";
  if Array.length sl.randomness.rpieces <> m then
    invalid_arg "Protocol2_distributed.make: randomness drawn for a different party count";
  let { modulus; input_bound = _; rpieces; masks; perm } = sl.randomness in
  let len = Array.length masks in
  let result1 = ref [||] and result2 = ref [||] in
  let p2_leaks = ref [||] in
  (* The y values travel as residues modulo 3S (s1 + s2 + r < 3S). *)
  let y_modulus = 3 * modulus in
  let sharing_programs =
    Array.mapi
      (fun k party ->
        let pieces = rpieces.(k) in
        let own_piece = ref [||] in
        let aggregate = ref [||] in
        (* Only fold share pieces (modulus S): the merged-role case
           below can see the masked vectors (modulus 3S) in the same
           inbox. *)
        let fold_inbox inbox s =
          List.iter
            (fun msg ->
              match msg.Runtime.payload with
              | Runtime.Ints { modulus = md; values } when md = modulus ->
                Array.iteri (fun l v -> s.(l) <- (s.(l) + v) mod modulus) values
              | _ -> ())
            inbox
        in
        let send_masked_to_third s offset_masks =
          let payload = Array.init len (fun l -> s.(l) + offset_masks.(l)) in
          [ { Runtime.src = party; dst = third_party;
              payload = Runtime.Ints { modulus = y_modulus; values = Perm.permute_array perm payload } } ]
        in
        let zero_masks = Array.make len 0 in
        let program ~round ~inbox =
          match round with
          | 1 ->
            let input = inputs.(k) () in
            if Array.length input <> len then
              invalid_arg "Protocol2_distributed: input vector length mismatch";
            Array.iteri
              (fun l x ->
                let partial = ref 0 in
                for j = 1 to m - 1 do
                  partial := (!partial + pieces.(j).(l)) mod modulus
                done;
                pieces.(0).(l) <- ((x - !partial) mod modulus + modulus) mod modulus)
              input;
            own_piece := pieces.(k);
            List.filter_map
              (fun j ->
                if j = k then None
                else
                  Some
                    { Runtime.src = party; dst = parties.(j);
                      payload = Runtime.Ints { modulus; values = pieces.(j) } })
              (List.init m (fun j -> j))
          | 2 ->
            let s = Array.copy !own_piece in
            fold_inbox inbox s;
            aggregate := s;
            if k = 0 then begin
              (* Player 1's aggregate is final: ship it to the third
                 party immediately (permuted). *)
              result1 := s;
              send_masked_to_third s zero_masks
            end
            else if k = 1 then
              if m = 2 then begin
                (* No collects to wait for: mask and ship now. *)
                result2 := Array.copy s;
                send_masked_to_third s masks
              end
              else []
            else
              [ { Runtime.src = party; dst = parties.(1);
                  payload = Runtime.Ints { modulus; values = s } } ]
          | 3 when k = 1 && m > 2 ->
            let s = !aggregate in
            fold_inbox inbox s;
            result2 := Array.copy s;
            send_masked_to_third s masks
          | _ -> []
        in
        program)
      parties
  in
  (* The third party: collects the two masked vectors and assembles y,
     staying silent — announcing the wrap verdicts is a separate
     session ({!make_verdict}), so sharded pipelines can run many cores
     and a single full-batch verdict. *)
  let v1 = ref None and v2 = ref None in
  let y_ref = ref [||] in
  let third_program ~round:_ ~inbox =
    List.iter
      (fun msg ->
        match msg.Runtime.payload with
        | Runtime.Ints { modulus = md; values } when md = y_modulus ->
          if msg.Runtime.src = parties.(0) then v1 := Some values
          else if msg.Runtime.src = parties.(1) then v2 := Some values
        | _ -> ())
      inbox;
    (match (!v1, !v2) with
    | Some a, Some b ->
      v1 := None;
      v2 := None;
      y_ref := Array.init len (fun l -> a.(l) + b.(l))
    | _ -> ());
    []
  in
  (* When the third party is itself a sharing party (the central m > 2
     pipelines use provider 3), merge both roles into one program: the
     share traffic and the masked vectors are disjoint in round and in
     modulus, so each role filters its own messages. *)
  let session_parties, programs =
    match
      Array.to_list parties |> List.mapi (fun i p -> (i, p))
      |> List.find_opt (fun (_, p) -> p = third_party)
    with
    | None ->
      (Array.append parties [| third_party |],
       Array.append sharing_programs [| third_program |])
    | Some (t, _) ->
      let merged ~round ~inbox =
        sharing_programs.(t) ~round ~inbox @ third_program ~round ~inbox
      in
      let programs = Array.copy sharing_programs in
      programs.(t) <- merged;
      (parties, programs)
  in
  let rounds = if m = 2 then 2 else 3 in
  let session =
    Session.with_label "p2-shares"
      (Session.make ~parties:session_parties ~programs ~rounds ~result:(fun () -> ()))
  in
  let input_bound = sl.randomness.input_bound in
  let apply_wraps verdicts =
    (* The verdict vector is indexed by *global* permuted slot; this
       core's counter [l] sits at slot [positions.(l)].  The leak is
       classified from the pre-adjustment share, exactly as the central
       Protocol 2 does. *)
    let s = !result2 in
    let leaks = Array.make len Protocol2.Nothing in
    for l = 0 to len - 1 do
      let wrapped = verdicts.(sl.positions.(l)) in
      leaks.(l) <- Protocol2.p2_leak ~input_bound ~s2:s.(l) ~wrapped;
      if wrapped then s.(l) <- s.(l) - modulus
    done;
    p2_leaks := leaks
  in
  {
    session;
    share1 = (fun () -> !result1);
    share2 = (fun () -> !result2);
    y = (fun () -> !y_ref);
    slots = sl.slots;
    apply_wraps;
    p2_leaks = (fun () -> !p2_leaks);
  }

(* ------------------------------------------------------------------ *)
(* The verdict announcement: one full-batch bitset from the third      *)
(* party to player 2.                                                  *)
(* ------------------------------------------------------------------ *)

type verdict = {
  session : unit Session.t;
  p3_leaks : unit -> Protocol2.leak array;
  p3_y : unit -> int array;
}

let make_verdict ~p1 ~third_party ~modulus ~input_bound ~y_of ~apply =
  if p1 = third_party then
    invalid_arg "Protocol2_distributed.make_verdict: third party must differ from player 2";
  let p3_leaks = ref [||] and p3_y = ref [||] in
  let third_program ~round ~inbox:_ =
    if round = 1 then begin
      let y = y_of () in
      p3_y := y;
      p3_leaks := Array.map (fun yl -> Protocol2.p3_leak ~modulus ~input_bound ~y:yl) y;
      let verdicts = Array.map (fun yl -> yl >= modulus) y in
      [ { Runtime.src = third_party; dst = p1; payload = Runtime.Bits verdicts } ]
    end
    else []
  in
  let p1_program ~round:_ ~inbox =
    (match
       List.find_map
         (fun msg ->
           match msg.Runtime.payload with
           | Runtime.Bits verdicts -> Some verdicts
           | _ -> None)
         inbox
     with
    | Some verdicts -> apply verdicts
    | None -> ());
    []
  in
  let session =
    Session.with_label "p2-verdict"
      (Session.make
         ~parties:[| p1; third_party |]
         ~programs:[| p1_program; third_program |]
         ~rounds:1
         ~result:(fun () -> ()))
  in
  { session; p3_leaks = (fun () -> !p3_leaks); p3_y = (fun () -> !p3_y) }

(* ------------------------------------------------------------------ *)
(* The classic single-batch session: a full-length core sequenced with *)
(* its verdict — wire-for-wire the original monolithic session.        *)
(* ------------------------------------------------------------------ *)

let make_lazy st ~parties ~third_party ~modulus ~input_bound ~length ~inputs =
  let m = Array.length parties in
  if m < 2 then invalid_arg "Protocol2_distributed.make: need at least two parties";
  if third_party = parties.(0) || third_party = parties.(1) then
    invalid_arg "Protocol2_distributed.make: third party must differ from players 1 and 2";
  if input_bound < 0 || input_bound >= modulus then
    invalid_arg "Protocol2_distributed.make: need 0 <= A < S";
  if Array.length inputs <> m then
    invalid_arg "Protocol2_distributed.make: one input thunk per party";
  let r = draw st ~m ~modulus ~input_bound ~length in
  let sl = slice r ~start:0 ~len:length in
  let core = make_core ~parties ~third_party ~slice:sl ~inputs in
  (* The full slice's induced permutation is the shared permutation
     itself, so the core's y is already the full permuted batch. *)
  let verdict =
    make_verdict ~p1:parties.(1) ~third_party ~modulus ~input_bound ~y_of:core.y
      ~apply:core.apply_wraps
  in
  let session =
    Session.with_label "p2-shares"
      (Session.map
         (fun ((), ()) ->
           {
             Protocol2.share1 = core.share1 ();
             share2 = core.share2 ();
             views =
               {
                 Protocol2.p2_leaks = core.p2_leaks ();
                 p3_leaks = verdict.p3_leaks ();
                 p3_y = verdict.p3_y ();
               };
           })
         (Session.seq core.session verdict.session))
  in
  (session, { share1 = core.share1; share2 = core.share2 })

let make st ~parties ~third_party ~modulus ~input_bound ~inputs =
  if Array.exists (fun p -> p = third_party) parties then
    invalid_arg "Protocol2_distributed.make: third party must be outside the sharing parties";
  let length = if Array.length inputs = 0 then 0 else Array.length inputs.(0) in
  let session, _ =
    make_lazy st ~parties ~third_party ~modulus ~input_bound ~length
      ~inputs:(Array.map (fun input () -> input) inputs)
  in
  session
