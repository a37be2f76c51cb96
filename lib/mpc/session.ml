type 'r t = {
  parties : Wire.party array;
  programs : Runtime.program array;
  rounds : int;
  phases : (string * int) list;
  result : unit -> 'r;
}

let make ~parties ~programs ~rounds ~result =
  if Array.length parties <> Array.length programs then
    invalid_arg "Session.make: one program per party";
  if rounds < 0 then invalid_arg "Session.make: negative round count";
  Array.iteri
    (fun i p ->
      for j = 0 to i - 1 do
        if parties.(j) = p then invalid_arg "Session.make: duplicate party"
      done)
    parties;
  { parties; programs; rounds; phases = [ ("session", rounds) ]; result }

let with_label label t = { t with phases = [ (label, t.rounds) ] }

let with_epoch epoch t =
  if epoch < 0 then invalid_arg "Session.with_epoch: epoch must be >= 0";
  { t with
    phases = List.map (fun (l, n) -> (Printf.sprintf "e%d/%s" epoch l, n)) t.phases
  }

let map f t = { t with result = (fun () -> f (t.result ())) }

let program_of t party =
  let rec find k =
    if k >= Array.length t.parties then None
    else if t.parties.(k) = party then Some t.programs.(k)
    else find (k + 1)
  in
  find 0

(* Union keeping [a]'s order first — engine registration order decides
   inbox ordering, so this must be deterministic. *)
let union_parties a b =
  let extra =
    Array.to_list b.parties
    |> List.filter (fun p -> not (Array.exists (( = ) p) a.parties))
  in
  Array.append a.parties (Array.of_list extra)

let member parties p = Array.exists (( = ) p) parties

let seq a b =
  let parties = union_parties a b in
  let programs =
    Array.map
      (fun party ->
        let pa = program_of a party and pb = program_of b party in
        fun ~round ~inbox ->
          if round <= a.rounds then
            match pa with
            | Some f -> f ~round ~inbox
            | None ->
              if inbox <> [] then
                invalid_arg "Session.seq: message across phase boundary";
              []
          else if round = a.rounds + 1 then begin
            (* Phase A's finishing call: final inbox, mandatory silence;
               then phase B's first round on an empty inbox. *)
            (match pa with
            | Some f ->
              if f ~round ~inbox <> [] then
                invalid_arg "Session.seq: first phase overran its declared rounds"
            | None ->
              if inbox <> [] then
                invalid_arg "Session.seq: message across phase boundary");
            match pb with Some f -> f ~round:1 ~inbox:[] | None -> []
          end
          else
            match pb with
            | Some f -> f ~round:(round - a.rounds) ~inbox
            | None ->
              if inbox <> [] then
                invalid_arg "Session.seq: message across phase boundary";
              [])
      parties
  in
  {
    parties;
    programs;
    rounds = a.rounds + b.rounds;
    phases = a.phases @ b.phases;
    result =
      (fun () ->
        let ra = a.result () in
        let rb = b.result () in
        (ra, rb));
  }

(* The label a component's phase map gives to its local round [r]. *)
let phase_of_local phases r =
  let rec go segs r =
    match segs with
    | [] -> "session"
    | (label, len) :: rest -> if r <= len then label else go rest (r - len)
  in
  go phases r

let all sessions =
  match sessions with
  | [] -> invalid_arg "Session.all: need at least one session"
  | sessions ->
    let comps = Array.of_list sessions in
    let ns = Array.length comps in
    (* Static schedule: every global round is owned by exactly one
       component round [(s, r)] with [r <= rounds_s], in round-major
       [(r, s)] order, so the total is the sum of the component round
       counts and — because every declared component round is
       message-bearing — every global round is message-bearing too.
       Messages sent by component [s] at global round [g] are banked at
       [g + 1] and replayed at [s]'s next owned round (or at its
       finishing call, which fires at the first global round past its
       last owned one; the final flush lands on the engine's uncharged
       quiescent round). *)
    let max_rounds = Array.fold_left (fun acc c -> max acc c.rounds) 0 comps in
    let schedule =
      List.concat_map
        (fun r ->
          List.filter_map
            (fun s -> if comps.(s).rounds >= r then Some (s, r) else None)
            (List.init ns Fun.id))
        (List.init max_rounds (fun i -> i + 1))
      |> Array.of_list
    in
    let total = Array.length schedule in
    let last_global = Array.make ns 0 in
    Array.iteri (fun g (s, _) -> last_global.(s) <- g + 1) schedule;
    (* First-appearance union: components with identical party orders
       (the sharding case) keep their native inbox ordering. *)
    let parties =
      let acc = ref [] in
      Array.iter
        (fun c ->
          Array.iter (fun p -> if not (List.mem p !acc) then acc := p :: !acc) c.parties)
        comps;
      Array.of_list (List.rev !acc)
    in
    let programs =
      Array.map
        (fun party ->
          let subs = Array.map (fun c -> program_of c party) comps in
          let pending = Array.make ns [] in
          let finished = Array.make ns false in
          let bank s inbox =
            List.iter
              (fun msg ->
                if not (member comps.(s).parties msg.Runtime.src) then
                  invalid_arg "Session.all: message across session boundary")
              inbox;
            match subs.(s) with
            | Some _ -> pending.(s) <- pending.(s) @ inbox
            | None ->
              if inbox <> [] then invalid_arg "Session.all: message across session boundary"
          in
          let finish s =
            if not finished.(s) then begin
              finished.(s) <- true;
              (match subs.(s) with
              | Some f ->
                if f ~round:(comps.(s).rounds + 1) ~inbox:pending.(s) <> [] then
                  invalid_arg "Session.all: component overran its declared rounds"
              | None ->
                if pending.(s) <> [] then
                  invalid_arg "Session.all: message across session boundary");
              pending.(s) <- []
            end
          in
          fun ~round ~inbox ->
            (* 1. Bank the inbox with the component that owned the
               previous global round. *)
            if round >= 2 && round <= total + 1 then bank (fst schedule.(round - 2)) inbox;
            (* 2. Flush finishing calls for components whose last owned
               round has passed (mandatory silence, like [seq]). *)
            for s = 0 to ns - 1 do
              if (not finished.(s)) && last_global.(s) < round then finish s
            done;
            (* 3. Run the owner's local round on its banked inbox. *)
            if round <= total then begin
              let s, r = schedule.(round - 1) in
              match subs.(s) with
              | Some f ->
                let ib = pending.(s) in
                pending.(s) <- [];
                f ~round:r ~inbox:ib
              | None -> []
            end
            else [])
        parties
    in
    let phases =
      let rec build g acc =
        if g > total then List.rev acc
        else
          let s, r = schedule.(g - 1) in
          let label = Printf.sprintf "s%d:%s" s (phase_of_local comps.(s).phases r) in
          match acc with
          | (l, count) :: rest when l = label -> build (g + 1) ((l, count + 1) :: rest)
          | _ -> build (g + 1) ((label, 1) :: acc)
      in
      build 1 []
    in
    {
      parties;
      programs;
      rounds = total;
      phases;
      result = (fun () -> Array.map (fun c -> c.result ()) comps);
    }

let run ?(trace = Spe_obs.Trace.disabled ()) t ~wire =
  Spe_obs.Trace.set_phases trace t.phases;
  let engine = Runtime.create () in
  Array.iteri (fun k p -> Runtime.add_party engine p t.programs.(k)) t.parties;
  let executed =
    Spe_obs.Trace.span trace Spe_obs.Trace.Session "session" (fun () ->
        Runtime.run ~trace engine ~wire ~max_rounds:(t.rounds + 1))
  in
  if executed <> t.rounds then
    failwith
      (Printf.sprintf "Session.run: declared %d rounds but executed %d" t.rounds executed);
  t.result ()
