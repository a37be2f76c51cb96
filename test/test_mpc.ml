(* Tests for the MPC substrate: wire accounting, Protocol 1 modular
   share reconstruction, Protocol 2 integer shares and the Theorem 4.1
   leak classification, and Protocol 3's exact masked division. *)

module State = Spe_rng.State
module Wire = Spe_mpc.Wire
module Protocol1 = Spe_mpc.Protocol1
module Protocol2 = Spe_mpc.Protocol2
module Protocol3 = Spe_mpc.Protocol3

let st () = State.create ~seed:61 ()

let providers m = Array.init m (fun k -> Wire.Provider k)

(* --- wire ---------------------------------------------------------------- *)

let test_wire_accounting () =
  let w = Wire.create () in
  Wire.round w (fun () ->
      Wire.send w ~src:Wire.Host ~dst:(Wire.Provider 0) ~bits:100;
      Wire.send w ~src:(Wire.Provider 0) ~dst:(Wire.Provider 1) ~bits:50);
  Wire.round w (fun () -> Wire.send w ~src:(Wire.Provider 1) ~dst:Wire.Host ~bits:8);
  let s = Wire.stats w in
  Alcotest.(check int) "rounds" 2 s.Wire.rounds;
  Alcotest.(check int) "messages" 3 s.Wire.messages;
  Alcotest.(check int) "bits" 158 s.Wire.bits;
  Alcotest.(check int) "transcript length" 3 (List.length (Wire.messages w))

let test_wire_guards () =
  let w = Wire.create () in
  Alcotest.check_raises "send outside round" (Failure "Wire.send: outside a round") (fun () ->
      Wire.send w ~src:Wire.Host ~dst:(Wire.Provider 0) ~bits:1);
  Alcotest.check_raises "nested round" (Failure "Wire.round: nested round") (fun () ->
      Wire.round w (fun () -> Wire.round w (fun () -> ())));
  Wire.round w (fun () ->
      Alcotest.check_raises "self send" (Invalid_argument "Wire.send: self-send") (fun () ->
          Wire.send w ~src:Wire.Host ~dst:Wire.Host ~bits:1))

let test_wire_round_reopens_after_exception () =
  let w = Wire.create () in
  (try Wire.round w (fun () -> failwith "boom") with Failure _ -> ());
  (* The round guard must have been released. *)
  Wire.round w (fun () -> Wire.send w ~src:Wire.Host ~dst:(Wire.Provider 0) ~bits:1);
  Alcotest.(check int) "second round opened" 2 (Wire.stats w).Wire.rounds

let test_bits_for_int_mod () =
  Alcotest.(check int) "mod 2" 1 (Wire.bits_for_int_mod 2);
  Alcotest.(check int) "mod 256" 8 (Wire.bits_for_int_mod 256);
  Alcotest.(check int) "mod 257" 9 (Wire.bits_for_int_mod 257);
  Alcotest.(check int) "mod 2^40" 40 (Wire.bits_for_int_mod (1 lsl 40))

(* --- Protocol 1 ------------------------------------------------------------ *)

let run_p1 ?(modulus = 1 lsl 30) s inputs =
  let w = Wire.create () in
  let m = Array.length inputs in
  let r = Protocol1.run s ~wire:w ~parties:(providers m) ~modulus ~inputs in
  (r, Wire.stats w)

let test_p1_reconstruction () =
  let s = st () in
  let modulus = 1 lsl 30 in
  for _ = 1 to 200 do
    let m = 2 + State.next_int s 5 in
    let len = 1 + State.next_int s 10 in
    let inputs = Array.init m (fun _ -> Array.init len (fun _ -> State.next_int s 1000)) in
    let r, _ = run_p1 ~modulus s inputs in
    for l = 0 to len - 1 do
      let x = Array.fold_left (fun acc v -> acc + v.(l)) 0 inputs in
      let recon = (r.Protocol1.share1.(l) + r.Protocol1.share2.(l)) mod modulus in
      if recon <> x mod modulus then Alcotest.failf "bad reconstruction at %d" l
    done
  done

let test_p1_message_count () =
  let s = st () in
  List.iter
    (fun m ->
      let inputs = Array.init m (fun _ -> [| 5 |]) in
      let _, stats = run_p1 s inputs in
      let expected_messages = (m * (m - 1)) + if m > 2 then m - 2 else 0 in
      Alcotest.(check int) (Printf.sprintf "m=%d messages" m) expected_messages
        stats.Wire.messages;
      Alcotest.(check int)
        (Printf.sprintf "m=%d rounds" m)
        (if m = 2 then 1 else 2)
        stats.Wire.rounds)
    [ 2; 3; 5; 8 ]

let test_p1_share_uniformity () =
  (* share1 of a fixed input must spread over Z_S: crude bucket test. *)
  let s = st () in
  let modulus = 1 lsl 20 in
  let low = ref 0 in
  let trials = 2000 in
  for _ = 1 to trials do
    let r, _ = run_p1 ~modulus s [| [| 3 |]; [| 4 |] |] in
    if r.Protocol1.share1.(0) < modulus / 2 then incr low
  done;
  let frac = float_of_int !low /. float_of_int trials in
  Alcotest.(check bool) "share1 roughly uniform" true (abs_float (frac -. 0.5) < 0.05)

let test_p1_validation () =
  let s = st () in
  Alcotest.check_raises "one party" (Invalid_argument "Protocol1.run: need at least two parties")
    (fun () -> ignore (run_p1 s [| [| 1 |] |]));
  Alcotest.check_raises "input out of range"
    (Invalid_argument "Protocol1.run: input out of range") (fun () ->
      ignore (run_p1 ~modulus:10 s [| [| 11 |]; [| 0 |] |]));
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Protocol1.run: input vector length mismatch") (fun () ->
      ignore (run_p1 s [| [| 1 |]; [| 1; 2 |] |]))

(* --- Protocol 2 ------------------------------------------------------------ *)

let run_p2 ?(modulus = 1 lsl 20) ?(bound = 1000) s inputs =
  let w = Wire.create () in
  let m = Array.length inputs in
  let third = if m > 2 then Wire.Provider 2 else Wire.Host in
  let r =
    Protocol2.run s ~wire:w ~parties:(providers m) ~third_party:third ~modulus
      ~input_bound:bound ~inputs
  in
  (r, Wire.stats w)

let test_p2_integer_reconstruction () =
  let s = st () in
  for _ = 1 to 500 do
    let m = 2 + State.next_int s 4 in
    let len = 1 + State.next_int s 8 in
    (* Keep aggregates within the bound. *)
    let inputs = Array.init m (fun _ -> Array.init len (fun _ -> State.next_int s (1000 / m))) in
    let r, _ = run_p2 s inputs in
    for l = 0 to len - 1 do
      let x = Array.fold_left (fun acc v -> acc + v.(l)) 0 inputs in
      (* Exact integer equality: this is the whole point of Protocol 2. *)
      if r.Protocol2.share1.(l) + r.Protocol2.share2.(l) <> x then
        Alcotest.failf "integer shares do not sum to x at %d" l
    done
  done

let test_p2_share1_nonnegative () =
  let s = st () in
  for _ = 1 to 100 do
    let r, _ = run_p2 s [| [| State.next_int s 500 |]; [| State.next_int s 500 |] |] in
    if r.Protocol2.share1.(0) < 0 then Alcotest.fail "share1 must stay in [0, S)"
  done

let test_p2_rounds () =
  let s = st () in
  (* m = 2: P1 round + to-T + verdict = 3 rounds; m > 2 adds the
     collect round. *)
  let _, stats2 = run_p2 s [| [| 1 |]; [| 2 |] |] in
  Alcotest.(check int) "m=2 rounds" 3 stats2.Wire.rounds;
  let _, stats4 = run_p2 s [| [| 1 |]; [| 2 |]; [| 3 |]; [| 4 |] |] in
  Alcotest.(check int) "m=4 rounds" 4 stats4.Wire.rounds

let test_p2_leak_soundness () =
  (* Every reported leak must be a true statement about the aggregate. *)
  let s = st () in
  for _ = 1 to 2000 do
    let a = State.next_int s 500 and b = State.next_int s 500 in
    let x = a + b in
    let r, _ = run_p2 s [| [| a |]; [| b |] |] in
    let check = function
      | Protocol2.Lower_bound v -> if x < v then Alcotest.failf "false lower bound %d on %d" v x
      | Protocol2.Upper_bound v -> if x > v then Alcotest.failf "false upper bound %d on %d" v x
      | Protocol2.Nothing -> ()
    in
    Array.iter check r.Protocol2.views.Protocol2.p2_leaks;
    Array.iter check r.Protocol2.views.Protocol2.p3_leaks
  done

let test_p2_leak_rate_shrinks_with_modulus () =
  (* Theorem 4.1: leak probabilities scale like A/S.  Compare S = 2^12
     against S = 2^20 at A = 1000. *)
  let count_leaks modulus =
    let s = State.create ~seed:77 () in
    let leaks = ref 0 in
    let trials = 3000 in
    for _ = 1 to trials do
      let a = State.next_int s 500 and b = State.next_int s 500 in
      let r, _ = run_p2 ~modulus s [| [| a |]; [| b |] |] in
      let tally = function Protocol2.Nothing -> () | _ -> incr leaks in
      Array.iter tally r.Protocol2.views.Protocol2.p2_leaks;
      Array.iter tally r.Protocol2.views.Protocol2.p3_leaks
    done;
    float_of_int !leaks /. float_of_int trials
  in
  let small = count_leaks (1 lsl 12) and big = count_leaks (1 lsl 20) in
  Alcotest.(check bool)
    (Printf.sprintf "leak rate %.4f at 2^12 vs %.4f at 2^20" small big)
    true
    (big < small /. 10.)

let test_p2_permutation_hides_attribution () =
  (* The batched variant's point: the third party sees the y values in
     a secret order, so it cannot tell which counter a leak belongs to.
     Statistical check: plant one extreme counter among uniform ones
     and verify the position of the largest y is roughly uniform over
     the batch across runs. *)
  let s = st () in
  let len = 8 in
  let runs = 4000 in
  let position_counts = Array.make len 0 in
  for _ = 1 to runs do
    (* Counter 0 is maximal (A), the rest are zero: without the
       permutation its masked value would sit at a fixed position. *)
    let inputs = [| Array.init len (fun l -> if l = 0 then 1000 else 0); Array.make len 0 |] in
    let r, _ = run_p2 ~modulus:(1 lsl 20) ~bound:1000 s inputs in
    (* T's view: the y vector.  Find the position holding the largest
       y; under the secret permutation it should be uniform.  (y is
       dominated by the uniform share noise, so use a proxy the third
       party could actually compute: the position of counter 0's y is
       perm(0), which we can read from the views' ordering by running
       the classification...) Use p3_y directly: all counters look
       alike to T, so test that the *index of the maximum* is not
       concentrated. *)
    let y = r.Protocol2.views.Protocol2.p3_y in
    let best = ref 0 in
    for l = 1 to len - 1 do
      if y.(l) > y.(!best) then best := l
    done;
    position_counts.(!best) <- position_counts.(!best) + 1
  done;
  (* Uniform expectation runs/len with generous slack. *)
  let expected = float_of_int runs /. float_of_int len in
  Array.iteri
    (fun l c ->
      let dev = abs_float (float_of_int c -. expected) /. expected in
      if dev > 0.25 then Alcotest.failf "position %d concentration: %d of %d" l c runs)
    position_counts

let test_p2_aggregate_bound_enforced () =
  let s = st () in
  Alcotest.check_raises "aggregate over bound"
    (Invalid_argument "Protocol2.run: aggregate exceeds input bound") (fun () ->
      ignore (run_p2 ~bound:10 s [| [| 6 |]; [| 6 |] |]))

let test_p2_third_party_distinct () =
  let s = st () in
  let w = Wire.create () in
  Alcotest.check_raises "third party clash"
    (Invalid_argument "Protocol2.run: third party must differ from players 1 and 2") (fun () ->
      ignore
        (Protocol2.run s ~wire:w ~parties:(providers 2) ~third_party:(Wire.Provider 0)
           ~modulus:1000 ~input_bound:10 ~inputs:[| [| 1 |]; [| 2 |] |]))

(* --- Protocol 3 ------------------------------------------------------------ *)

let test_p3_exact_quotient () =
  let s = st () in
  for _ = 1 to 2000 do
    let a1 = State.next_int s 1000 and a2 = 1 + State.next_int s 999 in
    let w = Wire.create () in
    let o =
      Protocol3.run s ~wire:w ~p1:(Wire.Provider 0) ~p2:(Wire.Provider 1) ~host:Wire.Host ~a1
        ~a2
    in
    let expected = float_of_int a1 /. float_of_int a2 in
    if abs_float (o.Protocol3.quotient -. expected) > 1e-9 *. expected +. 1e-12 then
      Alcotest.failf "quotient %f <> %f" o.Protocol3.quotient expected
  done

let test_p3_zero_denominator () =
  let s = st () in
  let w = Wire.create () in
  let o =
    Protocol3.run s ~wire:w ~p1:(Wire.Provider 0) ~p2:(Wire.Provider 1) ~host:Wire.Host ~a1:7
      ~a2:0
  in
  Alcotest.(check (float 0.)) "q = 0 on zero denominator" 0. o.Protocol3.quotient

let test_p3_host_view_masked () =
  (* The host's view r*a must differ across runs on the same input. *)
  let s = st () in
  let view () =
    let w = Wire.create () in
    let o =
      Protocol3.run s ~wire:w ~p1:(Wire.Provider 0) ~p2:(Wire.Provider 1) ~host:Wire.Host ~a1:5
        ~a2:3
    in
    fst o.Protocol3.host_view
  in
  Alcotest.(check bool) "mask varies" true (view () <> view ())

let test_p3_wire () =
  let s = st () in
  let w = Wire.create () in
  let _ =
    Protocol3.run s ~wire:w ~p1:(Wire.Provider 0) ~p2:(Wire.Provider 1) ~host:Wire.Host ~a1:1
      ~a2:2
  in
  let stats = Wire.stats w in
  Alcotest.(check int) "1 round" 1 stats.Wire.rounds;
  Alcotest.(check int) "2 messages" 2 stats.Wire.messages;
  Alcotest.(check int) "2 floats" (2 * Wire.float_bits) stats.Wire.bits

let test_divide_shares () =
  let s = st () in
  for _ = 1 to 1000 do
    let num = State.next_int s 1000 and den = 1 + State.next_int s 999 in
    let s1n = State.next_int s 100000 in
    let s2n = num - s1n in
    let s1d = State.next_int s 100000 in
    let s2d = den - s1d in
    let mask = Spe_rng.Dist.mask_pair s in
    let q = Protocol3.divide_shares ~mask ~num:(s1n, s2n) ~den:(s1d, s2d) in
    let expected = float_of_int num /. float_of_int den in
    if abs_float (q -. expected) > 1e-6 *. (expected +. 1.) then
      Alcotest.failf "share division %f <> %f" q expected
  done

let test_divide_shares_zero_den () =
  (* den = 0 must cancel exactly despite the mask. *)
  let s = st () in
  for _ = 1 to 200 do
    let s1d = State.next_int s 100000 in
    let mask = Spe_rng.Dist.mask_pair s in
    let q = Protocol3.divide_shares ~mask ~num:(3, 4) ~den:(s1d, -s1d) in
    Alcotest.(check (float 0.)) "zero denominator detected" 0. q
  done

(* --- message-passing runtime ---------------------------------------------------- *)

module Runtime = Spe_mpc.Runtime
module Protocol1_distributed = Spe_mpc.Protocol1_distributed
module Protocol2_distributed = Spe_mpc.Protocol2_distributed

let test_runtime_routing () =
  let engine = Runtime.create () in
  let received = ref [] in
  Runtime.add_party engine (Wire.Provider 0) (fun ~round ~inbox:_ ->
      if round = 1 then
        [ { Runtime.src = Wire.Provider 0; dst = Wire.Provider 1;
            payload = Runtime.Floats [| 1.5 |] } ]
      else []);
  Runtime.add_party engine (Wire.Provider 1) (fun ~round:_ ~inbox ->
      List.iter
        (fun m -> match m.Runtime.payload with
           | Runtime.Floats f -> received := f.(0) :: !received
           | _ -> ())
        inbox;
      []);
  let w = Wire.create () in
  let rounds = Runtime.run engine ~wire:w ~max_rounds:5 in
  Alcotest.(check int) "one active round" 1 rounds;
  Alcotest.(check (list (float 0.))) "payload delivered" [ 1.5 ] !received;
  Alcotest.(check int) "64 bits charged" 64 (Wire.stats w).Wire.bits

let test_runtime_nontermination_detected () =
  let engine = Runtime.create () in
  (* Two parties ping-ponging forever. *)
  Runtime.add_party engine Wire.Host (fun ~round:_ ~inbox:_ ->
      [ { Runtime.src = Wire.Host; dst = Wire.Provider 0; payload = Runtime.Bits [| true |] } ]);
  Runtime.add_party engine (Wire.Provider 0) (fun ~round:_ ~inbox:_ ->
      [ { Runtime.src = Wire.Provider 0; dst = Wire.Host; payload = Runtime.Bits [| true |] } ]);
  let w = Wire.create () in
  Alcotest.check_raises "runaway protocol" (Failure "Runtime.run: protocol did not terminate")
    (fun () -> ignore (Runtime.run engine ~wire:w ~max_rounds:3))

let test_runtime_rejects_unknown_destination () =
  let engine = Runtime.create () in
  Runtime.add_party engine Wire.Host (fun ~round:_ ~inbox:_ ->
      [ { Runtime.src = Wire.Host; dst = Wire.Provider 9; payload = Runtime.Bits [| true |] } ]);
  let w = Wire.create () in
  Alcotest.check_raises "unknown party"
    (Invalid_argument "Runtime.run: message to unknown party") (fun () ->
      ignore (Runtime.run engine ~wire:w ~max_rounds:3))

let test_runtime_quiescent_round_not_charged () =
  (* A silent group terminates immediately: the quiescence-detection
     round is free, so NR = 0 and the wire is untouched. *)
  let engine = Runtime.create () in
  Runtime.add_party engine Wire.Host (fun ~round:_ ~inbox:_ -> []);
  Runtime.add_party engine (Wire.Provider 0) (fun ~round:_ ~inbox:_ -> []);
  let w = Wire.create () in
  let rounds = Runtime.run engine ~wire:w ~max_rounds:5 in
  Alcotest.(check int) "zero active rounds" 0 rounds;
  let s = Wire.stats w in
  Alcotest.(check int) "no rounds charged" 0 s.Wire.rounds;
  Alcotest.(check int) "no messages charged" 0 s.Wire.messages;
  Alcotest.(check int) "no bits charged" 0 s.Wire.bits

let test_p1_distributed_matches_central () =
  let s = st () in
  for _ = 1 to 50 do
    let m = 2 + State.next_int s 4 in
    let len = 1 + State.next_int s 6 in
    let inputs = Array.init m (fun _ -> Array.init len (fun _ -> State.next_int s 500)) in
    let modulus = 1 lsl 16 in
    let wd = Wire.create () in
    let rd =
      Protocol1_distributed.run s ~wire:wd ~parties:(providers m) ~modulus ~inputs
    in
    (* Same reconstruction... *)
    for l = 0 to len - 1 do
      let x = Array.fold_left (fun acc v -> acc + v.(l)) 0 inputs in
      if (rd.Protocol1.share1.(l) + rd.Protocol1.share2.(l)) mod modulus <> x mod modulus
      then Alcotest.fail "distributed reconstruction broken"
    done;
    (* ...and the same wire shape as the central implementation, up to
       byte rounding of each message. *)
    let wc = Wire.create () in
    let _ = Protocol1.run s ~wire:wc ~parties:(providers m) ~modulus ~inputs in
    let sc = Wire.stats wc and sd = Wire.stats wd in
    Alcotest.(check int) "same rounds" sc.Wire.rounds sd.Wire.rounds;
    Alcotest.(check int) "same message count" sc.Wire.messages sd.Wire.messages;
    if sd.Wire.bits < sc.Wire.bits || sd.Wire.bits > sc.Wire.bits + (8 * sc.Wire.messages)
    then Alcotest.failf "bits diverge: central %d distributed %d" sc.Wire.bits sd.Wire.bits
  done

let test_p2_distributed_matches_central () =
  let s = st () in
  for _ = 1 to 50 do
    let m = 2 + State.next_int s 3 in
    let len = 1 + State.next_int s 5 in
    let bound = 1000 in
    let inputs = Array.init m (fun _ -> Array.init len (fun _ -> State.next_int s (bound / m))) in
    let modulus = 1 lsl 14 in
    let wd = Wire.create () in
    let rd =
      Protocol2_distributed.run s ~wire:wd ~parties:(providers m) ~third_party:Wire.Host
        ~modulus ~input_bound:bound ~inputs
    in
    for l = 0 to len - 1 do
      let x = Array.fold_left (fun acc v -> acc + v.(l)) 0 inputs in
      if rd.Protocol2_distributed.share1.(l) + rd.Protocol2_distributed.share2.(l) <> x then
        Alcotest.failf "distributed integer shares broken at %d" l
    done;
    let wc = Wire.create () in
    let _ =
      Protocol2.run s ~wire:wc ~parties:(providers m) ~third_party:Wire.Host ~modulus
        ~input_bound:bound ~inputs
    in
    let sc = Wire.stats wc and sd = Wire.stats wd in
    Alcotest.(check int) "same rounds" sc.Wire.rounds sd.Wire.rounds;
    Alcotest.(check int) "same message count" sc.Wire.messages sd.Wire.messages
  done

let test_p3_distributed_matches_central () =
  let s = st () in
  for _ = 1 to 100 do
    let a1 = State.next_int s 1000 and a2 = State.next_int s 1000 in
    let wd = Wire.create () in
    let q =
      Spe_mpc.Protocol3_distributed.run s ~wire:wd ~p1:(Wire.Provider 0)
        ~p2:(Wire.Provider 1) ~host:Wire.Host ~a1 ~a2
    in
    let expected = if a2 = 0 then 0. else float_of_int a1 /. float_of_int a2 in
    if abs_float (q -. expected) > 1e-9 *. (expected +. 1.) then
      Alcotest.failf "distributed quotient %f <> %f" q expected;
    let sd = Wire.stats wd in
    Alcotest.(check int) "one round" 1 sd.Wire.rounds;
    Alcotest.(check int) "two messages" 2 sd.Wire.messages;
    Alcotest.(check int) "two floats" (2 * Wire.float_bits) sd.Wire.bits
  done

let test_p2_distributed_rejects_inside_third () =
  let s = st () in
  let w = Wire.create () in
  Alcotest.check_raises "third party inside"
    (Invalid_argument "Protocol2_distributed.make: third party must be outside the sharing parties")
    (fun () ->
      ignore
        (Protocol2_distributed.run s ~wire:w ~parties:(providers 3)
           ~third_party:(Wire.Provider 2) ~modulus:1024 ~input_bound:10
           ~inputs:[| [| 1 |]; [| 2 |]; [| 3 |] |]))

(* --- sessions ----------------------------------------------------------------- *)

module Session = Spe_mpc.Session

(* [sender -> receiver] for [rounds] rounds, one Floats message per
   round; the result is [tag]. *)
let chat_session ~sender ~receiver ~rounds tag =
  let count = ref 0 in
  Session.make
    ~parties:[| sender; receiver |]
    ~programs:
      [|
        (fun ~round ~inbox:_ ->
          if round <= rounds then
            [ { Runtime.src = sender; dst = receiver; payload = Runtime.Floats [| 1. |] } ]
          else []);
        (fun ~round:_ ~inbox -> List.iter (fun _ -> incr count) inbox; []);
      |]
    ~rounds
    ~result:(fun () -> (tag, !count))

let test_session_seq_splices () =
  let a = chat_session ~sender:(Wire.Provider 0) ~receiver:(Wire.Provider 1) ~rounds:2 "A" in
  let b = chat_session ~sender:(Wire.Provider 1) ~receiver:(Wire.Provider 2) ~rounds:1 "B" in
  let s = Session.seq a b in
  Alcotest.(check int) "rounds add up" 3 s.Session.rounds;
  Alcotest.(check int) "parties united in order" 3 (Array.length s.Session.parties);
  let w = Wire.create () in
  let (ta, ca), (tb, cb) = Session.run s ~wire:w in
  Alcotest.(check (pair string int)) "phase A result" ("A", 2) (ta, ca);
  Alcotest.(check (pair string int)) "phase B result" ("B", 1) (tb, cb);
  let stats = Wire.stats w in
  Alcotest.(check int) "no idle round between phases" 3 stats.Wire.rounds;
  Alcotest.(check int) "all messages charged" 3 stats.Wire.messages

let test_session_seq_rejects_overrun () =
  (* Declared one round, but the program also sends at its finishing
     call — the splice must refuse rather than desynchronise phase B. *)
  let a =
    Session.make
      ~parties:[| Wire.Provider 0; Wire.Provider 1 |]
      ~programs:
        [|
          (fun ~round:_ ~inbox:_ ->
            [ { Runtime.src = Wire.Provider 0; dst = Wire.Provider 1;
                payload = Runtime.Bits [| true |] } ]);
          (fun ~round:_ ~inbox:_ -> []);
        |]
      ~rounds:1
      ~result:(fun () -> ())
  in
  let b = chat_session ~sender:(Wire.Provider 0) ~receiver:(Wire.Provider 1) ~rounds:1 "B" in
  Alcotest.check_raises "overrun detected"
    (Invalid_argument "Session.seq: first phase overran its declared rounds") (fun () ->
      ignore (Session.run (Session.seq a b) ~wire:(Wire.create ())))

let test_session_seq_rejects_cross_boundary () =
  (* Phase A aims a message at a party that only joins in phase B. *)
  let a =
    Session.make
      ~parties:[| Wire.Provider 0; Wire.Provider 1 |]
      ~programs:
        [|
          (fun ~round ~inbox:_ ->
            if round = 1 then
              [ { Runtime.src = Wire.Provider 0; dst = Wire.Provider 2;
                  payload = Runtime.Bits [| true |] } ]
            else []);
          (fun ~round:_ ~inbox:_ -> []);
        |]
      ~rounds:2
      ~result:(fun () -> ())
  in
  let b = chat_session ~sender:(Wire.Provider 2) ~receiver:(Wire.Provider 0) ~rounds:1 "B" in
  Alcotest.check_raises "phase boundary enforced"
    (Invalid_argument "Session.seq: message across phase boundary") (fun () ->
      ignore (Session.run (Session.seq a b) ~wire:(Wire.create ())))

let test_session_par_interleaves () =
  let a = chat_session ~sender:(Wire.Provider 0) ~receiver:(Wire.Provider 1) ~rounds:2 "A" in
  let b = chat_session ~sender:(Wire.Provider 2) ~receiver:(Wire.Provider 3) ~rounds:1 "B" in
  let s = Session.par a b in
  Alcotest.(check int) "rounds are the max" 2 s.Session.rounds;
  let w = Wire.create () in
  let (ta, ca), (tb, cb) = Session.run s ~wire:w in
  Alcotest.(check (pair string int)) "left result" ("A", 2) (ta, ca);
  Alcotest.(check (pair string int)) "right result" ("B", 1) (tb, cb);
  Alcotest.(check int) "messages from both sessions" 3 (Wire.stats w).Wire.messages

let test_session_par_rejects_overlap () =
  let a = chat_session ~sender:(Wire.Provider 0) ~receiver:(Wire.Provider 1) ~rounds:1 "A" in
  let b = chat_session ~sender:(Wire.Provider 1) ~receiver:(Wire.Provider 2) ~rounds:1 "B" in
  Alcotest.check_raises "overlapping parties"
    (Invalid_argument "Session.par: party sets must be disjoint") (fun () ->
      ignore (Session.par a b))

let test_session_run_checks_declared_rounds () =
  let quiet =
    Session.make
      ~parties:[| Wire.Provider 0 |]
      ~programs:[| (fun ~round:_ ~inbox:_ -> []) |]
      ~rounds:2
      ~result:(fun () -> ())
  in
  Alcotest.check_raises "mis-declared round count"
    (Failure "Session.run: declared 2 rounds but executed 0") (fun () ->
      Session.run quiet ~wire:(Wire.create ()))

let test_session_par_labels () =
  let a =
    Session.with_label "A"
      (chat_session ~sender:(Wire.Provider 0) ~receiver:(Wire.Provider 1) ~rounds:2 "A")
  in
  let b =
    Session.with_label "B"
      (chat_session ~sender:(Wire.Provider 2) ~receiver:(Wire.Provider 3) ~rounds:1 "B")
  in
  Alcotest.(check (list (pair string int)))
    "par keeps both sides' labels"
    [ ("par(A|B)", 2) ]
    (Session.par a b).Session.phases

let test_session_all_multiplexes () =
  (* Overlapping party sets — [par] would reject; [all] owns each
     global round by exactly one component round. *)
  let a =
    Session.with_label "A"
      (chat_session ~sender:(Wire.Provider 0) ~receiver:(Wire.Provider 1) ~rounds:2 "A")
  in
  let b =
    Session.with_label "B"
      (chat_session ~sender:(Wire.Provider 0) ~receiver:(Wire.Provider 2) ~rounds:1 "B")
  in
  let s = Session.all [ a; b ] in
  Alcotest.(check int) "rounds are the sum" 3 s.Session.rounds;
  Alcotest.(check (list (pair string int)))
    "round-major phase tags"
    [ ("s0:A", 1); ("s1:B", 1); ("s0:A", 1) ]
    s.Session.phases;
  let w = Wire.create () in
  let results = Session.run s ~wire:w in
  Alcotest.(check (array (pair string int)))
    "component results in input order"
    [| ("A", 2); ("B", 1) |]
    results;
  let stats = Wire.stats w in
  Alcotest.(check int) "every global round message-bearing" 3 stats.Wire.rounds;
  Alcotest.(check int) "all component messages delivered" 3 stats.Wire.messages

let test_session_all_rejects_cross_boundary () =
  let a =
    Session.make
      ~parties:[| Wire.Provider 0; Wire.Provider 1 |]
      ~programs:
        [|
          (fun ~round ~inbox:_ ->
            if round = 1 then
              [ { Runtime.src = Wire.Provider 0; dst = Wire.Provider 2;
                  payload = Runtime.Bits [| true |] } ]
            else []);
          (fun ~round:_ ~inbox:_ -> []);
        |]
      ~rounds:1
      ~result:(fun () -> ("A", 0))
  in
  let b = chat_session ~sender:(Wire.Provider 2) ~receiver:(Wire.Provider 0) ~rounds:1 "B" in
  Alcotest.check_raises "session boundary enforced"
    (Invalid_argument "Session.all: message across session boundary") (fun () ->
      ignore (Session.run (Session.all [ a; b ]) ~wire:(Wire.create ())));
  Alcotest.check_raises "empty list rejected"
    (Invalid_argument "Session.all: need at least one session") (fun () ->
      ignore (Session.all ([] : (string * int) Session.t list)))

(* --- codec -------------------------------------------------------------------- *)

module Codec = Spe_mpc.Codec
module Nat = Spe_bignum.Nat

let test_codec_residues () =
  let s = st () in
  for _ = 1 to 100 do
    let modulus = 2 + State.next_int s 1_000_000 in
    let count = State.next_int s 20 in
    let values = Array.init count (fun _ -> State.next_int s modulus) in
    let decoded = Codec.decode_residues ~modulus ~count (Codec.encode_residues ~modulus values) in
    Alcotest.(check (array int)) "round trip" values decoded
  done

let test_codec_sizes_match_wire_formula () =
  (* The Table 1 size formulae use bits_for_int_mod; the byte encoding
     must match after rounding to whole bytes. *)
  List.iter
    (fun modulus ->
      let declared_bits = Wire.bits_for_int_mod modulus in
      let encoded_bits = 8 * Bytes.length (Codec.encode_residues ~modulus [| 0 |]) in
      if encoded_bits < declared_bits || encoded_bits >= declared_bits + 8 then
        Alcotest.failf "modulus %d: declared %d encoded %d" modulus declared_bits encoded_bits)
    [ 2; 3; 255; 256; 257; 65536; 1 lsl 30; 1 lsl 40 ]

let test_codec_floats () =
  let values = [| 0.; -1.5; Float.pi; 1e300; -0.; Float.min_float |] in
  let decoded = Codec.decode_floats ~count:(Array.length values) (Codec.encode_floats values) in
  Array.iteri
    (fun i v ->
      if not (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float decoded.(i))) then
        Alcotest.fail "float bits changed")
    values;
  Alcotest.(check int) "8 bytes per float" 48 (Bytes.length (Codec.encode_floats values))

let test_codec_nats () =
  let s = st () in
  for _ = 1 to 50 do
    let width_bits = 8 + State.next_int s 512 in
    let values = Array.init 5 (fun _ -> Nat.random_bits s width_bits) in
    let decoded =
      Codec.decode_nats ~width_bits ~count:5 (Codec.encode_nats ~width_bits values)
    in
    Array.iteri
      (fun i v ->
        if not (Nat.equal v decoded.(i)) then Alcotest.fail "nat round trip failed")
      values
  done;
  Alcotest.check_raises "overflow rejected"
    (Invalid_argument "Codec.encode_nats: value exceeds width") (fun () ->
      ignore (Codec.encode_nats ~width_bits:4 [| Nat.of_int 16 |]))

let test_codec_bitset () =
  let s = st () in
  for _ = 1 to 50 do
    let count = State.next_int s 40 in
    let flags = Array.init count (fun _ -> State.next_bool s) in
    let decoded = Codec.decode_bitset ~count (Codec.encode_bitset flags) in
    Alcotest.(check bool) "round trip" true (flags = decoded)
  done;
  Alcotest.(check int) "one bit per flag, byte padded" 2
    (Bytes.length (Codec.encode_bitset (Array.make 9 true)))

(* --- pack ---------------------------------------------------------------- *)

module Pack = Spe_mpc.Pack

let test_pack_roundtrip () =
  let s = st () in
  for _ = 1 to 50 do
    let slot_bits = 1 + State.next_int s 16 in
    let slots = 1 + State.next_int s (Pack.max_packed_bits / slot_bits) in
    let t = Pack.create ~slots ~slot_bits in
    let q = 1 + State.next_int s 40 in
    let values = Array.init q (fun _ -> State.next_int s (1 lsl slot_bits)) in
    let packed = Pack.pack t values in
    Alcotest.(check int) "chunk count" (Pack.chunks t ~q) (Array.length packed);
    Alcotest.(check bool) "roundtrip" true (Pack.unpack t ~q packed = values)
  done

let test_pack_overflow () =
  let t = Pack.create ~slots:4 ~slot_bits:8 in
  Alcotest.check_raises "value >= 2^slot_bits rejected"
    (Pack.Overflow { index = 2; value = 256; slot_bits = 8 }) (fun () ->
      ignore (Pack.pack t [| 0; 255; 256 |]));
  Alcotest.check_raises "negative value rejected"
    (Pack.Overflow { index = 0; value = -1; slot_bits = 8 }) (fun () ->
      ignore (Pack.pack t [| -1 |]))

let test_pack_bounds () =
  (* spec validation and the native-int ceiling. *)
  Alcotest.check_raises "too wide"
    (Invalid_argument "Pack.create: slots * slot_bits exceeds the 61-bit native-int bound")
    (fun () -> ignore (Pack.create ~slots:8 ~slot_bits:8));
  Alcotest.(check int) "max_slots respects key and native width" 3
    (Pack.max_slots ~key_bits:64 ~slot_bits:20);
  Alcotest.(check int) "max_slots floors at one slot" 1
    (Pack.max_slots ~key_bits:16 ~slot_bits:40);
  let t = Pack.create ~slots:3 ~slot_bits:20 in
  Alcotest.(check int) "plain_bits = slots * slot_bits" 60 (Pack.plain_bits t);
  Alcotest.check_raises "unpack validates chunk count"
    (Invalid_argument "Pack.unpack: chunk count does not match q") (fun () ->
      ignore (Pack.unpack t ~q:7 [| 0 |]))

(* --- QCheck ----------------------------------------------------------------- *)

module Generate = Spe_graph.Generate
module Cascade = Spe_actionlog.Cascade
module Partition = Spe_actionlog.Partition
module P4 = Spe_core.Protocol4
module P6 = Spe_core.Protocol6
module Driver = Spe_core.Driver
module Shard = Spe_core.Shard
module Plan = Spe_core.Plan

(* A random exclusive-provider workload for the sharded-equivalence
   properties. *)
let shard_workload ~seed ~m =
  let s = State.create ~seed () in
  let g = Generate.erdos_renyi_gnm s ~n:12 ~m:30 in
  let planted = Cascade.uniform_probabilities ~p:0.3 g in
  let log =
    Cascade.generate s planted
      { Cascade.num_actions = 6; seeds_per_action = 2; max_delay = 3 }
  in
  (g, Partition.exclusive s log ~m)

(* The original slice ranking, kept as the oracle for the one-walk
   slice: sort the window's global slots and rank each through a
   Hashtbl.  Returns (positions, induced permutation, sorted slots). *)
let slice_oracle (r : Protocol2_distributed.randomness) ~start ~len =
  let positions = Array.init len (fun i -> (r.Protocol2_distributed.perm :> int array).(start + i)) in
  let sorted = Array.copy positions in
  Array.sort compare sorted;
  let rank = Hashtbl.create (max 1 len) in
  Array.iteri (fun j p -> Hashtbl.replace rank p j) sorted;
  (positions, Array.map (Hashtbl.find rank) positions, sorted)

let qcheck_tests =
  let open QCheck in
  [
    (* Random windows of random batches, with len = 0 and the full
       batch each a fifth of the cases. *)
    Test.make ~name:"slice equals the Hashtbl-rank oracle" ~count:300
      (quad small_nat (int_range 0 120) (int_range 0 4) (pair small_nat small_nat))
      (fun (seed, length, dial, (a, b)) ->
        let r =
          Protocol2_distributed.draw (State.create ~seed ()) ~m:(2 + (seed mod 2)) ~modulus:(1 lsl 20)
            ~input_bound:5 ~length
        in
        let start, len =
          match dial with
          | 0 -> (0, length)
          | 1 -> (a mod (length + 1), 0)
          | _ ->
            let start = a mod (length + 1) in
            (start, b mod (length - start + 1))
        in
        let sl = Protocol2_distributed.slice r ~start ~len in
        let positions, induced, sorted = slice_oracle r ~start ~len in
        sl.Protocol2_distributed.positions = positions
        && (sl.Protocol2_distributed.randomness.Protocol2_distributed.perm :> int array) = induced
        && sl.Protocol2_distributed.slots = sorted
        && sl.Protocol2_distributed.randomness.Protocol2_distributed.masks = Array.sub r.Protocol2_distributed.masks start len
        && sl.Protocol2_distributed.randomness.Protocol2_distributed.rpieces
           = Array.map (Array.map (fun row -> Array.sub row start len)) r.Protocol2_distributed.rpieces);
    (* At a share modulus barely above A the wrap verdicts differ from
       counter to counter (at 2^40 nearly all of them wrap), so the
       third party must scatter each shard's y through its slots in
       global slot order for the sharded plan to match. *)
    Test.make ~name:"sharded links match at a small share modulus" ~count:25
      (pair small_nat (int_range 2 6))
      (fun (seed, shards) ->
        let g, logs = shard_workload ~seed ~m:2 in
        let config = { (P4.default_config ~h:2) with P4.modulus = 16 } in
        let central =
          Driver.link_strengths_exclusive (State.create ~seed:(seed + 1) ()) ~graph:g ~logs
            config
        in
        let plan =
          Shard.links_exclusive (State.create ~seed:(seed + 1) ()) ~graph:g ~logs ~shards config
        in
        central.Driver.detail = Session.run (Plan.to_session plan) ~wire:(Wire.create ()));
    Test.make ~name:"sharded links merge to the unsharded result" ~count:25
      (triple small_nat (int_range 2 4) (int_range 1 9))
      (fun (seed, m, shards) ->
        let g, logs = shard_workload ~seed ~m in
        let config = P4.default_config ~h:2 in
        let central =
          Driver.link_strengths_exclusive (State.create ~seed:(seed + 1) ()) ~graph:g ~logs
            config
        in
        let run shards =
          let w = Wire.create () in
          let plan =
            Shard.links_exclusive (State.create ~seed:(seed + 1) ()) ~graph:g ~logs ~shards
              config
          in
          (Session.run (Plan.to_session plan) ~wire:w, (Wire.stats w).Wire.bits)
        in
        let _, k1_bits = run 1 and sharded, sharded_bits = run shards in
        (* Bit-identical to the central result, and payload bytes equal
           to the k = 1 wire total (rounds/messages grow with k; the MS
           invariant does not). *)
        central.Driver.detail = sharded && k1_bits = sharded_bits);
    Test.make ~name:"sharded scores merge to the unsharded result" ~count:6
      (triple small_nat (int_range 2 3) (int_range 1 8))
      (fun (seed, m, shards) ->
        let g, logs = shard_workload ~seed ~m in
        let config = { P6.default_config with P6.key_bits = 64 } in
        let central =
          Driver.user_scores_exclusive (State.create ~seed:(seed + 1) ()) ~graph:g ~logs ~tau:4
            ~modulus:(1 lsl 20) config
        in
        let run shards =
          let w = Wire.create () in
          let plan =
            Shard.user_scores_exclusive
              (State.create ~seed:(seed + 1) ())
              ~graph:g ~logs ~tau:4 ~modulus:(1 lsl 20) ~shards config
          in
          (Session.run (Plan.to_session plan) ~wire:w, (Wire.stats w).Wire.bits)
        in
        let _, k1_bits = run 1 and sharded, sharded_bits = run shards in
        central.Driver.scores = sharded.Shard.scores
        && central.Driver.graphs = sharded.Shard.graphs
        && k1_bits = sharded_bits);
    Test.make ~name:"codec residue round trip" ~count:500
      (triple small_nat (int_range 2 (1 lsl 40)) (int_range 0 30))
      (fun (seed, modulus, count) ->
        let s = State.create ~seed () in
        let values = Array.init count (fun _ -> State.next_int s modulus) in
        Codec.decode_residues ~modulus ~count (Codec.encode_residues ~modulus values)
        = values);
    Test.make ~name:"codec float round trip is bit exact" ~count:500
      (list_of_size (Gen.int_range 0 30) float)
      (fun xs ->
        let values = Array.of_list xs in
        let decoded =
          Codec.decode_floats ~count:(Array.length values) (Codec.encode_floats values)
        in
        Array.for_all2
          (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
          values decoded);
    Test.make ~name:"codec nat round trip" ~count:200
      (triple small_nat (int_range 1 400) (int_range 0 8))
      (fun (seed, width_bits, count) ->
        let s = State.create ~seed () in
        let values = Array.init count (fun _ -> Nat.random_bits s width_bits) in
        let decoded =
          Codec.decode_nats ~width_bits ~count (Codec.encode_nats ~width_bits values)
        in
        Array.for_all2 Nat.equal values decoded);
    Test.make ~name:"codec nat limb-wise bytes match a bitwise oracle" ~count:300
      (triple small_nat (int_range 1 2100) (int_range 0 4))
      (fun (seed, width_bits, count) ->
        (* Full-width values, zero and narrower ones, so every width's
           top byte and every limb/byte alignment is exercised. *)
        let s = State.create ~seed () in
        let values =
          Array.init count (fun i ->
              match i with
              | 0 -> Nat.random_bits_exact s width_bits
              | 1 -> Nat.zero
              | _ -> Nat.random_bits s width_bits)
        in
        let width = (width_bits + 7) / 8 in
        let oracle = Bytes.make (width * count) '\000' in
        Array.iteri
          (fun i v ->
            for bit = 0 to width_bits - 1 do
              if Nat.test_bit v bit then begin
                let at = (i * width) + width - 1 - (bit / 8) in
                Bytes.set oracle at
                  (Char.chr (Char.code (Bytes.get oracle at) lor (1 lsl (bit mod 8))))
              end
            done)
          values;
        let encoded = Codec.encode_nats ~width_bits values in
        Bytes.equal oracle encoded
        && Array.for_all2 Nat.equal values (Codec.decode_nats ~width_bits ~count encoded));
    Test.make ~name:"codec bitset round trip" ~count:500
      (list_of_size (Gen.int_range 0 100) bool)
      (fun flags ->
        let flags = Array.of_list flags in
        Codec.decode_bitset ~count:(Array.length flags) (Codec.encode_bitset flags) = flags);
    Test.make ~name:"pack round trip" ~count:300
      (triple small_nat (int_range 1 20) (int_range 0 60))
      (fun (seed, slot_bits, q) ->
        let s = State.create ~seed () in
        let slots = 1 + State.next_int s (Pack.max_packed_bits / slot_bits) in
        let t = Pack.create ~slots ~slot_bits in
        let values = Array.init q (fun _ -> State.next_int s (1 lsl slot_bits)) in
        q = 0 || Pack.unpack t ~q (Pack.pack t values) = values);
    Test.make ~name:"pack rejects out-of-range slots" ~count:200
      (triple (int_range 1 16) (int_range 0 30) int)
      (fun (slot_bits, index, value) ->
        assume (value < 0 || value lsr slot_bits > 0);
        let t = Pack.create ~slots:1 ~slot_bits in
        let values = Array.make (index + 1) 0 in
        values.(index) <- value;
        try
          ignore (Pack.pack t values);
          false
        with Pack.Overflow { index = i; value = v; _ } -> i = index && v = value);
    Test.make ~name:"protocol1 modular reconstruction" ~count:300
      (pair small_nat (list_of_size (Gen.int_range 2 6) (int_range 0 999)))
      (fun (seed, xs) ->
        List.length xs >= 2
        ==>
        let s = State.create ~seed () in
        let inputs = Array.of_list (List.map (fun x -> [| x |]) xs) in
        let r, _ = run_p1 ~modulus:4096 s inputs in
        let x = List.fold_left ( + ) 0 xs in
        (r.Protocol1.share1.(0) + r.Protocol1.share2.(0)) mod 4096 = x mod 4096);
    Test.make ~name:"protocol2 integer reconstruction" ~count:300
      (triple small_nat (int_range 0 400) (int_range 0 400))
      (fun (seed, a, b) ->
        let s = State.create ~seed () in
        let r, _ = run_p2 s [| [| a |]; [| b |] |] in
        r.Protocol2.share1.(0) + r.Protocol2.share2.(0) = a + b);
    Test.make ~name:"protocol3 masked view hides magnitude ordering" ~count:100
      (pair small_nat (pair (int_range 1 1000) (int_range 1 1000)))
      (fun (seed, (a1, a2)) ->
        let s = State.create ~seed () in
        let w = Wire.create () in
        let o =
          Protocol3.run s ~wire:w ~p1:(Wire.Provider 0) ~p2:(Wire.Provider 1) ~host:Wire.Host
            ~a1 ~a2
        in
        (* Both masked values share the mask, so their ratio is exact —
           but each in isolation must be positive and finite. *)
        let m1, m2 = o.Protocol3.host_view in
        m1 >= 0. && m2 > 0. && Float.is_finite m1 && Float.is_finite m2);
  ]

let () =
  Alcotest.run "spe_mpc"
    [
      ( "wire",
        [
          Alcotest.test_case "accounting" `Quick test_wire_accounting;
          Alcotest.test_case "guards" `Quick test_wire_guards;
          Alcotest.test_case "round guard released on raise" `Quick
            test_wire_round_reopens_after_exception;
          Alcotest.test_case "bits_for_int_mod" `Quick test_bits_for_int_mod;
        ] );
      ( "protocol1",
        [
          Alcotest.test_case "reconstruction" `Quick test_p1_reconstruction;
          Alcotest.test_case "message counts" `Quick test_p1_message_count;
          Alcotest.test_case "share uniformity" `Quick test_p1_share_uniformity;
          Alcotest.test_case "validation" `Quick test_p1_validation;
        ] );
      ( "protocol2",
        [
          Alcotest.test_case "integer reconstruction" `Quick test_p2_integer_reconstruction;
          Alcotest.test_case "share1 in range" `Quick test_p2_share1_nonnegative;
          Alcotest.test_case "round counts" `Quick test_p2_rounds;
          Alcotest.test_case "leaks are sound" `Quick test_p2_leak_soundness;
          Alcotest.test_case "leak rate ~ A/S" `Slow test_p2_leak_rate_shrinks_with_modulus;
          Alcotest.test_case "permutation hides attribution" `Slow test_p2_permutation_hides_attribution;
          Alcotest.test_case "aggregate bound" `Quick test_p2_aggregate_bound_enforced;
          Alcotest.test_case "third party distinct" `Quick test_p2_third_party_distinct;
        ] );
      ( "protocol3",
        [
          Alcotest.test_case "exact quotient" `Quick test_p3_exact_quotient;
          Alcotest.test_case "zero denominator" `Quick test_p3_zero_denominator;
          Alcotest.test_case "mask varies" `Quick test_p3_host_view_masked;
          Alcotest.test_case "wire costs" `Quick test_p3_wire;
          Alcotest.test_case "share division" `Quick test_divide_shares;
          Alcotest.test_case "share division zero" `Quick test_divide_shares_zero_den;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "routing" `Quick test_runtime_routing;
          Alcotest.test_case "non-termination" `Quick test_runtime_nontermination_detected;
          Alcotest.test_case "unknown destination" `Quick test_runtime_rejects_unknown_destination;
          Alcotest.test_case "quiescent round not charged" `Quick
            test_runtime_quiescent_round_not_charged;
          Alcotest.test_case "protocol 1 distributed" `Quick test_p1_distributed_matches_central;
          Alcotest.test_case "protocol 2 distributed" `Quick test_p2_distributed_matches_central;
          Alcotest.test_case "protocol 3 distributed" `Quick test_p3_distributed_matches_central;
          Alcotest.test_case "third party placement" `Quick test_p2_distributed_rejects_inside_third;
        ] );
      ( "session",
        [
          Alcotest.test_case "seq splices phases" `Quick test_session_seq_splices;
          Alcotest.test_case "seq rejects overrun" `Quick test_session_seq_rejects_overrun;
          Alcotest.test_case "seq rejects cross-boundary message" `Quick
            test_session_seq_rejects_cross_boundary;
          Alcotest.test_case "par interleaves" `Quick test_session_par_interleaves;
          Alcotest.test_case "par rejects overlap" `Quick test_session_par_rejects_overlap;
          Alcotest.test_case "par preserves phase labels" `Quick test_session_par_labels;
          Alcotest.test_case "all multiplexes overlapping parties" `Quick
            test_session_all_multiplexes;
          Alcotest.test_case "all rejects cross-boundary message" `Quick
            test_session_all_rejects_cross_boundary;
          Alcotest.test_case "run checks declared rounds" `Quick
            test_session_run_checks_declared_rounds;
        ] );
      ( "codec",
        [
          Alcotest.test_case "residues" `Quick test_codec_residues;
          Alcotest.test_case "sizes match wire formula" `Quick test_codec_sizes_match_wire_formula;
          Alcotest.test_case "floats" `Quick test_codec_floats;
          Alcotest.test_case "nats" `Quick test_codec_nats;
          Alcotest.test_case "bitset" `Quick test_codec_bitset;
        ] );
      ( "pack",
        [
          Alcotest.test_case "roundtrip" `Quick test_pack_roundtrip;
          Alcotest.test_case "overflow rejection" `Quick test_pack_overflow;
          Alcotest.test_case "bounds" `Quick test_pack_bounds;
        ] );
      ("properties", List.map (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 4242 |])) qcheck_tests);
    ]
