(* Tests for the transport subsystem: frame encode/decode, the memory
   and socket transports, the Endpoint round loop (including the
   Runtime.run edge-case contract), equality of protocol results and
   wire statistics across engines, the byte-exact framing-overhead
   accounting, and the fault-injection / timeout paths. *)

module State = Spe_rng.State
module Wire = Spe_mpc.Wire
module Runtime = Spe_mpc.Runtime
module Codec = Spe_mpc.Codec
module Session = Spe_mpc.Session
module Protocol1 = Spe_mpc.Protocol1
module Protocol2 = Spe_mpc.Protocol2
module Protocol3 = Spe_mpc.Protocol3
module P1d = Spe_mpc.Protocol1_distributed
module P2d = Spe_mpc.Protocol2_distributed
module P3d = Spe_mpc.Protocol3_distributed
module Nat = Spe_bignum.Nat
module Generate = Spe_graph.Generate
module Cascade = Spe_actionlog.Cascade
module Partition = Spe_actionlog.Partition
module Protocol4 = Spe_core.Protocol4
module Protocol6 = Spe_core.Protocol6
module Driver = Spe_core.Driver
module Shard = Spe_core.Shard
module Plan = Spe_core.Plan
module Frame = Spe_net.Frame
module Fault = Spe_net.Fault
module Transport = Spe_net.Transport
module Endpoint = Spe_net.Endpoint
module Net_wire = Spe_net.Net_wire
module Reactor = Spe_net.Reactor

let providers m = Array.init m (fun k -> Wire.Provider k)

(* Fast timeouts so the fault tests finish in well under a second. *)
let fast = { Endpoint.round_timeout = 0.08; max_retries = 3; linger = 0.5 }

(* --- frames ----------------------------------------------------------------- *)

let roundtrip frame =
  let body = Frame.encode frame in
  let decoded = Frame.decode body in
  if decoded <> frame then Alcotest.fail "frame round trip failed";
  (* The closed-form size is exact, and encode_into at an offset
     produces the same bytes encode does. *)
  Alcotest.(check int) "encoded_length closed form"
    (Bytes.length body) (Frame.encoded_length frame);
  let off = 7 in
  let buf = Bytes.make (off + Bytes.length body + 3) '\xAA' in
  let stop = Frame.encode_into frame buf ~pos:off in
  Alcotest.(check int) "encode_into end position" (off + Bytes.length body) stop;
  if not (Bytes.equal body (Bytes.sub buf off (Bytes.length body))) then
    Alcotest.fail "encode_into disagrees with encode"

(* One valid frame of every tag and every payload kind: the round-trip
   corpus, and the seeds the decoder fuzzer mutates. *)
let sample_frames =
  [
    Frame.Hello { sender = 3 };
    Frame.Data
      { round = 7; seq = 2; src = Wire.Host; dst = Wire.Provider 4;
        payload = Runtime.Ints { modulus = 1 lsl 40; values = [| 0; 5; (1 lsl 40) - 1 |] } };
    Frame.Data
      { round = 1; seq = 0; src = Wire.Provider 0; dst = Wire.Provider 1;
        payload = Runtime.Floats [| 0.; -1.5; Float.pi |] };
    Frame.Data
      { round = 2; seq = 9; src = Wire.Provider 1; dst = Wire.Host;
        payload = Runtime.Bits [| true; false; true; true; false; true; false; true; true |] };
    Frame.Data
      { round = 3; seq = 1; src = Wire.Provider 2; dst = Wire.Host;
        payload =
          Runtime.Nats
            { width_bits = 64;
              values = [| Nat.zero; Nat.of_int 123456789; Nat.of_int max_int |] } };
    Frame.Data
      { round = 5; seq = 3; src = Wire.Host; dst = Wire.Provider 0;
        payload =
          Runtime.Tuples
            { moduli = [| 8; 300; 17 |]; rows = [| [| 1; 2; 3 |]; [| 7; 299; 16 |] |] } };
    Frame.Data
      { round = 6; seq = 0; src = Wire.Provider 1; dst = Wire.Provider 0;
        payload =
          Runtime.Batch
            [ Runtime.Ints { modulus = 1 lsl 12; values = [| 1; 4095 |] };
              Runtime.Nats { width_bits = 16; values = [| Nat.of_int 65535 |] };
              Runtime.Tuples { moduli = [| 4; 4 |]; rows = [| [| 3; 0 |] |] };
              (* Eight-byte residues and a width off the byte grid: the
                 mutations that overflow a residue or a width land here. *)
              Runtime.Ints { modulus = 1 lsl 61; values = [| (1 lsl 61) - 1 |] };
              Runtime.Nats { width_bits = 12; values = [| Nat.of_int 4095 |] } ] };
    Frame.End_of_round { round = 4; sender = 1; total = 6; to_dst = 2 };
    Frame.Nack { round = 4; sender = 0 };
    Frame.Fin { sender = 2 };
  ]

let test_frame_roundtrips () = List.iter roundtrip sample_frames

let test_frame_rejects_garbage () =
  Alcotest.check_raises "unknown tag" (Invalid_argument "Frame.decode: unknown tag 200")
    (fun () -> ignore (Frame.decode (Bytes.make 1 '\200')));
  Alcotest.check_raises "truncated" (Invalid_argument "Frame.decode: truncated frame")
    (fun () -> ignore (Frame.decode (Bytes.sub (Frame.encode (Frame.Nack { round = 1; sender = 0 })) 0 3)));
  let full = Frame.encode (Frame.Fin { sender = 1 }) in
  let padded = Bytes.extend full 0 2 in
  Alcotest.check_raises "trailing bytes" (Invalid_argument "Frame.decode: trailing bytes")
    (fun () -> ignore (Frame.decode padded))

let test_frame_payload_length_matches_runtime () =
  let payloads =
    [ Runtime.Ints { modulus = 1 lsl 20; values = [| 1; 2; 3 |] };
      Runtime.Ints { modulus = 3 * (1 lsl 40); values = [| 0; (3 * (1 lsl 40)) - 1 |] };
      Runtime.Ints { modulus = 2; values = [||] };
      Runtime.Floats [| 1.; 2. |]; Runtime.Bits (Array.make 11 true);
      Runtime.Nats { width_bits = 48; values = [| Nat.of_int 5; Nat.of_int 1000000 |] };
      Runtime.Tuples { moduli = [| 30; 12; 64 |]; rows = [| [| 29; 0; 63 |]; [| 1; 11; 7 |] |] };
      Runtime.Batch
        [ Runtime.Floats [| 0.5 |];
          Runtime.Nats { width_bits = 8; values = [| Nat.of_int 255 |] } ] ]
  in
  (* What the codec's encoders actually write for the payload. *)
  let rec codec_bytes = function
    | Runtime.Ints { modulus; values } -> Bytes.length (Codec.encode_residues ~modulus values)
    | Runtime.Floats values -> Bytes.length (Codec.encode_floats values)
    | Runtime.Bits flags -> Bytes.length (Codec.encode_bitset flags)
    | Runtime.Nats { width_bits; values } -> Bytes.length (Codec.encode_nats ~width_bits values)
    | Runtime.Tuples { moduli; rows } ->
      Array.fold_left
        (fun acc row ->
          Array.fold_left ( + ) acc
            (Array.mapi
               (fun j v -> Bytes.length (Codec.encode_residues ~modulus:moduli.(j) [| v |]))
               row))
        0 rows
    | Runtime.Batch parts -> List.fold_left (fun acc p -> acc + codec_bytes p) 0 parts
  in
  List.iter
    (fun payload ->
      let frame =
        Frame.Data { round = 1; seq = 0; src = Wire.Host; dst = Wire.Provider 0; payload }
      in
      Alcotest.(check int) "payload bytes as charged on the simulated wire"
        (Runtime.payload_bits payload / 8)
        (Frame.payload_length frame);
      Alcotest.(check int) "charged bytes = the codec's encoded bytes" (codec_bytes payload)
        (Runtime.payload_bits payload / 8);
      Alcotest.(check bool) "framing overhead is positive" true
        (Frame.framed_length frame > Frame.payload_length frame))
    payloads;
  (* The closed form keeps the encoders' checks: on the simulated wire
     it is the only place they run. *)
  List.iter
    (fun (msg, payload) ->
      Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
          ignore (Runtime.payload_bits payload)))
    [ ("Codec.encode_residues: value out of range", Runtime.Ints { modulus = 10; values = [| 3; 10 |] });
      ("Codec.encode_residues: value out of range", Runtime.Ints { modulus = 10; values = [| -1 |] });
      ("Wire.bits_for_int_mod: modulus must exceed 1", Runtime.Ints { modulus = 1; values = [||] });
      ("Codec.encode_nats: value exceeds width",
       Runtime.Batch [ Runtime.Nats { width_bits = 8; values = [| Nat.of_int 256 |] } ]);
      ("Codec.encode_nats: width must be positive", Runtime.Nats { width_bits = 0; values = [||] }) ]

let test_frame_encode_into_zero_alloc () =
  (* The transport hot path: encoding an integer-payload frame into a
     reused buffer must allocate nothing on the minor heap.  Floats /
     Nats payloads box values and are excluded from the guarantee. *)
  let frame =
    Frame.Data
      { round = 12; seq = 3; src = Wire.Provider 1; dst = Wire.Host;
        payload = Runtime.Ints { modulus = 1 lsl 40; values = Array.init 64 (fun i -> i) } }
  in
  let measure frame buf =
    (* Warm up: fault any lazy paths before measuring. *)
    ignore (Frame.encode_into frame buf ~pos:0);
    let iters = 1000 in
    let before = Gc.minor_words () in
    for _ = 1 to iters do
      ignore (Frame.encode_into frame buf ~pos:0)
    done;
    let allocated = Gc.minor_words () -. before in
    (* Sampling the counter boxes a couple of floats; anything beyond
       that constant means encode_into allocates per frame. *)
    if allocated > 64.0 then
      Alcotest.failf "encode_into allocated %.0f minor words over %d frames" allocated
        iters
  in
  measure frame (Bytes.create (Frame.encoded_length frame));
  (* Control frames ride the same writer. *)
  let eor = Frame.End_of_round { round = 3; sender = 1; total = 9; to_dst = 4 } in
  measure eor (Bytes.create (Frame.encoded_length eor))

(* Average minor words per call, after a warm-up call. *)
let minor_words_per_call ~iters f =
  ignore (f ());
  let before = Gc.minor_words () in
  for _ = 1 to iters do
    ignore (f ())
  done;
  (Gc.minor_words () -. before) /. float_of_int iters

let test_montgomery_pow_alloc_flat () =
  (* H's decrypt kernel allocates its scratch, window table and
     accumulator once per call, never per product: a 1,024-bit exponent
     (over a thousand products) allocates what a 64-bit one does, apart
     from its wider window table: 16 more entries, 112 words at this
     width, measured 133 against 245.  The allowance is 160 words. *)
  let s = State.create ~seed:31 () in
  let m = Nat.succ (Nat.shift_left (Nat.random_bits_exact s 127) 1) in
  let ctx = Spe_bignum.Montgomery.create m in
  let base = Nat.random_below s m in
  let words bits =
    let exp = Nat.random_bits_exact s bits in
    minor_words_per_call ~iters:50 (fun () -> Spe_bignum.Montgomery.pow ctx ~base ~exp)
  in
  let short = words 64 and long = words 1024 in
  if long -. short > 160. then
    Alcotest.failf "pow allocated %.0f words for a 1024-bit exponent, %.0f for a 64-bit one"
      long short

let test_rsa_decrypt_alloc_bound () =
  (* One RSA-256 CRT decryption: two in-place 128-bit exponentiations
     plus the CRT reductions and Garner recombination on Nat: 413
     words on OCaml 5.1.  A kernel that allocates per product takes
     thousands. *)
  let kp = Spe_crypto.Rsa.generate (State.create ~seed:61 ()) ~bits:256 in
  let dec = Spe_crypto.Rsa.decryptor kp.Spe_crypto.Rsa.secret in
  let c = Spe_crypto.Rsa.encrypt kp.Spe_crypto.Rsa.public (Nat.of_int 123_456_789) in
  let words = minor_words_per_call ~iters:200 (fun () -> dec c) in
  if words > 1000. then Alcotest.failf "one RSA-256 decryption allocated %.0f minor words" words

let qcheck_frame_tests =
  let open QCheck in
  let payload_gen =
    Gen.oneof
      [
        Gen.map2
          (fun bits values ->
            let modulus = 1 lsl (2 + bits) in
            Runtime.Ints
              { modulus; values = Array.of_list (List.map (fun v -> v mod modulus) values) })
          (Gen.int_range 0 40)
          (Gen.list_size (Gen.int_range 0 20) (Gen.int_range 0 max_int));
        Gen.map (fun l -> Runtime.Floats (Array.of_list l))
          (Gen.list_size (Gen.int_range 0 20) Gen.float);
        Gen.map (fun l -> Runtime.Bits (Array.of_list l))
          (Gen.list_size (Gen.int_range 0 40) Gen.bool);
      ]
  in
  let frame_gen =
    Gen.oneof
      [
        Gen.map (fun s -> Frame.Hello { sender = s }) (Gen.int_range 0 100);
        Gen.map3
          (fun round seq payload ->
            Frame.Data
              { round; seq; src = Wire.Provider 0; dst = Wire.Host; payload })
          (Gen.int_range 1 1000) (Gen.int_range 0 1000) payload_gen;
        Gen.map3
          (fun round sender (total, to_dst) ->
            Frame.End_of_round { round; sender; total; to_dst })
          (Gen.int_range 1 1000) (Gen.int_range 0 100)
          (Gen.pair (Gen.int_range 0 1000) (Gen.int_range 0 1000));
        Gen.map2 (fun round sender -> Frame.Nack { round; sender })
          (Gen.int_range 1 1000) (Gen.int_range 0 100);
        Gen.map (fun s -> Frame.Fin { sender = s }) (Gen.int_range 0 100);
      ]
  in
  [
    Test.make ~name:"Frame.decode: round-trips or rejects" ~count:3000
      (make (Util.fuzz_input ~seeds:(List.map Frame.encode sample_frames)))
      (Util.decodes_or_rejects ~decode:Frame.decode ~encode:Frame.encode);
    Test.make ~name:"length-prefixed frame encode/decode round-trips" ~count:500
      (make frame_gen)
      (fun frame ->
        let body = Frame.encode frame in
        Frame.decode body = frame
        && Frame.framed_length frame = Frame.length_prefix_bytes + Bytes.length body);
  ]

(* --- the reactor's determinism contract -------------------------------------- *)

(* The reactor promises (reactor.mli): due timers fire strictly in
   (deadline, registration) order, cancelled timers never fire, the
   ready queue is drained FIFO in snapshots, and a task posted by a
   running task waits for the {e next} snapshot — behind every queued
   sibling, which is the fairness point machines rely on between
   rounds.  The property builds a seeded batch of already-due timers
   (with deadline collisions), cancellations and chained posts, runs
   it twice, and checks both runs against the analytically expected
   order. *)
let qcheck_reactor_tests =
  let open QCheck in
  let batch_gen =
    Gen.triple
      (Gen.list_size (Gen.int_range 0 24) (Gen.int_range 0 4)) (* timer deadline offsets *)
      (Gen.list_size (Gen.int_range 0 24) Gen.bool) (* cancellation mask *)
      (Gen.int_range 0 12) (* chained post pairs *)
  in
  let run_batch (offsets, cancels, nposts) =
    let r = Reactor.create () in
    let order = ref [] in
    let record e = order := e :: !order in
    let now = Unix.gettimeofday () in
    (* Already-due deadlines (now - 1 - offset): wall-clock independent
       — every timer is due at the first iteration, so the fire order
       is purely the heap's (deadline, seq) contract. *)
    let timers =
      List.mapi
        (fun i off ->
          (i, off, Reactor.at r (now -. 1. -. float_of_int off) (fun () -> record (`Timer i))))
        offsets
    in
    let cancelled =
      List.filteri (fun i _ -> List.nth_opt cancels i = Some true) timers
      |> List.map (fun (i, _, tm) -> Reactor.cancel r tm; i)
    in
    for j = 0 to nposts - 1 do
      (* Each parent posts a child when it runs: the child must land in
         the next snapshot, after every queued parent. *)
      Reactor.post r (fun () ->
          record (`Parent j);
          Reactor.post r (fun () -> record (`Child j)))
    done;
    let live = List.length offsets - List.length cancelled in
    let target = live + (2 * nposts) in
    Reactor.run r ~until:(fun () -> List.length !order >= target);
    let fired = Reactor.timer_fires r in
    Reactor.destroy r;
    (List.rev !order, fired, live)
  in
  let expected_of (offsets, cancels, nposts) =
    let live =
      List.filteri (fun i _ -> List.nth_opt cancels i <> Some true)
        (List.mapi (fun i off -> (i, off)) offsets)
    in
    (* Heap order: smaller deadline first (= larger offset), ties by
       registration sequence. *)
    let timers =
      List.stable_sort (fun (_, o1) (_, o2) -> compare o2 o1) live
      |> List.map (fun (i, _) -> `Timer i)
    in
    timers
    @ List.init nposts (fun j -> `Parent j)
    @ List.init nposts (fun j -> `Child j)
  in
  [
    Test.make ~name:"reactor: timer order, cancellation and ready-FIFO are deterministic"
      ~count:200 (make batch_gen)
      (fun batch ->
        let a, fired_a, live = run_batch batch in
        let b, fired_b, _ = run_batch batch in
        let expected = expected_of batch in
        a = expected && b = expected && fired_a = live && fired_b = live);
  ]

(* A cancelled timer must not keep its task closure reachable: a
   daemon's round timers are minutes long, and each closure holds an
   endpoint machine with its frame cache and inbox. *)
let test_reactor_cancel_releases_closures () =
  let r = Reactor.create () in
  let finalised = ref 0 in
  let deadline = Unix.gettimeofday () +. 300. in
  let timers =
    List.init 2000 (fun _ ->
        let buf = Bytes.create 64 in
        Gc.finalise (fun _ -> incr finalised) buf;
        Reactor.at r deadline (fun () -> ignore (Bytes.length buf)))
  in
  List.iter (Reactor.cancel r) timers;
  Reactor.run r ~until:(fun () -> Reactor.iterations r >= 1);
  Gc.full_major ();
  Alcotest.(check int) "every cancelled closure finalised" 2000 !finalised;
  Alcotest.(check int) "no timer pending" 0 (Reactor.pending_timers r);
  Reactor.destroy r

(* --- transports ------------------------------------------------------------- *)

(* The reactor connection: every frame queued in one loop turn leaves
   in one write, frames are sliced intact and in order, and a malformed
   frame or a negative length prefix kills the link exactly once. *)
let test_link_batches_and_kills () =
  let module Link = Transport.Socket.Link in
  let reactor = Reactor.create () in
  let a_fd, b_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let stats_a = Link.stats () and stats_b = Link.stats () in
  let got = ref [] and bursts = ref 0 and closed_b = ref 0 in
  let a =
    Link.create ~reactor ~stats:stats_a ~on_frame:(fun _ _ _ -> true) ~on_close:ignore a_fd
  in
  let b =
    Link.create ~reactor ~stats:stats_b
      ~on_frame:(fun buf off len ->
        let s = Bytes.sub_string buf off len in
        got := s :: !got;
        s <> "poison")
      ~on_burst:(fun () -> incr bursts)
      ~on_close:(fun () -> incr closed_b)
      b_fd
  in
  let frames = List.init 50 (Printf.sprintf "frame-%d") in
  List.iter (fun f -> Link.queue a (String.length f) (fun buf pos -> Bytes.blit_string f 0 buf pos (String.length f))) frames;
  Alcotest.(check int) "nothing written before the loop polls" 0 stats_a.Link.writes;
  let expired = ref false in
  ignore (Reactor.at reactor (Unix.gettimeofday () +. 2.) (fun () -> expired := true));
  Reactor.run reactor ~until:(fun () -> !expired || List.length !got = 50);
  Alcotest.(check (list string)) "frames intact and in order" frames (List.rev !got);
  Alcotest.(check int) "one write for the turn" 1 stats_a.Link.writes;
  Alcotest.(check int) "frames counted" 50 stats_a.Link.frames_sent;
  Alcotest.(check int) "frames received" 50 stats_b.Link.frames_received;
  Alcotest.(check bool) "bursts reported" true (!bursts >= 1);
  Link.queue a 6 (fun buf pos -> Bytes.blit_string "poison" 0 buf pos 6);
  Link.queue a 5 (fun buf pos -> Bytes.blit_string "after" 0 buf pos 5);
  Reactor.run reactor ~until:(fun () -> !expired || not (Link.alive b));
  Alcotest.(check bool) "a malformed frame kills the link" false (Link.alive b);
  Alcotest.(check int) "on_close ran once" 1 !closed_b;
  Alcotest.(check bool) "nothing dispatched after the malformed frame" true (List.hd !got = "poison");
  Link.close b;
  Alcotest.(check int) "close is idempotent" 1 !closed_b;
  Link.close a;
  (* A negative length prefix is malformed too. *)
  let c_fd, d_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let d = Link.create ~reactor ~on_frame:(fun _ _ _ -> true) ~on_close:ignore d_fd in
  let bad = Bytes.make 8 '\xff' in
  ignore (Unix.write c_fd bad 0 8);
  Reactor.run reactor ~until:(fun () -> !expired || not (Link.alive d));
  Alcotest.(check bool) "a negative length kills the link" false (Link.alive d);
  Unix.close c_fd;
  Reactor.destroy reactor

(* Blocking frame reads for handshakes: a hostile length prefix costs
   only the bytes that arrive, and a deadline bounds a silent peer. *)
let test_read_frame_bounded () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let hostile = Bytes.create 14 in
  Bytes.set_int32_be hostile 0 0x7FFFFFF0l;
  ignore (Unix.write a hostile 0 14);
  Unix.close a;
  let before = Gc.allocated_bytes () in
  (match Transport.Socket.read_frame b with
  | _ -> Alcotest.fail "a torn hostile frame should not read"
  | exception Failure _ -> ());
  Alcotest.(check bool) "allocation bounded by the bytes received" true
    (Gc.allocated_bytes () -. before < 1e6);
  Unix.close b;
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let t0 = Unix.gettimeofday () in
  (match Transport.Socket.read_frame ~deadline:(t0 +. 0.2) b with
  | _ -> Alcotest.fail "a silent peer should miss the deadline"
  | exception Failure _ -> ());
  Alcotest.(check bool) "the deadline bounds the wait" true (Unix.gettimeofday () -. t0 < 2.);
  (* On success the receive timeout is cleared again. *)
  Transport.Socket.write_frame a (Bytes.of_string "hi");
  (match Transport.Socket.read_frame ~deadline:(Unix.gettimeofday () +. 5.) b with
  | Some body -> Alcotest.(check string) "frame read" "hi" (Bytes.to_string body)
  | None -> Alcotest.fail "frame missing");
  Alcotest.(check (float 0.)) "receive timeout cleared" 0.
    (Unix.getsockopt_float b Unix.SO_RCVTIMEO);
  Unix.close a;
  Unix.close b

let test_memory_transport_delivers () =
  let reactor = Reactor.create () in
  let group = Transport.Memory.create_group ~reactor ~m:2 () in
  let a = group.(0) and b = group.(1) in
  a.Transport.send 1 (Bytes.of_string "one");
  a.Transport.send 1 (Bytes.of_string "two");
  Alcotest.(check (option string)) "fifo 1" (Some "one")
    (Option.map Bytes.to_string (b.Transport.try_recv ()));
  Alcotest.(check (option string)) "fifo 2" (Some "two")
    (Option.map Bytes.to_string (b.Transport.try_recv ()));
  Alcotest.(check (option string)) "empty queue yields nothing" None
    (Option.map Bytes.to_string (b.Transport.try_recv ()));
  Alcotest.(check int) "framed bytes counted" (2 * (Frame.length_prefix_bytes + 3))
    (a.Transport.sent_bytes ());
  a.Transport.close ();
  Alcotest.check_raises "send after close" Transport.Closed (fun () ->
      b.Transport.send 0 (Bytes.of_string "x"));
  Alcotest.check_raises "recv after close" Transport.Closed (fun () ->
      ignore (a.Transport.try_recv ()));
  Reactor.destroy reactor

let test_socket_transport_delivers () =
  let reactor = Reactor.create () in
  let group =
    Transport.Socket.reactor_group ~reactor
      ~addresses:(Transport.Socket.temp_unix_addresses ~m:3) ()
  in
  (* The higher index dials the lower and pays one Hello per
     connection: endpoint 1 dialled 0, endpoint 2 dialled 0 and 1. *)
  let hello = Frame.framed_length (Frame.Hello { sender = 0 }) in
  Alcotest.(check (list int)) "Hello bytes counted by the dialler" [ 0; hello; 2 * hello ]
    (Array.to_list (Array.map (fun (t : Transport.t) -> t.Transport.sent_bytes ()) group));
  group.(2).Transport.send 0 (Bytes.of_string "hello-from-2");
  group.(0).Transport.send 2 (Bytes.of_string "hello-from-0");
  let got = Array.make 3 None in
  let expired = ref false in
  ignore (Reactor.at reactor (Unix.gettimeofday () +. 2.) (fun () -> expired := true));
  Reactor.run reactor ~until:(fun () ->
      List.iter
        (fun i -> if got.(i) = None then got.(i) <- group.(i).Transport.try_recv ())
        [ 0; 2 ];
      !expired || (got.(0) <> None && got.(2) <> None));
  Alcotest.(check (option string)) "2 -> 0" (Some "hello-from-2")
    (Option.map Bytes.to_string got.(0));
  Alcotest.(check (option string)) "0 -> 2" (Some "hello-from-0")
    (Option.map Bytes.to_string got.(2));
  group.(0).Transport.close ();
  Reactor.destroy reactor

(* --- the Endpoint engine contract (Runtime.run edge cases) -------------------- *)

(* A one-shot program: sends its floats to the next party in round 1,
   then goes quiet.  Exercises quiescence exactly like Runtime.run. *)
let one_shot_programs parties =
  let m = Array.length parties in
  Array.init m (fun k ->
      fun ~round ~inbox:_ ->
        if round = 1 then
          [ { Runtime.src = parties.(k); dst = parties.((k + 1) mod m);
              payload = Runtime.Floats [| float_of_int k |] } ]
        else [])

let test_endpoint_quiescent_round_not_charged () =
  let parties = providers 3 in
  let res =
    Endpoint.run_memory ~config:fast ~parties ~programs:(one_shot_programs parties)
      ~max_rounds:5 ()
  in
  Array.iter
    (fun (o : Endpoint.outcome) ->
      Alcotest.(check int) "one active round" 1 o.Endpoint.rounds)
    res.Endpoint.outcomes;
  let merged =
    Net_wire.merge (Array.map (fun (o : Endpoint.outcome) -> o.Endpoint.sent) res.Endpoint.outcomes)
  in
  let s = Wire.stats merged in
  Alcotest.(check int) "merged wire: 1 round" 1 s.Wire.rounds;
  Alcotest.(check int) "merged wire: 3 messages" 3 s.Wire.messages;
  (* The in-process engine agrees, message for message. *)
  let engine = Runtime.create () in
  let programs = one_shot_programs parties in
  Array.iteri (fun k p -> Runtime.add_party engine p programs.(k)) parties;
  let w = Wire.create () in
  let rounds = Runtime.run engine ~wire:w ~max_rounds:5 in
  Alcotest.(check int) "engine rounds agree" rounds 1;
  Alcotest.(check bool) "engine stats agree" true (Wire.stats w = s)

let test_endpoint_nontermination_detected () =
  let parties = [| Wire.Host; Wire.Provider 0 |] in
  let programs =
    Array.init 2 (fun k ->
        fun ~round:_ ~inbox:_ ->
          [ { Runtime.src = parties.(k); dst = parties.(1 - k);
              payload = Runtime.Bits [| true |] } ])
  in
  Alcotest.check_raises "runaway protocol"
    (Failure "Endpoint.run: protocol did not terminate") (fun () ->
      ignore (Endpoint.run_memory ~config:fast ~parties ~programs ~max_rounds:3 ()))

let test_endpoint_rejects_unknown_destination () =
  let parties = [| Wire.Host; Wire.Provider 0 |] in
  let programs =
    [|
      (fun ~round:_ ~inbox:_ ->
        [ { Runtime.src = Wire.Host; dst = Wire.Provider 9;
            payload = Runtime.Bits [| true |] } ]);
      (fun ~round:_ ~inbox:_ -> []);
    |]
  in
  Alcotest.check_raises "unknown party"
    (Invalid_argument "Endpoint.run: message to unknown party") (fun () ->
      ignore (Endpoint.run_memory ~config:fast ~parties ~programs ~max_rounds:3 ()))

let test_endpoint_rejects_forged_source () =
  let parties = [| Wire.Host; Wire.Provider 0 |] in
  let programs =
    [|
      (fun ~round:_ ~inbox:_ ->
        [ { Runtime.src = Wire.Provider 0; dst = Wire.Host;
            payload = Runtime.Bits [| true |] } ]);
      (fun ~round:_ ~inbox:_ -> []);
    |]
  in
  Alcotest.check_raises "forged source" (Invalid_argument "Endpoint.run: forged source")
    (fun () -> ignore (Endpoint.run_memory ~config:fast ~parties ~programs ~max_rounds:3 ()))

(* --- protocol equality across engines ----------------------------------------- *)

let p1_reference ~seed ~parties ~modulus ~inputs =
  let s = State.create ~seed () in
  let w = Wire.create () in
  let r = P1d.run s ~wire:w ~parties ~modulus ~inputs in
  (r, Wire.stats w)

let run_p1_over engine ~seed ~parties ~modulus ~inputs =
  let s = State.create ~seed () in
  let session = P1d.make s ~parties ~modulus ~inputs in
  let res =
    engine ~parties:session.Session.parties ~programs:session.Session.programs
      ~max_rounds:P1d.max_rounds ()
  in
  (session.Session.result (), res)

let logs_of (res : Endpoint.result) =
  Array.map (fun (o : Endpoint.outcome) -> o.Endpoint.sent) res.Endpoint.outcomes

let check_p1_engine engine label =
  List.iter
    (fun m ->
      let parties = providers m in
      let modulus = 1 lsl 30 in
      let inputs = Array.init m (fun k -> Array.init 5 (fun l -> (k * 17) + l)) in
      let reference, sim_stats = p1_reference ~seed:11 ~parties ~modulus ~inputs in
      let result, res = run_p1_over engine ~seed:11 ~parties ~modulus ~inputs in
      Alcotest.(check bool)
        (Printf.sprintf "%s m=%d share1" label m)
        true
        (result.Protocol1.share1 = reference.Protocol1.share1);
      Alcotest.(check bool)
        (Printf.sprintf "%s m=%d share2" label m)
        true
        (result.Protocol1.share2 = reference.Protocol1.share2);
      let merged_stats = Wire.stats (Net_wire.merge (logs_of res)) in
      Alcotest.(check bool)
        (Printf.sprintf "%s m=%d NR/NM/MS identical to the simulated wire" label m)
        true (merged_stats = sim_stats))
    [ 2; 3; 4 ]

let mem_engine ?config ?fault () ~parties ~programs ~max_rounds () =
  Endpoint.run_memory ?config ?fault ~parties ~programs ~max_rounds ()

let sock_engine ~parties ~programs ~max_rounds () =
  Endpoint.run_socket ~parties ~programs ~max_rounds ()

let test_p1_memory_matches_sim () = check_p1_engine (mem_engine ()) "memory"

let test_p1_socket_matches_sim () = check_p1_engine sock_engine "socket"

let check_p2_engine engine label =
  List.iter
    (fun m ->
      let parties = providers m in
      let modulus = 1 lsl 14 and bound = 1000 in
      let inputs = Array.init m (fun k -> Array.init 4 (fun l -> (k * 31 + l) mod (bound / m))) in
      let s = State.create ~seed:23 () in
      let w = Wire.create () in
      let reference =
        P2d.run s ~wire:w ~parties ~third_party:Wire.Host ~modulus ~input_bound:bound ~inputs
      in
      let s = State.create ~seed:23 () in
      let session =
        P2d.make s ~parties ~third_party:Wire.Host ~modulus ~input_bound:bound ~inputs
      in
      let res =
        engine ~parties:session.Session.parties ~programs:session.Session.programs
          ~max_rounds:P2d.max_rounds ()
      in
      let result = session.Session.result () in
      Alcotest.(check bool) (Printf.sprintf "%s m=%d share1" label m) true
        (result.Protocol2.share1 = reference.P2d.share1);
      Alcotest.(check bool) (Printf.sprintf "%s m=%d share2" label m) true
        (result.Protocol2.share2 = reference.P2d.share2);
      let merged_stats = Wire.stats (Net_wire.merge (logs_of res)) in
      Alcotest.(check bool)
        (Printf.sprintf "%s m=%d NR/NM/MS identical to the simulated wire" label m)
        true
        (merged_stats = Wire.stats w))
    [ 2; 3; 5 ]

let test_p2_memory_matches_sim () = check_p2_engine (mem_engine ()) "memory"

let test_p2_socket_matches_sim () = check_p2_engine sock_engine "socket"

(* Protocol 3: the quotient and the full NR/NM/MS triple are identical
   across the central run, the in-process session, and both transport
   engines — the distributed twin charges the same two Floats sends. *)
let test_p3_cross_engine () =
  let p1 = Wire.Provider 0 and p2 = Wire.Provider 1 and host = Wire.Host in
  List.iter
    (fun (a1, a2) ->
      let label = Printf.sprintf "p3 a1=%d a2=%d" a1 a2 in
      let central_q, central_stats =
        let s = State.create ~seed:71 () in
        let w = Wire.create () in
        let o = Protocol3.run s ~wire:w ~p1 ~p2 ~host ~a1 ~a2 in
        (o.Protocol3.quotient, Wire.stats w)
      in
      let session () = P3d.make (State.create ~seed:71 ()) ~p1 ~p2 ~host ~a1 ~a2 in
      let w = Wire.create () in
      let sim_q = Session.run (session ()) ~wire:w in
      Alcotest.(check bool) (label ^ ": sim quotient bit-identical") true (sim_q = central_q);
      Alcotest.(check bool) (label ^ ": sim NR/NM/MS identical to the central wire") true
        (Wire.stats w = central_stats);
      List.iter
        (fun (engine_label, run) ->
          let q, res = run (session ()) in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s: quotient bit-identical" label engine_label)
            true (q = central_q);
          Alcotest.(check bool)
            (Printf.sprintf "%s %s: NR/NM/MS identical to the central wire" label engine_label)
            true
            (Wire.stats (Net_wire.merge (logs_of res)) = central_stats))
        [ ("memory", fun s -> Endpoint.run_session_memory s);
          ("socket", fun s -> Endpoint.run_session_socket s) ])
    [ (3, 4); (0, 7); (5, 0) ]

(* --- full pipelines across engines --------------------------------------------- *)

let pipeline_workload = Util.workload

(* The distributed pipelines charge the same NR and NM as the central
   oracle, but the typed payload encodings pad each value to whole
   bytes (DESIGN.md, "central vs distributed wire sizes"): a value of
   b >= 1 central bits occupies 8 * ceil(b / 8) <= 8b distributed bits,
   plus at most one padded byte of per-message fixed overhead — hence
   MS_central <= MS_distributed <= 9 * MS_central + 8 * NM. *)
let check_ms_envelope label ~(central : Wire.stats) ~distributed_bits =
  Alcotest.(check bool)
    (label ^ ": MS within the typed-encoding envelope")
    true
    (distributed_bits >= central.Wire.bits
    && distributed_bits <= (9 * central.Wire.bits) + (8 * central.Wire.messages))

let session_engines = [ ("memory", `Memory); ("socket", `Socket) ]

let run_session_over engine session =
  match engine with
  | `Memory -> Endpoint.run_session_memory session
  | `Socket -> Endpoint.run_session_socket session

(* One pipeline, lowered from its k = 1 Shard plan, on every engine:
   the sim run charges the central NR/NM within the MS envelope, and
   every engine's result equals the central oracle's ([same_result])
   with the sim wire's exact NR/NM/MS. *)
let check_pipeline_cross_engine label ~(central_wire : Wire.stats) ~session ~same_result =
  let w = Wire.create () in
  let sim = Session.run (session ()) ~wire:w in
  let sim_stats = Wire.stats w in
  Alcotest.(check bool) (label ^ ": sim result bit-identical to the central oracle") true
    (same_result sim);
  Alcotest.(check int) (label ^ ": NR matches the central oracle")
    central_wire.Wire.rounds sim_stats.Wire.rounds;
  Alcotest.(check int) (label ^ ": NM matches the central oracle")
    central_wire.Wire.messages sim_stats.Wire.messages;
  check_ms_envelope label ~central:central_wire ~distributed_bits:sim_stats.Wire.bits;
  List.iter
    (fun (engine_label, engine) ->
      let result, res = run_session_over engine (session ()) in
      Alcotest.(check bool)
        (Printf.sprintf "%s %s: result identical to the central oracle" label engine_label)
        true (same_result result);
      Alcotest.(check bool)
        (Printf.sprintf "%s %s: NR/NM/MS identical to sim" label engine_label)
        true
        (Wire.stats (Net_wire.merge (logs_of res)) = sim_stats))
    session_engines

let check_links_cross_engine (seed, n, edges, actions, m) =
  let g, logs = pipeline_workload ~seed ~n ~edges ~actions ~m in
  let config = Protocol4.default_config ~h:2 in
  let central =
    Driver.link_strengths_exclusive (State.create ~seed:(seed + 1) ()) ~graph:g ~logs config
  in
  check_pipeline_cross_engine
    (Printf.sprintf "links m=%d seed=%d" m seed)
    ~central_wire:central.Driver.wire
    ~session:(fun () ->
      Plan.to_session
        (Shard.links_exclusive (State.create ~seed:(seed + 1) ()) ~graph:g ~logs ~shards:1
           config))
    ~same_result:(fun (r : Protocol4.result) -> r = central.Driver.detail)

let check_scores_cross_engine (seed, n, edges, actions, m) =
  let g, logs = pipeline_workload ~seed ~n ~edges ~actions ~m in
  let config = { Protocol6.default_config with Protocol6.key_bits = 128 } in
  let tau = 6 and modulus = 1 lsl 20 in
  let central =
    Driver.user_scores_exclusive (State.create ~seed:(seed + 1) ()) ~graph:g ~logs ~tau
      ~modulus config
  in
  check_pipeline_cross_engine
    (Printf.sprintf "scores m=%d seed=%d" m seed)
    ~central_wire:central.Driver.wire
    ~session:(fun () ->
      Plan.to_session
        (Shard.user_scores_exclusive (State.create ~seed:(seed + 1) ()) ~graph:g ~logs ~tau
           ~modulus ~shards:1 config))
    ~same_result:(fun (r : Shard.scores) ->
      r.Shard.scores = central.Driver.scores && r.Shard.graphs = central.Driver.graphs)

let test_links_cross_engine () =
  List.iter check_links_cross_engine
    [ (101, 24, 70, 10, 2); (103, 30, 90, 12, 2); (101, 24, 70, 10, 3); (103, 30, 90, 12, 3) ]

let test_scores_cross_engine () =
  List.iter check_scores_cross_engine
    [ (105, 18, 50, 8, 2); (107, 22, 66, 10, 2); (105, 18, 50, 8, 3); (107, 22, 66, 10, 3) ]

(* --- byte accounting ----------------------------------------------------------- *)

(* The documented overhead formula (DESIGN.md "Framing overhead"): a
   fault-free run transmits, beyond the data frames, one End_of_round
   per endpoint per peer per executed step (active rounds + the
   quiescent one) and one Fin per endpoint per peer; the socket backend
   adds one Hello per connection. *)
let expected_transport_bytes ~m ~rounds ~data_framed ~hellos =
  let eor = Frame.framed_length (Frame.End_of_round { round = 1; sender = 0; total = 0; to_dst = 0 }) in
  let fin = Frame.framed_length (Frame.Fin { sender = 0 }) in
  let hello = Frame.framed_length (Frame.Hello { sender = 0 }) in
  data_framed
  + (m * (rounds + 1) * (m - 1) * eor)
  + (m * (m - 1) * fin)
  + if hellos then m * (m - 1) / 2 * hello else 0

let check_byte_accounting engine ~hellos label =
  let m = 4 in
  let parties = providers m in
  let modulus = 1 lsl 40 in
  let inputs = Array.init m (fun k -> Array.init 16 (fun l -> (k * 1000) + l)) in
  let _, sim_stats = p1_reference ~seed:31 ~parties ~modulus ~inputs in
  let _, res = run_p1_over engine ~seed:31 ~parties ~modulus ~inputs in
  let logs = logs_of res in
  let totals = Net_wire.totals logs in
  (* Payload bytes: exactly the simulated MS. *)
  Alcotest.(check int)
    (label ^ ": payload bytes = simulated MS / 8")
    (sim_stats.Wire.bits / 8) totals.Net_wire.payload_bytes;
  (* Measured transport bytes: payload + the documented framing overhead. *)
  let rounds = res.Endpoint.outcomes.(0).Endpoint.rounds in
  Alcotest.(check int)
    (label ^ ": transport bytes = data frames + documented control overhead")
    (expected_transport_bytes ~m ~rounds ~data_framed:totals.Net_wire.framed_bytes ~hellos)
    res.Endpoint.transport_bytes

let test_memory_byte_accounting () =
  check_byte_accounting (mem_engine ()) ~hellos:false "memory"

let test_socket_byte_accounting () =
  check_byte_accounting sock_engine ~hellos:true "socket"

(* --- fault injection ------------------------------------------------------------ *)

let test_dropped_frames_are_retransmitted () =
  let m = 3 in
  let parties = providers m in
  let modulus = 1 lsl 16 in
  let inputs = Array.init m (fun k -> [| 2 * k; 5 + k |]) in
  let reference, sim_stats = p1_reference ~seed:41 ~parties ~modulus ~inputs in
  (* Drop two early frames: the Nack/retransmit path must recover and
     the protocol outcome must be unchanged. *)
  let result, res =
    run_p1_over
      (mem_engine ~config:fast ~fault:(Fault.drop_nth [ 1; 5 ]) ())
      ~seed:41 ~parties ~modulus ~inputs
  in
  Alcotest.(check bool) "shares survive frame loss" true
    (result.Protocol1.share1 = reference.Protocol1.share1
    && result.Protocol1.share2 = reference.Protocol1.share2);
  Alcotest.(check bool) "wire statistics survive frame loss" true
    (Wire.stats (Net_wire.merge (logs_of res)) = sim_stats);
  (* The retransmissions cost real bytes beyond the fault-free run. *)
  let _, clean = run_p1_over (mem_engine ~config:fast ()) ~seed:41 ~parties ~modulus ~inputs in
  Alcotest.(check bool) "retransmissions are visible in transport bytes" true
    (res.Endpoint.transport_bytes > clean.Endpoint.transport_bytes)

let test_delayed_frame_reorders_and_recovers () =
  let m = 3 in
  let parties = providers m in
  let modulus = 1 lsl 16 in
  let inputs = Array.init m (fun k -> [| 9 * k; k + 1 |]) in
  let reference, sim_stats = p1_reference ~seed:43 ~parties ~modulus ~inputs in
  (* Hold one round-1 frame past the round timeout: its round completes
     late (via the delayed original or a Nacked retransmission), and
     later frames overtake it — the reorder path. *)
  let result, res =
    run_p1_over
      (mem_engine ~config:fast ~fault:(Fault.delay_nth [ (2, 0.15) ]) ())
      ~seed:43 ~parties ~modulus ~inputs
  in
  Alcotest.(check bool) "shares survive reordering" true
    (result.Protocol1.share1 = reference.Protocol1.share1
    && result.Protocol1.share2 = reference.Protocol1.share2);
  Alcotest.(check bool) "wire statistics survive reordering" true
    (Wire.stats (Net_wire.merge (logs_of res)) = sim_stats)

let test_blackhole_times_out_cleanly () =
  let m = 3 in
  let parties = providers m in
  let modulus = 1 lsl 16 in
  let inputs = Array.init m (fun k -> [| k |]) in
  let s = State.create ~seed:47 () in
  let session = P1d.make s ~parties ~modulus ~inputs in
  let t0 = Unix.gettimeofday () in
  (match
     Endpoint.run_memory ~config:fast ~fault:(Fault.blackhole ~src:0 ~dst:2)
       ~parties:session.Session.parties ~programs:session.Session.programs
       ~max_rounds:P1d.max_rounds ()
   with
  | _ -> Alcotest.fail "a dead link must not let the run complete"
  | exception Endpoint.Round_timeout { party; round; phase; missing } ->
    Alcotest.(check bool) "starved party raises" true (party = Wire.Provider 2);
    Alcotest.(check int) "at the round the link died" 1 round;
    Alcotest.(check (option string)) "no phase map on raw programs" None phase;
    Alcotest.(check bool) "names the silent peer" true (missing = [ Wire.Provider 0 ]));
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "bounded retries, no hang (%.2fs)" elapsed)
    true
    (elapsed < 10. *. fast.Endpoint.round_timeout)

(* --- sharded plans over the worker pool ----------------------------------------- *)

module Protocol5 = Spe_core.Protocol5

(* Drive a plan on a transport engine, keeping each shard session's
   group size and endpoint result for the accounting checks below. *)
let run_plan_over engine ~workers (plan : _ Plan.t) =
  let result, runs = Plan.execute ~workers ~engine plan in
  (result, List.map (fun (r : Plan.run) -> (r.Plan.parties, r.Plan.endpoint)) runs)

(* The payload bytes of a plan's sim run: the MS reference that every
   shard count's per-session payloads must sum to. *)
let sim_payload plan =
  let w = Wire.create () in
  ignore (Session.run (Plan.to_session plan) ~wire:w);
  (Wire.stats w).Wire.bits / 8

(* Each shard session runs on its own connection group, so the framing
   closed form of the accounting tests must hold per group — with no
   Hello term: pool groups (memory, and socketpair socket groups) have
   no dial handshake. *)
let check_plan_accounting label plan groups ~payload_ref =
  List.iteri
    (fun g (m, (res : Endpoint.result)) ->
      let rounds =
        Array.fold_left (fun acc o -> max acc o.Endpoint.rounds) 0 res.Endpoint.outcomes
      in
      let totals = Net_wire.totals (logs_of res) in
      Alcotest.(check int)
        (Printf.sprintf "%s group %d: framing closed form" label g)
        (expected_transport_bytes ~m ~rounds ~data_framed:totals.Net_wire.framed_bytes
           ~hellos:false)
        res.Endpoint.transport_bytes)
    groups;
  let payload =
    List.fold_left
      (fun acc (_, res) -> acc + (Net_wire.totals (logs_of res)).Net_wire.payload_bytes)
      0 groups
  in
  Alcotest.(check int)
    (label ^ ": per-shard payload bytes sum to the k = 1 MS")
    payload_ref payload;
  let rounds = List.fold_left (fun acc (_, res) ->
      acc + Array.fold_left (fun a o -> max a o.Endpoint.rounds) 0 res.Endpoint.outcomes)
      0 groups
  in
  Alcotest.(check int)
    (label ^ ": executed rounds sum to the plan total")
    (Plan.total_rounds plan) rounds

let test_sharded_links_pool_cross_engine () =
  let seed = 211 and n = 24 and edges = 70 and actions = 10 and m = 3 in
  let g, logs = pipeline_workload ~seed ~n ~edges ~actions ~m in
  let config = Protocol4.default_config ~h:2 in
  let central =
    Driver.link_strengths_exclusive (State.create ~seed:(seed + 1) ()) ~graph:g ~logs config
  in
  let payload_ref =
    sim_payload
      (Shard.links_exclusive (State.create ~seed:(seed + 1) ()) ~graph:g ~logs ~shards:1 config)
  in
  List.iter
    (fun (engine_label, engine) ->
      List.iter
        (fun shards ->
          let label = Printf.sprintf "sharded links %s k=%d" engine_label shards in
          let plan =
            Shard.links_exclusive (State.create ~seed:(seed + 1) ()) ~graph:g ~logs
              ~shards config
          in
          let result, groups = run_plan_over engine ~workers:2 plan in
          Alcotest.(check bool) (label ^ ": bit-identical to the central oracle") true
            (result = central.Driver.detail);
          check_plan_accounting label plan groups ~payload_ref)
        [ 1; 3 ])
    session_engines

let test_sharded_links_non_exclusive_pool_cross_engine () =
  let seed = 223 and n = 20 and edges = 60 and actions = 9 and m = 3 in
  let s = State.create ~seed () in
  let g = Generate.erdos_renyi_gnm s ~n ~m:edges in
  let planted = Cascade.uniform_probabilities ~p:0.3 g in
  let log =
    Cascade.generate s planted
      { Cascade.num_actions = actions; seeds_per_action = 2; max_delay = 3 }
  in
  let spec = Partition.random_class_spec s ~num_actions:actions ~m ~num_classes:3 in
  let logs = Partition.non_exclusive s log ~spec in
  let config = Protocol4.default_config ~h:2 in
  let obfuscation = Protocol5.Basic in
  let central =
    Driver.link_strengths_non_exclusive (State.create ~seed:(seed + 1) ()) ~graph:g ~logs
      ~spec ~obfuscation config
  in
  let payload_ref =
    sim_payload
      (Shard.links_non_exclusive (State.create ~seed:(seed + 1) ()) ~graph:g ~logs ~spec
         ~obfuscation ~shards:1 config)
  in
  List.iter
    (fun (engine_label, engine) ->
      let label = Printf.sprintf "sharded non-exclusive links %s k=3" engine_label in
      let plan =
        Shard.links_non_exclusive (State.create ~seed:(seed + 1) ()) ~graph:g ~logs ~spec
          ~obfuscation ~shards:3 config
      in
      let result, groups = run_plan_over engine ~workers:2 plan in
      Alcotest.(check bool) (label ^ ": bit-identical to the central oracle") true
        (result = central.Driver.detail);
      check_plan_accounting label plan groups ~payload_ref)
    session_engines

let test_sharded_scores_pool_cross_engine () =
  let seed = 227 and n = 16 and edges = 44 and actions = 8 and m = 2 in
  let g, logs = pipeline_workload ~seed ~n ~edges ~actions ~m in
  let config = { Protocol6.default_config with Protocol6.key_bits = 128 } in
  let tau = 6 and modulus = 1 lsl 20 in
  let central =
    Driver.user_scores_exclusive (State.create ~seed:(seed + 1) ()) ~graph:g ~logs ~tau
      ~modulus config
  in
  let payload_ref =
    sim_payload
      (Shard.user_scores_exclusive (State.create ~seed:(seed + 1) ()) ~graph:g ~logs ~tau
         ~modulus ~shards:1 config)
  in
  List.iter
    (fun (engine_label, engine) ->
      let label = Printf.sprintf "sharded scores %s k=3" engine_label in
      let plan =
        Shard.user_scores_exclusive (State.create ~seed:(seed + 1) ()) ~graph:g ~logs
          ~tau ~modulus ~shards:3 config
      in
      let result, groups = run_plan_over engine ~workers:2 plan in
      Alcotest.(check bool) (label ^ ": bit-identical to the central oracle") true
        (result.Shard.scores = central.Driver.scores
        && result.Shard.graphs = central.Driver.graphs);
      check_plan_accounting label plan groups ~payload_ref)
    session_engines

(* The one engine over both transports, pinned to the central oracle
   across shard counts: memory and socket groups must produce
   bit-identical links and scores results at k in {1, 2, 4, 8}. *)
let test_memory_socket_sim_k_sweep () =
  let seed = 229 and n = 20 and edges = 55 and actions = 8 and m = 3 in
  let g, logs = pipeline_workload ~seed ~n ~edges ~actions ~m in
  let links_config = Protocol4.default_config ~h:2 in
  let links_central =
    (Driver.link_strengths_exclusive (State.create ~seed:(seed + 1) ()) ~graph:g ~logs
       links_config)
      .Driver.detail
  in
  let scores_config = { Protocol6.default_config with Protocol6.key_bits = 64 } in
  let tau = 4 and modulus = 1 lsl 20 in
  let scores_central =
    Driver.user_scores_exclusive (State.create ~seed:(seed + 2) ()) ~graph:g ~logs ~tau
      ~modulus scores_config
  in
  List.iter
    (fun shards ->
      let links_plan () =
        Shard.links_exclusive (State.create ~seed:(seed + 1) ()) ~graph:g ~logs ~shards
          links_config
      in
      let socket_links, _ = run_plan_over `Socket ~workers:2 (links_plan ()) in
      let memory_links, _ = run_plan_over `Memory ~workers:2 (links_plan ()) in
      Alcotest.(check bool)
        (Printf.sprintf "links k=%d: memory = socket = sim" shards)
        true
        (socket_links.Protocol4.strengths = memory_links.Protocol4.strengths
        && socket_links = links_central);
      let scores_plan () =
        Shard.user_scores_exclusive (State.create ~seed:(seed + 2) ()) ~graph:g ~logs
          ~tau ~modulus ~shards scores_config
      in
      let socket_scores, _ = run_plan_over `Socket ~workers:2 (scores_plan ()) in
      let memory_scores, _ = run_plan_over `Memory ~workers:2 (scores_plan ()) in
      Alcotest.(check bool)
        (Printf.sprintf "scores k=%d: memory = socket = sim" shards)
        true
        (socket_scores.Shard.scores = memory_scores.Shard.scores
        && socket_scores.Shard.scores = scores_central.Driver.scores
        && socket_scores.Shard.graphs = scores_central.Driver.graphs))
    [ 1; 2; 4; 8 ]

(* A stage wider than select's FD_SETSIZE allows at once: 200
   three-party sessions with [workers] left at its default, so every
   session is launched together.  A socket group whose descriptors
   would reach the limit waits for an earlier session to close; a
   memory group opens no descriptors.  Both must finish with the
   simulated results.  With no session in flight to wait for, the
   socket pool fails typed instead. *)
let test_wide_stage_past_fd_setsize () =
  let parties = providers 3 in
  let session i =
    P1d.make (State.create ~seed:(300 + i) ()) ~parties ~modulus:(1 lsl 20)
      ~inputs:(Array.init 3 (fun k -> [| i + k; 7 * k |]))
  in
  let expected = Array.init 200 (fun i -> Session.run (session i) ~wire:(Wire.create ())) in
  List.iter
    (fun (label, engine) ->
      let sessions = Array.init 200 session in
      let plan =
        Plan.make ~shards:1
          ~stages:[ Plan.stage ~label:"wide" (Array.map (Session.map ignore) sessions) ]
          ~result:(fun () -> Array.map (fun (s : _ Session.t) -> s.Session.result ()) sessions)
      in
      let got, _ = Plan.execute ~engine plan in
      Alcotest.(check bool) (label ^ ": 200 sessions equal Session.run") true (got = expected))
    [ ("memory", `Memory); ("socket", `Socket) ];
  (* Take every descriptor below the limit, then free three: room for
     the pool's reactor, not for a group. *)
  let null = Unix.openfile Filename.null [ Unix.O_RDONLY ] 0 in
  let rec fill acc =
    match Unix.dup null with
    | fd -> if Reactor.selectable [ fd ] then fill (fd :: acc) else fd :: acc
    | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) -> acc
  in
  let held = ref (fill []) in
  for _ = 1 to 3 do
    match !held with
    | fd :: rest ->
      Unix.close fd;
      held := rest
    | [] -> ()
  done;
  let one =
    Plan.make ~shards:1
      ~stages:[ Plan.stage ~label:"one" [| Session.map ignore (session 0) |] ]
      ~result:ignore
  in
  Fun.protect
    ~finally:(fun () -> List.iter Unix.close (null :: !held))
    (fun () ->
      match Plan.execute ~engine:`Socket one with
      | _ -> Alcotest.fail "a group that cannot fit must not run"
      | exception Endpoint.Shard_failed { shard; exn; _ } ->
        Alcotest.(check int) "names the session" 0 shard;
        Alcotest.(check bool) "typed as the descriptor limit" true
          (exn = Transport.Descriptor_limit))

(* A shard whose group stops delivering must fail the stage naming the
   shard and its phase, and the pool must close the sibling groups
   rather than wait out their timeouts. *)
let test_pool_stall_cancels_siblings () =
  let g, logs = pipeline_workload ~seed:211 ~n:24 ~edges:70 ~actions:10 ~m:3 in
  let config = Protocol4.default_config ~h:2 in
  let plan =
    Shard.links_exclusive (State.create ~seed:212 ()) ~graph:g ~logs ~shards:4 config
  in
  let ns = Array.length (List.hd plan.Plan.stages).Plan.sessions in
  Alcotest.(check bool) "plan cut into several shard sessions" true (ns >= 4);
  let faults i = if i = 2 then Some (Fault.blackhole ~src:0 ~dst:1) else None in
  let t0 = Unix.gettimeofday () in
  (match Plan.execute ~config:fast ~workers:2 ~faults ~engine:`Memory plan with
  | _ -> Alcotest.fail "a stalled shard must not let the stage complete"
  | exception Endpoint.Shard_failed { shard; phase; exn } ->
    Alcotest.(check int) "names the stalled shard" 2 shard;
    Alcotest.(check bool) "names the phase" true (phase <> None);
    Alcotest.(check bool) "root cause is the round timeout" true
      (match exn with Endpoint.Round_timeout _ -> true | _ -> false));
  let elapsed = Unix.gettimeofday () -. t0 in
  (* Bound: the stalled shard's own retries, plus slack for the claim
     order — never the siblings' full timeouts serialised. *)
  Alcotest.(check bool)
    (Printf.sprintf "siblings cancelled, no hang (%.2fs)" elapsed)
    true
    (elapsed < 20. *. fast.Endpoint.round_timeout)

(* The full Protocol 4 exclusive pipeline under a seeded lossy link
   layer: every seeded drop is recovered by the Nack/retransmit
   machinery, so the memory-engine result stays bit-identical to the
   central oracle, first-transmission accounting still matches the
   fault-free simulated wire exactly, and the transport-byte total
   sits at or above the fault-free framing closed form (retransmissions
   only ever add bytes). *)
let test_links_seeded_faults_memory () =
  let seed = 211 and n = 24 and edges = 70 and actions = 10 and m = 3 in
  let g, logs = pipeline_workload ~seed ~n ~edges ~actions ~m in
  let config = Protocol4.default_config ~h:2 in
  let central =
    Driver.link_strengths_exclusive (State.create ~seed:(seed + 1) ()) ~graph:g ~logs config
  in
  let session () =
    Plan.to_session
      (Shard.links_exclusive (State.create ~seed:(seed + 1) ()) ~graph:g ~logs ~shards:1
         config)
  in
  let w = Wire.create () in
  let _ = Session.run (session ()) ~wire:w in
  let sim_stats = Wire.stats w in
  let fault =
    Fault.seeded (State.create ~seed:4242 ()) ~drop:0.01 ~delay:0.02 ~max_delay:0.05
  in
  let trace = Spe_obs.Trace.create () in
  let (result : Protocol4.result), res =
    Endpoint.run_session_memory ~config:fast ~fault ~trace (session ())
  in
  Alcotest.(check bool) "lossy memory links: result bit-identical to the central oracle"
    true
    (result = central.Driver.detail);
  Alcotest.(check bool) "lossy memory links: NR/NM/MS identical to sim" true
    (Wire.stats (Net_wire.merge (logs_of res)) = sim_stats);
  let report =
    Spe_obs.Metrics.of_trace ~protocol:"links" ~engine:"memory" ~parties:(m + 1) trace
  in
  Alcotest.(check bool) "the seed produced losses and recoveries" true
    (report.Spe_obs.Metrics.faults_dropped >= 1
    && report.Spe_obs.Metrics.retransmits >= 1);
  let totals = Net_wire.totals (logs_of res) in
  let rounds =
    Array.fold_left (fun acc o -> max acc o.Endpoint.rounds) 0 res.Endpoint.outcomes
  in
  Alcotest.(check bool) "transport bytes at or above the closed form" true
    (res.Endpoint.transport_bytes
    >= expected_transport_bytes ~m:(m + 1) ~rounds
         ~data_framed:totals.Net_wire.framed_bytes ~hellos:false)

(* ------------------------------------------------------------------------------ *)

let () =
  Alcotest.run "spe_net"
    [
      ( "frame",
        [
          Alcotest.test_case "round trips" `Quick test_frame_roundtrips;
          Alcotest.test_case "rejects garbage" `Quick test_frame_rejects_garbage;
          Alcotest.test_case "payload length matches runtime" `Quick
            test_frame_payload_length_matches_runtime;
          Alcotest.test_case "encode_into allocates nothing" `Quick
            test_frame_encode_into_zero_alloc;
          Alcotest.test_case "montgomery pow allocation is flat in the exponent" `Quick
            test_montgomery_pow_alloc_flat;
          Alcotest.test_case "rsa-256 decryption allocation bound" `Quick
            test_rsa_decrypt_alloc_bound;
        ] );
      ( "reactor",
        [
          Alcotest.test_case "cancel releases timer closures" `Quick
            test_reactor_cancel_releases_closures;
        ] );
      ( "transport",
        [
          Alcotest.test_case "memory delivery" `Quick test_memory_transport_delivers;
          Alcotest.test_case "socket delivery" `Quick test_socket_transport_delivers;
          Alcotest.test_case "link batches a turn and dies on bad frames" `Quick
            test_link_batches_and_kills;
          Alcotest.test_case "read_frame bounded by bytes and deadline" `Quick
            test_read_frame_bounded;
        ] );
      ( "endpoint",
        [
          Alcotest.test_case "quiescent round not charged" `Quick
            test_endpoint_quiescent_round_not_charged;
          Alcotest.test_case "non-termination" `Quick test_endpoint_nontermination_detected;
          Alcotest.test_case "unknown destination" `Quick
            test_endpoint_rejects_unknown_destination;
          Alcotest.test_case "forged source" `Quick test_endpoint_rejects_forged_source;
        ] );
      ( "protocols",
        [
          Alcotest.test_case "protocol 1 over memory" `Quick test_p1_memory_matches_sim;
          Alcotest.test_case "protocol 1 over sockets" `Quick test_p1_socket_matches_sim;
          Alcotest.test_case "protocol 2 over memory" `Quick test_p2_memory_matches_sim;
          Alcotest.test_case "protocol 2 over sockets" `Quick test_p2_socket_matches_sim;
          Alcotest.test_case "protocol 3 across engines" `Quick test_p3_cross_engine;
        ] );
      ( "pipelines",
        [
          Alcotest.test_case "links across engines" `Quick test_links_cross_engine;
          Alcotest.test_case "scores across engines" `Quick test_scores_cross_engine;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "memory bytes" `Quick test_memory_byte_accounting;
          Alcotest.test_case "socket bytes" `Quick test_socket_byte_accounting;
        ] );
      ( "faults",
        [
          Alcotest.test_case "drop triggers retransmit" `Quick
            test_dropped_frames_are_retransmitted;
          Alcotest.test_case "delay reorders and recovers" `Quick
            test_delayed_frame_reorders_and_recovers;
          Alcotest.test_case "blackhole times out cleanly" `Quick
            test_blackhole_times_out_cleanly;
          Alcotest.test_case "links pipeline under seeded loss" `Quick
            test_links_seeded_faults_memory;
        ] );
      ( "sharding",
        [
          Alcotest.test_case "sharded links over pools" `Quick
            test_sharded_links_pool_cross_engine;
          Alcotest.test_case "sharded non-exclusive links over pools" `Quick
            test_sharded_links_non_exclusive_pool_cross_engine;
          Alcotest.test_case "sharded scores over pools" `Quick
            test_sharded_scores_pool_cross_engine;
          Alcotest.test_case "memory = socket = sim at every k" `Quick
            test_memory_socket_sim_k_sweep;
          Alcotest.test_case "200-session stage past FD_SETSIZE" `Quick
            test_wide_stage_past_fd_setsize;
          Alcotest.test_case "stalled shard cancels siblings" `Quick
            test_pool_stall_cancels_siblings;
        ] );
      ( "properties",
        List.map
          (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 1717 |]))
          (qcheck_frame_tests @ qcheck_reactor_tests) );
    ]
