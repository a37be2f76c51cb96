(* Tests for the crypto substrate: Miller-Rabin against a known prime
   table, RSA and Paillier round-trips and homomorphic laws, and the
   shift cipher's window-membership property that Protocol 5's enhanced
   obfuscation relies on. *)

module Nat = Spe_bignum.Nat
module State = Spe_rng.State
module Prime = Spe_crypto.Prime
module Rsa = Spe_crypto.Rsa
module Paillier = Spe_crypto.Paillier
module Shift_cipher = Spe_crypto.Shift_cipher
module Cipher = Spe_crypto.Cipher

let nat = Alcotest.testable Nat.pp Nat.equal
let st () = State.create ~seed:11 ()

(* --- primality --------------------------------------------------------- *)

let test_small_primes_table () =
  Alcotest.(check int) "pi(1000) = 168" 168 (Array.length Prime.small_primes);
  Alcotest.(check int) "first prime" 2 Prime.small_primes.(0);
  Alcotest.(check int) "last prime below 1000" 997 Prime.small_primes.(167)

let test_is_prime_small_oracle () =
  let s = st () in
  (* Sieve oracle below 10_000 exercises both the trial-division fast
     path and Miller-Rabin (values above 997^2 skip the table; values
     in (1000, 10000) are composite-detected by trial division or MR). *)
  let limit = 10_000 in
  let composite = Array.make (limit + 1) false in
  for i = 2 to limit do
    if not composite.(i) then begin
      let j = ref (i * i) in
      while !j <= limit do
        composite.(!j) <- true;
        j := !j + i
      done
    end
  done;
  for v = 0 to limit do
    let expected = v >= 2 && not composite.(v) in
    if Prime.is_prime s (Nat.of_int v) <> expected then
      Alcotest.failf "is_prime wrong on %d" v
  done

let test_is_prime_known_large () =
  let s = st () in
  (* 2^89 - 1 is a Mersenne prime; 2^67 - 1 is famously composite. *)
  let mersenne k = Nat.pred (Nat.shift_left Nat.one k) in
  Alcotest.(check bool) "M89 prime" true (Prime.is_prime s (mersenne 89));
  Alcotest.(check bool) "M107 prime" true (Prime.is_prime s (mersenne 107));
  Alcotest.(check bool) "M67 composite" false (Prime.is_prime s (mersenne 67));
  Alcotest.(check bool) "M97 composite" false (Prime.is_prime s (mersenne 97))

let test_is_prime_carmichael () =
  let s = st () in
  (* Carmichael numbers fool Fermat but not Miller-Rabin. *)
  List.iter
    (fun v ->
      Alcotest.(check bool) (string_of_int v) false (Prime.is_prime s (Nat.of_int v)))
    [ 561; 1105; 1729; 2465; 2821; 6601; 8911; 41041; 62745; 162401 ]

let test_random_prime_size_and_primality () =
  let s = st () in
  List.iter
    (fun bits ->
      let p = Prime.random_prime s ~bits in
      Alcotest.(check int) "bit length" bits (Nat.bit_length p);
      Alcotest.(check bool) "is prime" true (Prime.is_prime s p))
    [ 2; 3; 8; 16; 64; 128; 256 ]

(* --- RSA ---------------------------------------------------------------- *)

let test_rsa_roundtrip () =
  let s = st () in
  let kp = Rsa.generate s ~bits:256 in
  for _ = 1 to 50 do
    let m = Nat.random_below s kp.Rsa.public.Rsa.n in
    Alcotest.check nat "dec(enc(m)) = m" m
      (Rsa.decrypt kp.Rsa.secret (Rsa.encrypt kp.Rsa.public m))
  done

let test_rsa_full_size () =
  let s = st () in
  let kp = Rsa.generate s ~bits:1024 in
  Alcotest.(check int) "modulus has 1024 bits" 1024 (Nat.bit_length kp.Rsa.public.Rsa.n);
  let m = Nat.of_string "123456789123456789123456789" in
  Alcotest.check nat "1024-bit roundtrip" m
    (Rsa.decrypt kp.Rsa.secret (Rsa.encrypt kp.Rsa.public m));
  Alcotest.(check int) "ciphertext_bits matches modulus" 1024
    (Rsa.ciphertext_bits kp.Rsa.public)

let test_rsa_plaintext_too_large () =
  let s = st () in
  let kp = Rsa.generate s ~bits:64 in
  Alcotest.check_raises "m >= n rejected"
    (Invalid_argument "Rsa.encrypt: plaintext exceeds modulus")
    (fun () -> ignore (Rsa.encrypt kp.Rsa.public kp.Rsa.public.Rsa.n))

let test_rsa_multiplicative () =
  (* Textbook RSA is multiplicatively homomorphic: E(a)E(b) = E(ab). *)
  let s = st () in
  let kp = Rsa.generate s ~bits:128 in
  let pk = kp.Rsa.public in
  let a = Nat.of_int 1234 and b = Nat.of_int 5678 in
  let prod = Nat.rem (Nat.mul (Rsa.encrypt pk a) (Rsa.encrypt pk b)) pk.Rsa.n in
  Alcotest.check nat "multiplicative" (Nat.of_int (1234 * 5678))
    (Rsa.decrypt kp.Rsa.secret prod)

let test_rsa_crt_equals_plain () =
  let s = st () in
  let kp = Rsa.generate s ~bits:256 in
  Alcotest.(check bool) "generated key carries CRT constants" true
    (kp.Rsa.secret.Rsa.crt <> None);
  let dec_crt = Rsa.decryptor ~crt:true kp.Rsa.secret in
  let dec_plain = Rsa.decryptor ~crt:false kp.Rsa.secret in
  for _ = 1 to 50 do
    let c = Rsa.encrypt kp.Rsa.public (Nat.random_below s kp.Rsa.public.Rsa.n) in
    Alcotest.check nat "CRT decrypt = full-size decrypt" (dec_plain c) (dec_crt c);
    (* Against the naive oracle too: c^d mod n without Montgomery. *)
    Alcotest.check nat "CRT decrypt = mod_pow oracle"
      (Nat.mod_pow ~base:c ~exp:kp.Rsa.secret.Rsa.d ~modulus:kp.Rsa.secret.Rsa.n)
      (dec_crt c)
  done

let test_rsa_key_too_small () =
  let s = st () in
  (* plain_bits up to bits - 1 is fine; bits wraps and must be typed. *)
  ignore (Rsa.generate ~plain_bits:63 s ~bits:64);
  Alcotest.check_raises "plain_bits = key_bits rejected"
    (Rsa.Key_too_small { key_bits = 64; plain_bits = 64 }) (fun () ->
      ignore (Rsa.generate ~plain_bits:64 s ~bits:64));
  Alcotest.check_raises "non-positive plain_bits rejected"
    (Invalid_argument "Rsa.generate: plain_bits must be positive") (fun () ->
      ignore (Rsa.generate ~plain_bits:0 s ~bits:64))

(* --- Paillier ----------------------------------------------------------- *)

let test_paillier_roundtrip () =
  let s = st () in
  let kp = Paillier.generate s ~bits:128 in
  for _ = 1 to 30 do
    let m = Nat.random_below s kp.Paillier.public.Paillier.n in
    Alcotest.check nat "dec(enc(m)) = m" m
      (Paillier.decrypt kp.Paillier.secret (Paillier.encrypt s kp.Paillier.public m))
  done

let test_paillier_probabilistic () =
  let s = st () in
  let kp = Paillier.generate s ~bits:128 in
  let m = Nat.of_int 9 in
  let c1 = Paillier.encrypt s kp.Paillier.public m in
  let c2 = Paillier.encrypt s kp.Paillier.public m in
  Alcotest.(check bool) "two encryptions of the same value differ" false (Nat.equal c1 c2)

let test_paillier_homomorphic_add () =
  let s = st () in
  let kp = Paillier.generate s ~bits:128 in
  let pk = kp.Paillier.public in
  for _ = 1 to 20 do
    let a = State.next_int s 100_000 and b = State.next_int s 100_000 in
    let c = Paillier.add pk (Paillier.encrypt s pk (Nat.of_int a)) (Paillier.encrypt s pk (Nat.of_int b)) in
    Alcotest.check nat "E(a) + E(b) decrypts to a+b" (Nat.of_int (a + b))
      (Paillier.decrypt kp.Paillier.secret c)
  done

let test_paillier_mul_plain () =
  let s = st () in
  let kp = Paillier.generate s ~bits:128 in
  let pk = kp.Paillier.public in
  let c = Paillier.encrypt s pk (Nat.of_int 21) in
  Alcotest.check nat "2 * E(21) decrypts to 42" (Nat.of_int 42)
    (Paillier.decrypt kp.Paillier.secret (Paillier.mul_plain pk c Nat.two))

let test_paillier_crt_equals_plain () =
  let s = st () in
  let kp = Paillier.generate s ~bits:256 in
  Alcotest.(check bool) "generated key carries CRT constants" true
    (kp.Paillier.secret.Paillier.crt <> None);
  let dec_crt = Paillier.decryptor ~crt:true kp.Paillier.secret in
  let dec_plain = Paillier.decryptor ~crt:false kp.Paillier.secret in
  for _ = 1 to 30 do
    let m = Nat.random_below s kp.Paillier.public.Paillier.n in
    let c = Paillier.encrypt s kp.Paillier.public m in
    Alcotest.check nat "CRT decrypt = lambda/mu decrypt" (dec_plain c) (dec_crt c);
    Alcotest.check nat "CRT decrypt recovers m" m (dec_crt c)
  done

let test_paillier_fixed_base_encryptor () =
  let s = st () in
  let kp = Paillier.generate s ~bits:256 in
  let enc = Paillier.encryptor ~fixed_base:true s kp.Paillier.public in
  let dec = Paillier.decryptor kp.Paillier.secret in
  for _ = 1 to 30 do
    let m = Nat.random_below s kp.Paillier.public.Paillier.n in
    Alcotest.check nat "fixed-base enc roundtrips" m (dec (enc m))
  done;
  (* Still probabilistic: the per-call exponent re-randomises. *)
  let m = Nat.of_int 9 in
  Alcotest.(check bool) "two fixed-base encryptions differ" false
    (Nat.equal (enc m) (enc m));
  (* And agrees with the plain square-and-multiply encryptor modulo
     randomness: both decrypt to the same plaintext. *)
  let enc_plain = Paillier.encryptor ~fixed_base:false s kp.Paillier.public in
  Alcotest.check nat "plain encryptor agrees after decryption" m (dec (enc_plain m))

let test_paillier_key_too_small () =
  let s = st () in
  ignore (Paillier.generate ~plain_bits:63 s ~bits:64);
  (* Paillier.Key_too_small is a rebinding of Rsa.Key_too_small, so the
     same exception value matches through either name. *)
  Alcotest.check_raises "plain_bits = key_bits rejected"
    (Paillier.Key_too_small { key_bits = 64; plain_bits = 64 }) (fun () ->
      ignore (Paillier.generate ~plain_bits:64 s ~bits:64));
  Alcotest.(check bool) "rebinding: same exception constructor" true
    (Paillier.Key_too_small { key_bits = 1; plain_bits = 2 }
    = Rsa.Key_too_small { key_bits = 1; plain_bits = 2 })

(* --- key generation ----------------------------------------------------- *)

let test_keygen_full_width () =
  (* Two bits/2-bit primes multiply to one bit short about four times
     in ten.  Keygen redraws such a pair, so every key has exactly
     [bits] bits and a key built for (bits - 1)-bit plaintexts holds
     the widest one. *)
  List.iter
    (fun bits ->
      let widest = Nat.pred (Nat.shift_left Nat.one (bits - 1)) in
      for seed = 1 to 200 do
        let s = State.create ~seed () in
        let rsa = Rsa.generate ~plain_bits:(bits - 1) s ~bits in
        let pai = Paillier.generate ~plain_bits:(bits - 1) s ~bits in
        let check scheme n_bits roundtrip =
          if n_bits <> bits then
            Alcotest.failf "%s %d-bit key, seed %d: %d-bit modulus" scheme bits seed n_bits;
          if not (Nat.equal widest roundtrip) then
            Alcotest.failf "%s %d-bit key, seed %d: widest plaintext did not round-trip"
              scheme bits seed
        in
        check "rsa"
          (Rsa.ciphertext_bits rsa.Rsa.public)
          (Rsa.decrypt rsa.Rsa.secret (Rsa.encrypt rsa.Rsa.public widest));
        check "paillier"
          (Nat.bit_length pai.Paillier.public.Paillier.n)
          (Paillier.decrypt pai.Paillier.secret (Paillier.encrypt s pai.Paillier.public widest))
      done)
    [ 64; 256 ]

(* Seeded keys in hex, taken before the Montgomery kernel was rewritten:
   the arithmetic under keygen must not change its random draws, and so
   must not change any seeded ciphertext downstream. *)
let test_golden_keys () =
  let pin label expect got = Alcotest.(check string) label expect (Nat.to_hex got) in
  List.iter
    (fun (bits, seed, n, d, p, q) ->
      let kp = Rsa.generate (State.create ~seed ()) ~bits in
      let crt = Option.get kp.Rsa.secret.Rsa.crt in
      let label what = Printf.sprintf "rsa-%d seed %d %s" bits seed what in
      pin (label "n") n kp.Rsa.public.Rsa.n;
      pin (label "d") d kp.Rsa.secret.Rsa.d;
      pin (label "p") p crt.Rsa.p;
      pin (label "q") q crt.Rsa.q)
    [
      (* Seed 1's first pair was one bit short and is redrawn. *)
      ( 256, 1,
        "b45f408cfc916b729d7a4a9a80ad1e09b42f149c717f732499b13cbcd5d90b61",
        "926b002b729b596da10834a756ed3103ada746355ec056657f55daf716e1bf1",
        "fea56fdfca9f182896687d5dd26ad02d", "b554bb286adf2cfde8f9a06f53b0f485" );
      ( 256, 2,
        "8946b18d48d47be77f4230a3f729ee887460c9951da86157d93fa10fd1a5111d",
        "61d6146cd15f3eff7a5f3e335dd070c3986dd04c5f3c1d22afa9fd0417b6d3b1",
        "9d2b52277f2447c92ef04b01df4673e7", "df9909ee398316de0613e5e1fc7b725b" );
      ( 1024, 1,
        "ee17d9d8f1820ae99c14084084b6450177f98c27e5acd8337b763134e533dc74\
         d971826f692d83fede54e0f66c426e14df44a71daadb2d11723d5aaef8cb2ff0\
         fc40b52fb9c32c72257f1b7e8175e8fcc8162c3f17529b12a283903626962d6d\
         2dc92bb8698b59e025f63ab01d2297a6641cb36eda197d5914879effbc82048f",
        "7a0170d9919050e53adcad09dab7c80ea39b15ee0fec8d717c2fa9b1704e2e07\
         16b1eae40a628f84180c28a73dfca08a438adb94014c8500aea8b0027f6d2767\
         f9cdc2ba9ade7a0354d4ae1c3d62589b9dc98917c9075894ac23aeb0701b181e\
         a4d0840fb94b57d852a75d5edf72c8b02f4825244bb3dcc6530330f8e471e3b9",
        "fd9a6a6162ff0400e713bcc1b532ad61fde53831a020e109e5b8c77752197c80\
         bca6afb4359f834529a5cde1854d6cba9f33d91aa85a5d10612ca5cef448c023",
        "f057e8d1835c0f7c86e3e9586a6d01a3ef2d287526c39425ed7dfe0946e14417\
         e8821783a3cb62f408567e1fdac98aac29f4cf593a0427ce6e4ba8baebd4faa5" );
    ];
  List.iter
    (fun (seed, n, lambda, p, q) ->
      let kp = Paillier.generate (State.create ~seed ()) ~bits:256 in
      let crt = Option.get kp.Paillier.secret.Paillier.crt in
      let label what = Printf.sprintf "paillier-256 seed %d %s" seed what in
      pin (label "n") n kp.Paillier.public.Paillier.n;
      pin (label "lambda") lambda kp.Paillier.secret.Paillier.lambda;
      pin (label "p") p crt.Paillier.p;
      pin (label "q") q crt.Paillier.q)
    [
      (* Seed 4's first pair was one bit short and is redrawn. *)
      ( 4, "8c2246f2c9e05fae3317bfa3b2fbfa64e6440fc98c743118025f4f0fb971e7b3",
        "8c2246f2c9e05fae3317bfa3b2fbfa636b6007bd59aa214c3ed3579d0ef495b8",
        "b989909e891644010b7aad307865bef5", "c15a776da9b3cbcab8114a4232179307" );
      ( 6, "a20d537757458e0a51748e80ee17eaa669d4e1e09f78bdb644f12181f33d4c79",
        "a20d537757458e0a51748e80ee17eaa4c8bc4717debb4c412325489d1ed5bc64",
        "a3bfb705cab6882781dfc5d9b12b396b", "fd58e3c2f606e94d9fec130b233c56ab" );
    ]

(* --- shift cipher ------------------------------------------------------- *)

let test_shift_roundtrip () =
  let s = st () in
  for _ = 1 to 50 do
    let period = 2 + State.next_int s 1000 in
    let c = Shift_cipher.random s ~period in
    for _ = 1 to 20 do
      let t = State.next_int s period in
      Alcotest.(check int) "dec(enc(t)) = t" t (Shift_cipher.decrypt c (Shift_cipher.encrypt c t))
    done
  done

let test_shift_follows_within () =
  (* The window test on ciphertexts must agree with the plaintext
     condition t < t' <= t + h whenever no true record lives in the
     last h slots (the paper's premise for inequality (12)). *)
  let s = st () in
  let horizon = 50 and h = 5 in
  let period = horizon + h in
  for _ = 1 to 20 do
    let c = Shift_cipher.random s ~period in
    for t = 0 to horizon - 1 do
      for t' = 0 to horizon - 1 do
        let plain = t' > t && t' <= t + h in
        let ciph =
          Shift_cipher.follows_within c ~h (Shift_cipher.encrypt c t) (Shift_cipher.encrypt c t')
        in
        if plain <> ciph then Alcotest.failf "window mismatch at t=%d t'=%d" t t'
      done
    done
  done

let test_shift_invalid () =
  Alcotest.check_raises "bad period"
    (Invalid_argument "Shift_cipher.create: period must be positive")
    (fun () -> ignore (Shift_cipher.create ~key:0 ~period:0));
  Alcotest.check_raises "key out of range"
    (Invalid_argument "Shift_cipher.create: key out of range")
    (fun () -> ignore (Shift_cipher.create ~key:5 ~period:5))

(* --- cipher facade ------------------------------------------------------ *)

let test_cipher_rsa () =
  let s = st () in
  let c = Cipher.rsa s ~bits:128 in
  List.iter
    (fun m -> Alcotest.(check int) "roundtrip" m (c.Cipher.decrypt_int (c.Cipher.public.Cipher.encrypt_int m)))
    [ 0; 1; 42; 1000; 999_983 ];
  Alcotest.(check bool) "z near modulus size" true (c.Cipher.public.Cipher.ciphertext_bits >= 127)

let test_cipher_paillier () =
  let s = st () in
  let c = Cipher.paillier s ~bits:128 in
  List.iter
    (fun m -> Alcotest.(check int) "roundtrip" m (c.Cipher.decrypt_int (c.Cipher.public.Cipher.encrypt_int m)))
    [ 0; 1; 42; 1000 ];
  Alcotest.(check bool) "z near 2x modulus size" true
    (c.Cipher.public.Cipher.ciphertext_bits >= 255)

let test_cipher_accel_off_roundtrips () =
  (* ~accel:false swaps in the unaccelerated reference pipeline
     (no CRT, no fixed-base, no hoisted contexts); the facade contract
     is unchanged. *)
  let s = st () in
  List.iter
    (fun c ->
      List.iter
        (fun m ->
          Alcotest.(check int) "roundtrip" m
            (c.Cipher.decrypt_int (c.Cipher.public.Cipher.encrypt_int m)))
        [ 0; 1; 42; 999_983 ])
    [ Cipher.rsa ~accel:false s ~bits:128; Cipher.paillier ~accel:false s ~bits:128 ]

let test_cipher_rejects_negative () =
  let s = st () in
  let c = Cipher.rsa s ~bits:64 in
  Alcotest.check_raises "negative plaintext"
    (Invalid_argument "Cipher.encrypt_int: negative plaintext")
    (fun () -> ignore (c.Cipher.public.Cipher.encrypt_int (-1)))

(* The accelerated RSA facade keeps each key's results: a repeat returns
   the first call's value without an exponentiation, and a call that
   raises stores nothing, so it raises again. *)
let test_cipher_rsa_memo_repeat () =
  let c = Cipher.rsa (st ()) ~bits:128 in
  let first = c.Cipher.public.Cipher.encrypt_int 7 in
  Alcotest.(check bool) "second encryption is the first ciphertext" true
    (c.Cipher.public.Cipher.encrypt_int 7 == first);
  Alcotest.(check int) "decrypts" 7 (c.Cipher.decrypt_int first);
  Alcotest.(check int) "decrypts again" 7 (c.Cipher.decrypt_int first)

let twice what exn f =
  Alcotest.check_raises (what ^ ", first call") exn f;
  Alcotest.check_raises (what ^ ", second call") exn f

let test_cipher_rsa_memo_raises_again () =
  let seed = 29 in
  let c = Cipher.rsa (State.create ~seed ()) ~bits:32 in
  let kp = Rsa.generate (State.create ~seed ()) ~bits:32 in
  let n = Nat.to_int_exn kp.Rsa.public.Rsa.n in
  let encrypt m () = ignore (c.Cipher.public.Cipher.encrypt_int m) in
  twice "negative plaintext" (Invalid_argument "Cipher.encrypt_int: negative plaintext")
    (encrypt (-1));
  twice "plaintext = n" (Invalid_argument "Rsa.encrypt: plaintext exceeds modulus") (encrypt n);
  Alcotest.(check int) "n - 1 round-trips" (n - 1)
    (c.Cipher.decrypt_int (c.Cipher.public.Cipher.encrypt_int (n - 1)))

let test_cipher_rsa_memo_wide_plaintext () =
  let seed = 31 in
  let c = Cipher.rsa (State.create ~seed ()) ~bits:128 in
  let kp = Rsa.generate (State.create ~seed ()) ~bits:128 in
  let wide = Rsa.encrypt kp.Rsa.public (Nat.shift_left Nat.one 100) in
  twice "plaintext past max_int" (Failure "Nat.to_int_exn: value exceeds max_int") (fun () ->
      ignore (c.Cipher.decrypt_int wide))

let test_cipher_paillier_randomized () =
  let c = Cipher.paillier (st ()) ~bits:128 in
  let a = c.Cipher.public.Cipher.encrypt_int 7 and b = c.Cipher.public.Cipher.encrypt_int 7 in
  Alcotest.(check bool) "two encryptions of 7 differ" false (Nat.equal a b);
  Alcotest.(check (pair int int)) "both decrypt" (7, 7) (c.Cipher.decrypt_int a, c.Cipher.decrypt_int b)

(* --- QCheck properties -------------------------------------------------- *)

let qcheck_tests =
  let open QCheck in
  let s_global = st () in
  let kp = Rsa.generate s_global ~bits:128 in
  let pkp = Paillier.generate s_global ~bits:128 in
  [
    Test.make ~name:"rsa roundtrip on random ints" ~count:100 (int_range 0 1_000_000_000)
      (fun m ->
        let m = Nat.of_int m in
        Nat.equal m (Rsa.decrypt kp.Rsa.secret (Rsa.encrypt kp.Rsa.public m)));
    Test.make ~name:"paillier additive law" ~count:50
      (pair (int_range 0 1_000_000) (int_range 0 1_000_000))
      (fun (a, b) ->
        let pk = pkp.Paillier.public in
        let c =
          Paillier.add pk
            (Paillier.encrypt s_global pk (Nat.of_int a))
            (Paillier.encrypt s_global pk (Nat.of_int b))
        in
        Nat.equal (Nat.of_int (a + b)) (Paillier.decrypt pkp.Paillier.secret c));
    Test.make ~name:"rsa CRT decrypt = plain decrypt" ~count:60 (int_range 0 1_000_000_000)
      (fun m ->
        let c = Rsa.encrypt kp.Rsa.public (Nat.of_int m) in
        Nat.equal
          (Rsa.decryptor ~crt:false kp.Rsa.secret c)
          (Rsa.decryptor ~crt:true kp.Rsa.secret c));
    Test.make ~name:"paillier CRT decrypt = plain decrypt" ~count:40
      (int_range 0 1_000_000_000)
      (fun m ->
        let c = Paillier.encrypt s_global pkp.Paillier.public (Nat.of_int m) in
        Nat.equal
          (Paillier.decryptor ~crt:false pkp.Paillier.secret c)
          (Paillier.decryptor ~crt:true pkp.Paillier.secret c));
    Test.make ~name:"shift cipher preserves gaps" ~count:200
      (triple (int_range 1 500) (int_range 0 10_000) (int_range 0 10_000))
      (fun (key_seed, t1, t2) ->
        let period = 20_000 in
        let c = Shift_cipher.create ~key:(key_seed mod period) ~period in
        let e1 = Shift_cipher.encrypt c t1 and e2 = Shift_cipher.encrypt c t2 in
        (e2 - e1 + period) mod period = (t2 - t1 + period) mod period);
    (* Plaintexts from a small range, so most lists repeat values. *)
    Test.make ~name:"memoized rsa facade = Rsa encryptor and decryptor" ~count:40
      (pair small_nat (list_of_size (Gen.int_range 1 60) (int_range 0 9)))
      (fun (seed, plains) ->
        let c = Cipher.rsa (State.create ~seed ()) ~bits:128 in
        let kp = Rsa.generate (State.create ~seed ()) ~bits:128 in
        let encrypt = Rsa.encryptor kp.Rsa.public and decrypt = Rsa.decryptor kp.Rsa.secret in
        List.for_all
          (fun m ->
            let ct = c.Cipher.public.Cipher.encrypt_int m in
            Nat.equal ct (encrypt (Nat.of_int m))
            && c.Cipher.decrypt_int ct = Nat.to_int_exn (decrypt ct))
          plains);
  ]

let () =
  Alcotest.run "spe_crypto"
    [
      ( "prime",
        [
          Alcotest.test_case "small prime table" `Quick test_small_primes_table;
          Alcotest.test_case "sieve oracle" `Quick test_is_prime_small_oracle;
          Alcotest.test_case "known large primes" `Quick test_is_prime_known_large;
          Alcotest.test_case "carmichael numbers" `Quick test_is_prime_carmichael;
          Alcotest.test_case "random prime sizes" `Quick test_random_prime_size_and_primality;
        ] );
      ( "rsa",
        [
          Alcotest.test_case "roundtrip" `Quick test_rsa_roundtrip;
          Alcotest.test_case "1024-bit keys" `Slow test_rsa_full_size;
          Alcotest.test_case "oversized plaintext" `Quick test_rsa_plaintext_too_large;
          Alcotest.test_case "multiplicative property" `Quick test_rsa_multiplicative;
          Alcotest.test_case "CRT decrypt equality" `Quick test_rsa_crt_equals_plain;
          Alcotest.test_case "key too small" `Quick test_rsa_key_too_small;
        ] );
      ( "paillier",
        [
          Alcotest.test_case "roundtrip" `Quick test_paillier_roundtrip;
          Alcotest.test_case "probabilistic" `Quick test_paillier_probabilistic;
          Alcotest.test_case "homomorphic add" `Quick test_paillier_homomorphic_add;
          Alcotest.test_case "plaintext multiply" `Quick test_paillier_mul_plain;
          Alcotest.test_case "CRT decrypt equality" `Quick test_paillier_crt_equals_plain;
          Alcotest.test_case "fixed-base encryptor" `Quick test_paillier_fixed_base_encryptor;
          Alcotest.test_case "key too small" `Quick test_paillier_key_too_small;
        ] );
      ( "keygen",
        [
          Alcotest.test_case "full-width modulus over 200 seeds" `Quick
            test_keygen_full_width;
          Alcotest.test_case "golden seeded keys" `Quick test_golden_keys;
        ] );
      ( "shift-cipher",
        [
          Alcotest.test_case "roundtrip" `Quick test_shift_roundtrip;
          Alcotest.test_case "window membership" `Quick test_shift_follows_within;
          Alcotest.test_case "invalid params" `Quick test_shift_invalid;
        ] );
      ( "cipher",
        [
          Alcotest.test_case "rsa facade" `Quick test_cipher_rsa;
          Alcotest.test_case "paillier facade" `Quick test_cipher_paillier;
          Alcotest.test_case "accel off" `Quick test_cipher_accel_off_roundtrips;
          Alcotest.test_case "negative plaintext" `Quick test_cipher_rejects_negative;
          Alcotest.test_case "rsa repeat skips the exponentiation" `Quick
            test_cipher_rsa_memo_repeat;
          Alcotest.test_case "rsa bad plaintext raises on every call" `Quick
            test_cipher_rsa_memo_raises_again;
          Alcotest.test_case "rsa wide plaintext raises on every call" `Quick
            test_cipher_rsa_memo_wide_plaintext;
          Alcotest.test_case "paillier stays randomized" `Quick test_cipher_paillier_randomized;
        ] );
      ("properties", List.map (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 4242 |])) qcheck_tests);
    ]
