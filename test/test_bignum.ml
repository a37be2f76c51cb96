(* Tests for the bignum substrate: oracle tests against native int
   arithmetic on small values, algebraic laws on large random values,
   division invariants (Knuth D), string round-trips, and known
   number-theoretic identities. *)

module Nat = Spe_bignum.Nat
module Bigint = Spe_bignum.Bigint
module State = Spe_rng.State

let nat = Alcotest.testable Nat.pp Nat.equal
let bigint = Alcotest.testable Bigint.pp Bigint.equal

let st () = State.create ~seed:7 ()

(* Random Nat with the given approximate number of bits. *)
let rand_nat st bits = Nat.random_bits st bits

(* --- basic construction ---------------------------------------------- *)

let test_of_to_int () =
  List.iter
    (fun x ->
      Alcotest.(check (option int)) (string_of_int x) (Some x) (Nat.to_int (Nat.of_int x)))
    [ 0; 1; 2; 42; 1 lsl 29; (1 lsl 30) - 1; 1 lsl 30; 1 lsl 31; max_int; max_int - 1 ]

let test_of_int_negative () =
  Alcotest.check_raises "negative rejected" (Invalid_argument "Nat.of_int: negative")
    (fun () -> ignore (Nat.of_int (-1)))

let test_to_int_overflow () =
  let big = Nat.mul (Nat.of_int max_int) (Nat.of_int 2) in
  Alcotest.(check (option int)) "too big" None (Nat.to_int big)

let test_string_roundtrip_known () =
  List.iter
    (fun s -> Alcotest.(check string) s s Nat.(to_string (of_string s)))
    [
      "0"; "1"; "999999999"; "1000000000"; "123456789012345678901234567890";
      "340282366920938463463374607431768211456" (* 2^128 *);
    ]

let test_hex_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s Nat.(to_hex (of_hex s)))
    [ "0"; "1"; "ff"; "deadbeef"; "123456789abcdef0123456789abcdef" ]

let test_hex_decimal_agree () =
  Alcotest.check nat "0x100 = 256" (Nat.of_int 256) (Nat.of_hex "100");
  Alcotest.check nat "2^64" (Nat.of_string "18446744073709551616") (Nat.of_hex "10000000000000000")

(* --- arithmetic oracle (values fit in int) ---------------------------- *)

let test_small_oracle () =
  let s = st () in
  for _ = 1 to 2000 do
    let a = State.next_int s (1 lsl 30) and b = State.next_int s (1 lsl 30) in
    let na = Nat.of_int a and nb = Nat.of_int b in
    Alcotest.(check (option int)) "add" (Some (a + b)) (Nat.to_int (Nat.add na nb));
    Alcotest.(check (option int)) "mul" (Some (a * b)) (Nat.to_int (Nat.mul na nb));
    let hi = max a b and lo = min a b in
    Alcotest.(check (option int)) "sub" (Some (hi - lo))
      (Nat.to_int (Nat.sub (Nat.of_int hi) (Nat.of_int lo)));
    if b > 0 then begin
      let q, r = Nat.divmod na nb in
      Alcotest.(check (option int)) "div" (Some (a / b)) (Nat.to_int q);
      Alcotest.(check (option int)) "rem" (Some (a mod b)) (Nat.to_int r)
    end
  done

let test_sub_negative_raises () =
  Alcotest.check_raises "1 - 2 rejected" (Invalid_argument "Nat.sub: negative result")
    (fun () -> ignore (Nat.sub Nat.one Nat.two))

let test_divmod_by_zero () =
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Nat.divmod Nat.one Nat.zero))

(* --- algebraic laws on large values ----------------------------------- *)

let test_mul_karatsuba_matches_schoolbook () =
  (* Cross the karatsuba threshold: multiply values of ~ 40 limbs. *)
  let s = st () in
  for _ = 1 to 20 do
    let a = rand_nat s 1200 and b = rand_nat s 1200 in
    (* (a + b)^2 = a^2 + 2ab + b^2 exercises both paths consistently. *)
    let lhs = Nat.mul (Nat.add a b) (Nat.add a b) in
    let rhs =
      Nat.add (Nat.mul a a) (Nat.add (Nat.mul Nat.two (Nat.mul a b)) (Nat.mul b b))
    in
    Alcotest.check nat "binomial identity" lhs rhs
  done

let test_divmod_reconstruction () =
  let s = st () in
  for _ = 1 to 200 do
    let a = rand_nat s 700 in
    let b = Nat.succ (rand_nat s 300) in
    let q, r = Nat.divmod a b in
    Alcotest.check nat "a = q*b + r" a (Nat.add (Nat.mul q b) r);
    Alcotest.(check bool) "r < b" true (Nat.compare r b < 0)
  done

let test_divmod_edge_shapes () =
  (* Divisors engineered to stress the qhat correction path: top limb
     just below a power of two, repeated max limbs. *)
  let b30 = Nat.pred (Nat.shift_left Nat.one 30) in
  let pathological =
    [
      (Nat.shift_left Nat.one 300, Nat.pred (Nat.shift_left Nat.one 150));
      (Nat.pred (Nat.shift_left Nat.one 240), Nat.succ (Nat.shift_left Nat.one 120));
      (Nat.mul b30 (Nat.shift_left b30 60), Nat.succ (Nat.shift_left b30 30));
      (Nat.shift_left Nat.one 600, Nat.succ (Nat.shift_left Nat.one 300));
    ]
  in
  List.iter
    (fun (a, b) ->
      let q, r = Nat.divmod a b in
      Alcotest.check nat "a = q*b + r" a (Nat.add (Nat.mul q b) r);
      Alcotest.(check bool) "r < b" true (Nat.compare r b < 0))
    pathological

let test_shift_roundtrip () =
  let s = st () in
  for _ = 1 to 100 do
    let a = rand_nat s 200 in
    let k = State.next_int s 100 in
    Alcotest.check nat "shift round trip" a (Nat.shift_right (Nat.shift_left a k) k);
    Alcotest.check nat "shift_left = mul 2^k"
      (Nat.shift_left a k)
      (Nat.mul a (Nat.shift_left Nat.one k))
  done

let test_bit_length () =
  Alcotest.(check int) "bits of 0" 0 (Nat.bit_length Nat.zero);
  Alcotest.(check int) "bits of 1" 1 (Nat.bit_length Nat.one);
  Alcotest.(check int) "bits of 255" 8 (Nat.bit_length (Nat.of_int 255));
  Alcotest.(check int) "bits of 256" 9 (Nat.bit_length (Nat.of_int 256));
  Alcotest.(check int) "bits of 2^100" 101 (Nat.bit_length (Nat.shift_left Nat.one 100))

let test_test_bit () =
  let v = Nat.of_int 0b1011 in
  Alcotest.(check bool) "bit 0" true (Nat.test_bit v 0);
  Alcotest.(check bool) "bit 1" true (Nat.test_bit v 1);
  Alcotest.(check bool) "bit 2" false (Nat.test_bit v 2);
  Alcotest.(check bool) "bit 3" true (Nat.test_bit v 3);
  Alcotest.(check bool) "bit 100" false (Nat.test_bit v 100)

let test_gcd () =
  let check_int a b =
    let rec g x y = if y = 0 then x else g y (x mod y) in
    Alcotest.(check (option int))
      (Printf.sprintf "gcd %d %d" a b)
      (Some (g a b))
      (Nat.to_int (Nat.gcd (Nat.of_int a) (Nat.of_int b)))
  in
  check_int 12 18;
  check_int 17 5;
  check_int 0 9;
  check_int 100 0;
  check_int 1_000_000 999_983

let test_mod_pow_fermat () =
  (* Fermat: a^(p-1) = 1 mod p for prime p and a not divisible by p. *)
  let p = Nat.of_string "1000000007" in
  let pm1 = Nat.pred p in
  List.iter
    (fun a ->
      Alcotest.check nat "fermat" Nat.one
        (Nat.mod_pow ~base:(Nat.of_int a) ~exp:pm1 ~modulus:p))
    [ 2; 3; 65537; 999999999 ]

let test_mod_pow_oracle () =
  let rec int_pow_mod b e m = if e = 0 then 1 mod m else
    let h = int_pow_mod b (e / 2) m in
    let h2 = h * h mod m in
    if e land 1 = 1 then h2 * b mod m else h2
  in
  let s = st () in
  for _ = 1 to 500 do
    let b = State.next_int s 30_000 and e = State.next_int s 1000 in
    let m = 1 + State.next_int s 30_000 in
    Alcotest.(check (option int))
      (Printf.sprintf "%d^%d mod %d" b e m)
      (Some (int_pow_mod b e m))
      (Nat.to_int (Nat.mod_pow ~base:(Nat.of_int b) ~exp:(Nat.of_int e) ~modulus:(Nat.of_int m)))
  done

let test_mod_pow_mod_one () =
  Alcotest.check nat "x^y mod 1 = 0" Nat.zero
    (Nat.mod_pow ~base:(Nat.of_int 5) ~exp:(Nat.of_int 3) ~modulus:Nat.one)

let test_random_below () =
  let s = st () in
  let bound = Nat.of_string "123456789012345678901234567890" in
  for _ = 1 to 200 do
    let v = Nat.random_below s bound in
    Alcotest.(check bool) "below bound" true (Nat.compare v bound < 0)
  done

let test_random_bits_exact () =
  let s = st () in
  for k = 1 to 100 do
    Alcotest.(check int) "exact bit length" k (Nat.bit_length (Nat.random_bits_exact s k))
  done

(* --- sqrt / lcm / pow ---------------------------------------------------- *)

let test_isqrt_small_oracle () =
  for v = 0 to 10_000 do
    let r = Nat.to_int_exn (Nat.isqrt (Nat.of_int v)) in
    if r * r > v || (r + 1) * (r + 1) <= v then Alcotest.failf "isqrt wrong at %d: %d" v r
  done

let test_isqrt_large () =
  let s = st () in
  for _ = 1 to 100 do
    let r = rand_nat s 300 in
    let n = Nat.mul r r in
    Alcotest.check nat "sqrt of perfect square" r (Nat.isqrt n);
    Alcotest.(check bool) "is_square" true (Nat.is_square n);
    (* n + 1 is not a square (for r >= 1). *)
    if not (Nat.is_zero r) then
      Alcotest.(check bool) "off-by-one not square" false (Nat.is_square (Nat.succ n))
  done

let test_lcm () =
  let check a b expected =
    Alcotest.(check (option int)) (Printf.sprintf "lcm %d %d" a b) (Some expected)
      (Nat.to_int (Nat.lcm (Nat.of_int a) (Nat.of_int b)))
  in
  check 4 6 12;
  check 7 5 35;
  check 0 9 0;
  check 12 12 12

let test_pow () =
  Alcotest.check nat "2^10" (Nat.of_int 1024) (Nat.pow Nat.two 10);
  Alcotest.check nat "x^0" Nat.one (Nat.pow (Nat.of_int 99) 0);
  Alcotest.check nat "0^0 = 1 (convention)" Nat.one (Nat.pow Nat.zero 0);
  Alcotest.check nat "10^30"
    (Nat.of_string "1000000000000000000000000000000")
    (Nat.pow (Nat.of_int 10) 30)

(* --- Montgomery --------------------------------------------------------- *)

module Montgomery = Spe_bignum.Montgomery

let test_montgomery_vs_mod_pow () =
  let s = st () in
  for _ = 1 to 300 do
    let m = Nat.random_bits_exact s (8 + State.next_int s 200) in
    let m = if Nat.is_even m then Nat.succ m else m in
    let ctx = Montgomery.create m in
    let b = Nat.random_below s m and e = Nat.random_bits s 48 in
    Alcotest.check nat "pow agrees with mod_pow"
      (Nat.mod_pow ~base:b ~exp:e ~modulus:m)
      (Montgomery.pow ctx ~base:b ~exp:e)
  done

let test_montgomery_roundtrip () =
  let s = st () in
  let m = Nat.of_string "1000000000000000003" in
  let ctx = Montgomery.create m in
  for _ = 1 to 200 do
    let x = Nat.random_below s m in
    Alcotest.check nat "of_mont (to_mont x) = x" x (Montgomery.of_mont ctx (Montgomery.to_mont ctx x))
  done

let test_montgomery_mul () =
  let s = st () in
  let m = Nat.of_string "987654321987654321987654321987" in
  let ctx = Montgomery.create m in
  for _ = 1 to 200 do
    let a = Nat.random_below s m and b = Nat.random_below s m in
    let got =
      Montgomery.of_mont ctx
        (Montgomery.mul ctx (Montgomery.to_mont ctx a) (Montgomery.to_mont ctx b))
    in
    Alcotest.check nat "mont mul = plain mul mod m" (Nat.rem (Nat.mul a b) m) got
  done

let test_montgomery_edge_exponents () =
  let m = Nat.of_int 101 in
  let ctx = Montgomery.create m in
  Alcotest.check nat "x^0 = 1" Nat.one (Montgomery.pow ctx ~base:(Nat.of_int 7) ~exp:Nat.zero);
  Alcotest.check nat "x^1 = x" (Nat.of_int 7) (Montgomery.pow ctx ~base:(Nat.of_int 7) ~exp:Nat.one);
  Alcotest.check nat "0^e = 0" Nat.zero (Montgomery.pow ctx ~base:Nat.zero ~exp:(Nat.of_int 5));
  Alcotest.check nat "fermat" Nat.one (Montgomery.pow ctx ~base:(Nat.of_int 13) ~exp:(Nat.of_int 100))

let test_montgomery_rejects_even () =
  Alcotest.check_raises "even modulus"
    (Invalid_argument "Montgomery.create: modulus must be odd and >= 3")
    (fun () -> ignore (Montgomery.create (Nat.of_int 100)))

(* --- Fixed-base windows -------------------------------------------------- *)

module Fixed_base = Spe_bignum.Fixed_base

let test_fixed_base_vs_montgomery () =
  let s = st () in
  for _ = 1 to 50 do
    let m = Nat.random_bits_exact s (16 + State.next_int s 150) in
    let m = if Nat.is_even m then Nat.succ m else m in
    let ctx = Montgomery.create m in
    let base = Nat.random_below s m in
    let max_exp_bits = 1 + State.next_int s 80 in
    let t = Fixed_base.create ctx ~base ~max_exp_bits in
    for _ = 1 to 5 do
      let e = Nat.random_bits s max_exp_bits in
      Alcotest.check nat "fixed-base pow = square-and-multiply pow"
        (Montgomery.pow ctx ~base ~exp:e)
        (Fixed_base.pow t e)
    done
  done

let test_fixed_base_windows_agree () =
  (* Every window width walks the same digits of the same exponent. *)
  let s = st () in
  let m = Nat.of_string "987654321987654321987654321987" in
  let ctx = Montgomery.create m in
  let base = Nat.random_below s m in
  let e = Nat.random_bits s 64 in
  let expect = Montgomery.pow ctx ~base ~exp:e in
  List.iter
    (fun window ->
      let t = Fixed_base.create ~window ctx ~base ~max_exp_bits:64 in
      Alcotest.check nat (Printf.sprintf "window %d" window) expect (Fixed_base.pow t e))
    [ 1; 2; 3; 4; 5; 8 ]

let test_fixed_base_edges () =
  let m = Nat.of_int 101 in
  let ctx = Montgomery.create m in
  let t = Fixed_base.create ctx ~base:(Nat.of_int 7) ~max_exp_bits:16 in
  Alcotest.check nat "x^0 = 1" Nat.one (Fixed_base.pow t Nat.zero);
  Alcotest.check nat "x^1 = x" (Nat.of_int 7) (Fixed_base.pow t Nat.one);
  Alcotest.check nat "fermat" Nat.one (Fixed_base.pow t (Nat.of_int 100));
  Alcotest.check_raises "exponent wider than table"
    (Invalid_argument "Fixed_base.pow: exponent exceeds table") (fun () ->
      ignore (Fixed_base.pow t (Nat.shift_left Nat.one 16)));
  Alcotest.check_raises "window out of range"
    (Invalid_argument "Fixed_base.create: window must be in [1, 8]") (fun () ->
      ignore (Fixed_base.create ~window:9 ctx ~base:(Nat.of_int 7) ~max_exp_bits:16))

(* --- Bigint ------------------------------------------------------------ *)

let test_bigint_oracle () =
  let s = st () in
  for _ = 1 to 2000 do
    let a = State.next_int s 2_000_000 - 1_000_000 in
    let b = State.next_int s 2_000_000 - 1_000_000 in
    let ba = Bigint.of_int a and bb = Bigint.of_int b in
    Alcotest.(check (option int)) "add" (Some (a + b)) (Bigint.to_int (Bigint.add ba bb));
    Alcotest.(check (option int)) "sub" (Some (a - b)) (Bigint.to_int (Bigint.sub ba bb));
    Alcotest.(check (option int)) "mul" (Some (a * b)) (Bigint.to_int (Bigint.mul ba bb));
    if b <> 0 then begin
      let q, r = Bigint.divmod ba bb in
      (* OCaml's (/) and (mod) are truncated like ours. *)
      Alcotest.(check (option int)) "div" (Some (a / b)) (Bigint.to_int q);
      Alcotest.(check (option int)) "rem" (Some (a mod b)) (Bigint.to_int r);
      let e = Bigint.erem ba bb in
      (match Bigint.to_int e with
      | Some ev -> if ev < 0 || ev >= abs b then Alcotest.fail "erem out of [0,|b|)"
      | None -> Alcotest.fail "erem overflow")
    end
  done

let test_bigint_string () =
  List.iter
    (fun s -> Alcotest.(check string) s s Bigint.(to_string (of_string s)))
    [ "0"; "-1"; "12345678901234567890"; "-98765432109876543210" ]

let test_bigint_neg_abs () =
  let v = Bigint.of_int (-5) in
  Alcotest.check bigint "neg" (Bigint.of_int 5) (Bigint.neg v);
  Alcotest.check bigint "abs" (Bigint.of_int 5) (Bigint.abs v);
  Alcotest.check bigint "neg zero is zero" Bigint.zero (Bigint.neg Bigint.zero);
  Alcotest.(check int) "sign of neg" (-1) (Bigint.sign v)

let test_egcd () =
  let s = st () in
  for _ = 1 to 500 do
    let a = State.next_int s 1_000_000 - 500_000 in
    let b = State.next_int s 1_000_000 - 500_000 in
    let ba = Bigint.of_int a and bb = Bigint.of_int b in
    let g, u, v = Bigint.egcd ba bb in
    Alcotest.check bigint "bezout" g Bigint.(add (mul u ba) (mul v bb));
    Alcotest.(check bool) "g >= 0" true (Bigint.sign g >= 0)
  done

let test_mod_inv () =
  let m = Bigint.of_int 1_000_000_007 in
  let s = st () in
  for _ = 1 to 200 do
    let a = Bigint.of_int (1 + State.next_int s 1_000_000_006) in
    match Bigint.mod_inv a m with
    | None -> Alcotest.fail "inverse must exist modulo a prime"
    | Some inv ->
      Alcotest.check bigint "a * a^-1 = 1 (mod m)" Bigint.one
        (Bigint.erem (Bigint.mul a inv) m)
  done;
  Alcotest.(check bool) "non-coprime has no inverse" true
    (Bigint.mod_inv (Bigint.of_int 6) (Bigint.of_int 9) = None)

let test_bigint_mod_pow () =
  let m = Bigint.of_int 97 in
  Alcotest.check bigint "(-2)^3 mod 97 = 89" (Bigint.of_int 89)
    (Bigint.mod_pow ~base:(Bigint.of_int (-2)) ~exp:(Nat.of_int 3) ~modulus:m)

(* --- QCheck properties ------------------------------------------------- *)

let gen_nat_bits bits =
  QCheck.Gen.(map (fun seed -> Nat.random_bits (State.create ~seed ()) bits) nat)

let arb_nat bits = QCheck.make ~print:Nat.to_string (gen_nat_bits bits)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"add commutative" ~count:300 (pair (arb_nat 400) (arb_nat 400))
      (fun (a, b) -> Nat.equal (Nat.add a b) (Nat.add b a));
    Test.make ~name:"mul commutative" ~count:200 (pair (arb_nat 400) (arb_nat 400))
      (fun (a, b) -> Nat.equal (Nat.mul a b) (Nat.mul b a));
    Test.make ~name:"mul distributes over add" ~count:200
      (triple (arb_nat 300) (arb_nat 300) (arb_nat 300))
      (fun (a, b, c) ->
        Nat.equal (Nat.mul a (Nat.add b c)) (Nat.add (Nat.mul a b) (Nat.mul a c)));
    Test.make ~name:"add then sub round-trips" ~count:300 (pair (arb_nat 400) (arb_nat 400))
      (fun (a, b) -> Nat.equal a (Nat.sub (Nat.add a b) b));
    Test.make ~name:"divmod reconstruction" ~count:300 (pair (arb_nat 500) (arb_nat 200))
      (fun (a, b) ->
        let b = Nat.succ b in
        let q, r = Nat.divmod a b in
        Nat.equal a (Nat.add (Nat.mul q b) r) && Nat.compare r b < 0);
    Test.make ~name:"decimal round-trip" ~count:200 (arb_nat 500)
      (fun a -> Nat.equal a (Nat.of_string (Nat.to_string a)));
    Test.make ~name:"hex round-trip" ~count:200 (arb_nat 500)
      (fun a -> Nat.equal a (Nat.of_hex (Nat.to_hex a)));
    Test.make ~name:"gcd divides both" ~count:100 (pair (arb_nat 200) (arb_nat 200))
      (fun (a, b) ->
        let g = Nat.gcd a b in
        if Nat.is_zero g then Nat.is_zero a && Nat.is_zero b
        else Nat.is_zero (Nat.rem a g) && Nat.is_zero (Nat.rem b g));
    Test.make ~name:"mod_pow multiplicative in base" ~count:50
      (triple (arb_nat 100) (arb_nat 100) (arb_nat 64))
      (fun (a, b, m) ->
        let m = Nat.succ m in
        let e = Nat.of_int 17 in
        Nat.equal
          (Nat.mod_pow ~base:(Nat.mul a b) ~exp:e ~modulus:m)
          (Nat.rem
             (Nat.mul (Nat.mod_pow ~base:a ~exp:e ~modulus:m)
                (Nat.mod_pow ~base:b ~exp:e ~modulus:m))
             m));
    Test.make ~name:"bigint add/sub inverse" ~count:300
      (pair (pair small_nat (arb_nat 300)) (arb_nat 300))
      (fun ((flip, a), b) ->
        let a = Bigint.of_nat a and b = Bigint.of_nat b in
        let a = if flip mod 2 = 0 then a else Bigint.neg a in
        Bigint.equal a (Bigint.sub (Bigint.add a b) b));
    (let limb = Nat.limb_bits in
     (* Exponent lengths on both sides of every window-width change the
        kernel makes, plus the ends of the range. *)
     let boundaries =
       List.concat_map
         (fun b -> [ b; b + 1 ])
         (List.filter
            (fun b -> Montgomery.window_bits b <> Montgomery.window_bits (b + 1))
            (List.init 1200 (fun b -> b + 1)))
     in
     let lengths = Array.of_list ([ 0; 1; 2; 1100; 1101 ] @ boundaries) in
     let print (seed, limbs, (m_shape, e_shape, b_shape)) =
       Printf.sprintf "seed %d, %d limbs, modulus shape %d, all-ones exponent %b, base shape %d"
         seed limbs m_shape e_shape b_shape
     in
     Test.make ~name:"kernel = mod_pow across window and limb boundaries" ~count:120
       (make ~print
          Gen.(triple nat (int_range 1 70) (triple (int_range 0 2) bool (int_range 0 3))))
       (fun (seed, limbs, (m_shape, all_ones_exp, b_shape)) ->
         let s = State.create ~seed () in
         let bits = limb * limbs in
         (* Odd moduli of [limbs] limbs: random, top limb 1, all ones. *)
         let m =
           match m_shape with
           | 1 when limbs > 1 ->
             Nat.add (Nat.shift_left Nat.one (bits - limb)) (Nat.random_bits s (bits - limb))
           | 2 -> Nat.pred (Nat.shift_left Nat.one bits)
           | _ -> Nat.random_bits_exact s bits
         in
         let m = if Nat.is_even m then Nat.succ m else m in
         let m = if Nat.compare m (Nat.of_int 3) < 0 then Nat.of_int 3 else m in
         let ctx = Montgomery.create m in
         let e_bits = lengths.(State.next_int s (Array.length lengths)) in
         let e =
           if e_bits = 0 then Nat.zero
           else if all_ones_exp then Nat.pred (Nat.shift_left Nat.one e_bits)
           else Nat.random_bits_exact s e_bits
         in
         (* Bases: zero, below the modulus, and at or above it. *)
         let base =
           match b_shape with
           | 0 -> Nat.zero
           | 1 -> m
           | 2 -> Nat.add m (Nat.random_bits s (Nat.bit_length m + 40))
           | _ -> Nat.random_below s m
         in
         let got = Montgomery.pow ctx ~base ~exp:e in
         let table = Fixed_base.create ctx ~base ~max_exp_bits:(max 1 e_bits) in
         Nat.equal (Nat.mod_pow ~base ~exp:e ~modulus:m) got
         && Nat.equal got (Fixed_base.pow table e)));
    Test.make ~name:"fixed-base pow = montgomery pow" ~count:60
      (triple (arb_nat 160) (arb_nat 160) (arb_nat 72))
      (fun (m, base, e) ->
        (* 2(m + 1) + 1: odd and >= 3 for every generated m. *)
        let m = Nat.succ (Nat.mul (Nat.succ m) (Nat.of_int 2)) in
        let ctx = Spe_bignum.Montgomery.create m in
        let base = Nat.rem base m in
        let t = Spe_bignum.Fixed_base.create ctx ~base ~max_exp_bits:72 in
        Nat.equal
          (Spe_bignum.Montgomery.pow ctx ~base ~exp:e)
          (Spe_bignum.Fixed_base.pow t e));
    Test.make ~name:"rem_small = rem by a one-limb divisor" ~count:300
      (pair (arb_nat 500) (int_range 1 ((1 lsl 30) - 1)))
      (fun (a, d) -> Nat.equal (Nat.of_int (Nat.rem_small a d)) (Nat.rem a (Nat.of_int d)));
  ]

let () =
  Alcotest.run "spe_bignum"
    [
      ( "construction",
        [
          Alcotest.test_case "of/to int" `Quick test_of_to_int;
          Alcotest.test_case "of_int negative" `Quick test_of_int_negative;
          Alcotest.test_case "to_int overflow" `Quick test_to_int_overflow;
          Alcotest.test_case "decimal strings" `Quick test_string_roundtrip_known;
          Alcotest.test_case "hex strings" `Quick test_hex_roundtrip;
          Alcotest.test_case "hex/decimal agree" `Quick test_hex_decimal_agree;
        ] );
      ( "arithmetic",
        [
          Alcotest.test_case "small-value oracle" `Quick test_small_oracle;
          Alcotest.test_case "sub negative raises" `Quick test_sub_negative_raises;
          Alcotest.test_case "div by zero" `Quick test_divmod_by_zero;
          Alcotest.test_case "karatsuba binomial" `Quick test_mul_karatsuba_matches_schoolbook;
          Alcotest.test_case "divmod reconstruction" `Quick test_divmod_reconstruction;
          Alcotest.test_case "divmod pathological" `Quick test_divmod_edge_shapes;
          Alcotest.test_case "shifts" `Quick test_shift_roundtrip;
          Alcotest.test_case "bit_length" `Quick test_bit_length;
          Alcotest.test_case "test_bit" `Quick test_test_bit;
          Alcotest.test_case "gcd" `Quick test_gcd;
          Alcotest.test_case "mod_pow fermat" `Quick test_mod_pow_fermat;
          Alcotest.test_case "mod_pow oracle" `Quick test_mod_pow_oracle;
          Alcotest.test_case "mod_pow mod 1" `Quick test_mod_pow_mod_one;
          Alcotest.test_case "random_below" `Quick test_random_below;
          Alcotest.test_case "random_bits_exact" `Quick test_random_bits_exact;
        ] );
      ( "sqrt-lcm-pow",
        [
          Alcotest.test_case "isqrt oracle" `Quick test_isqrt_small_oracle;
          Alcotest.test_case "isqrt large" `Quick test_isqrt_large;
          Alcotest.test_case "lcm" `Quick test_lcm;
          Alcotest.test_case "pow" `Quick test_pow;
        ] );
      ( "montgomery",
        [
          Alcotest.test_case "pow vs mod_pow" `Quick test_montgomery_vs_mod_pow;
          Alcotest.test_case "form round trip" `Quick test_montgomery_roundtrip;
          Alcotest.test_case "multiplication" `Quick test_montgomery_mul;
          Alcotest.test_case "edge exponents" `Quick test_montgomery_edge_exponents;
          Alcotest.test_case "rejects even modulus" `Quick test_montgomery_rejects_even;
        ] );
      ( "fixed-base",
        [
          Alcotest.test_case "vs square-and-multiply" `Quick test_fixed_base_vs_montgomery;
          Alcotest.test_case "all window widths" `Quick test_fixed_base_windows_agree;
          Alcotest.test_case "edges and validation" `Quick test_fixed_base_edges;
        ] );
      ( "bigint",
        [
          Alcotest.test_case "int oracle" `Quick test_bigint_oracle;
          Alcotest.test_case "strings" `Quick test_bigint_string;
          Alcotest.test_case "neg/abs/sign" `Quick test_bigint_neg_abs;
          Alcotest.test_case "egcd bezout" `Quick test_egcd;
          Alcotest.test_case "mod_inv" `Quick test_mod_inv;
          Alcotest.test_case "mod_pow signed base" `Quick test_bigint_mod_pow;
        ] );
      ("properties", List.map (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 4242 |])) qcheck_tests);
    ]
