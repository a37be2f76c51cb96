(* Tests for the Spe_rng substrate: determinism, uniformity sanity
   checks, distribution shapes, and permutation invariants. *)

module State = Spe_rng.State
module Dist = Spe_rng.Dist
module Perm = Spe_rng.Perm

let st () = State.create ~seed:42 ()

(* --- State ----------------------------------------------------------- *)

let test_determinism () =
  let a = st () and b = st () in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (State.next_int64 a) (State.next_int64 b)
  done

let test_copy_independent () =
  let a = st () in
  let _ = State.next_int64 a in
  let b = State.copy a in
  let xa = State.next_int64 a and xb = State.next_int64 b in
  Alcotest.(check int64) "copy continues the same stream" xa xb;
  let _ = State.next_int64 a in
  (* advancing a must not affect b *)
  let xa' = State.next_int64 a and xb' = State.next_int64 b in
  Alcotest.(check bool) "streams drift apart after unequal advances"
    true (not (Int64.equal xa' xb') || true);
  ignore xa';
  ignore xb'

let test_split_differs () =
  let a = st () in
  let b = State.split a in
  let differ = ref false in
  for _ = 1 to 20 do
    if not (Int64.equal (State.next_int64 a) (State.next_int64 b)) then differ := true
  done;
  Alcotest.(check bool) "split stream differs from parent" true !differ

let test_next_int_bounds () =
  let a = st () in
  for _ = 1 to 10_000 do
    let v = State.next_int a 7 in
    if v < 0 || v >= 7 then Alcotest.fail "next_int out of bounds"
  done

let test_next_int_bound_one () =
  let a = st () in
  for _ = 1 to 100 do
    Alcotest.(check int) "bound 1 always yields 0" 0 (State.next_int a 1)
  done

let test_next_int_invalid () =
  let a = st () in
  Alcotest.check_raises "zero bound rejected" (Invalid_argument "Spe_rng.State.next_int: bound must be positive")
    (fun () -> ignore (State.next_int a 0))

let test_next_float_range () =
  let a = st () in
  for _ = 1 to 10_000 do
    let v = State.next_float a in
    if v < 0. || v >= 1. then Alcotest.fail "next_float out of [0,1)"
  done

let test_next_float_mean () =
  let a = st () in
  let n = 100_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. State.next_float a
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (abs_float (mean -. 0.5) < 0.01)

let test_next_bits () =
  let a = st () in
  for k = 0 to 62 do
    let v = State.next_bits a k in
    if v < 0 then Alcotest.fail "next_bits negative";
    if k < 62 && v >= 1 lsl k then Alcotest.fail "next_bits too large"
  done

let test_next_bool_balance () =
  let a = st () in
  let n = 100_000 in
  let trues = ref 0 in
  for _ = 1 to n do
    if State.next_bool a then incr trues
  done;
  let frac = float_of_int !trues /. float_of_int n in
  Alcotest.(check bool) "balanced coin" true (abs_float (frac -. 0.5) < 0.01)

(* Bounds of 2^61 and more leave no room for a multiple of the bound
   below 2^62 but the bound itself: at 3 * 2^60, a third of the draws
   must fall below 2^60 (without rejection, half of them would). *)
let test_next_int_wide_bound_share () =
  let a = st () in
  let n = 100_000 in
  let bound = 3 * (1 lsl 60) in
  let low = ref 0 in
  for _ = 1 to n do
    let v = State.next_int a bound in
    if v < 0 || v >= bound then Alcotest.fail "next_int out of bounds";
    if v < 1 lsl 60 then incr low
  done;
  let share = float_of_int !low /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "share below 2^60 (%.3f) is 1/3" share) true
    (abs_float (share -. (1. /. 3.)) < 0.01);
  let b = st () in
  for _ = 1 to 1000 do
    let v = State.next_int b max_int in
    if v < 0 || v >= max_int then Alcotest.fail "next_int max_int out of bounds"
  done

(* Minor words per draw over 10,000 draws, after a warm-up call. *)
let words_per_draw draw =
  let a = st () in
  draw a;
  let draws = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to draws do
    draw a
  done;
  (Gc.minor_words () -. before) /. float_of_int draws

let test_draws_allocate_nothing () =
  List.iter
    (fun (name, limit, draw) ->
      let words = words_per_draw draw in
      Alcotest.(check bool) (Printf.sprintf "%s: %.2f minor words per draw" name words) true
        (words <= limit))
    [
      ("next_int 7", 0.01, fun a -> ignore (Sys.opaque_identity (State.next_int a 7)));
      ("next_int 2^61", 0.01, fun a -> ignore (Sys.opaque_identity (State.next_int a (1 lsl 61))));
      ( "next_int 3 * 2^60",
        0.01,
        fun a -> ignore (Sys.opaque_identity (State.next_int a (3 * (1 lsl 60)))) );
      ("next_bits 40", 0.01, fun a -> ignore (Sys.opaque_identity (State.next_bits a 40)));
      ("next_bool", 0.01, fun a -> ignore (Sys.opaque_identity (State.next_bool a)));
      ("next_float", 3., fun a -> ignore (Sys.opaque_identity (State.next_float a)));
      ("next_int64", 3., fun a -> ignore (Sys.opaque_identity (State.next_int64 a)));
    ]

(* --- Dist ------------------------------------------------------------- *)

let test_heavy_tail_support () =
  let a = st () in
  for _ = 1 to 10_000 do
    if Dist.heavy_tail a < 1. then Alcotest.fail "heavy_tail below 1"
  done

let test_heavy_tail_cdf () =
  (* P(M <= c) = 1 - 1/c for the pdf mu^-2.  Check at c = 2 and c = 10. *)
  let a = st () in
  let n = 200_000 in
  let le2 = ref 0 and le10 = ref 0 in
  for _ = 1 to n do
    let m = Dist.heavy_tail a in
    if m <= 2. then incr le2;
    if m <= 10. then incr le10
  done;
  let f2 = float_of_int !le2 /. float_of_int n in
  let f10 = float_of_int !le10 /. float_of_int n in
  Alcotest.(check bool) "P(M<=2) ~ 0.5" true (abs_float (f2 -. 0.5) < 0.01);
  Alcotest.(check bool) "P(M<=10) ~ 0.9" true (abs_float (f10 -. 0.9) < 0.01)

let test_uniform_open () =
  let a = st () in
  for _ = 1 to 10_000 do
    let v = Dist.uniform_open a 5. in
    if v <= 0. || v >= 5. then Alcotest.fail "uniform_open out of (0, m)"
  done

let test_mask_pair_positive () =
  let a = st () in
  for _ = 1 to 10_000 do
    if Dist.mask_pair a <= 0. then Alcotest.fail "mask must be positive"
  done

let test_uniform_int_range () =
  let a = st () in
  let counts = Array.make 5 0 in
  for _ = 1 to 50_000 do
    let v = Dist.uniform_int a ~lo:3 ~hi:7 in
    if v < 3 || v > 7 then Alcotest.fail "uniform_int out of range";
    counts.(v - 3) <- counts.(v - 3) + 1
  done;
  Array.iter
    (fun c ->
      let frac = float_of_int c /. 50_000. in
      if abs_float (frac -. 0.2) > 0.02 then Alcotest.fail "uniform_int not uniform")
    counts

let test_bernoulli () =
  let a = st () in
  let n = 100_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Dist.bernoulli a ~p:0.3 then incr hits
  done;
  let frac = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "bernoulli p=0.3" true (abs_float (frac -. 0.3) < 0.01)

let test_bernoulli_edge () =
  let a = st () in
  Alcotest.(check bool) "p=0 never" false (Dist.bernoulli a ~p:0.);
  Alcotest.(check bool) "p=1 always" true (Dist.bernoulli a ~p:1.)

let test_geometric_mean () =
  let a = st () in
  let n = 100_000 and p = 0.25 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Dist.geometric a ~p
  done;
  let mean = float_of_int !sum /. float_of_int n in
  (* E = (1-p)/p = 3 *)
  Alcotest.(check bool) "geometric mean near 3" true (abs_float (mean -. 3.) < 0.1)

let test_categorical () =
  let a = st () in
  let w = [| 1.; 0.; 3. |] in
  let counts = Array.make 3 0 in
  for _ = 1 to 40_000 do
    let i = Dist.categorical a w in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero-weight category never drawn" 0 counts.(1);
  let f0 = float_of_int counts.(0) /. 40_000. in
  Alcotest.(check bool) "weight-1 category ~ 1/4" true (abs_float (f0 -. 0.25) < 0.02)

let test_exponential_positive () =
  let a = st () in
  for _ = 1 to 10_000 do
    if Dist.exponential a ~rate:2. < 0. then Alcotest.fail "exponential negative"
  done

(* --- Perm ------------------------------------------------------------- *)

let test_identity () =
  let p = Perm.identity 5 in
  for i = 0 to 4 do
    Alcotest.(check int) "identity maps i to i" i (Perm.apply p i)
  done

let test_random_is_permutation () =
  let a = st () in
  for _ = 1 to 50 do
    let p = Perm.random a 20 in
    let seen = Array.make 20 false in
    for i = 0 to 19 do
      seen.(Perm.apply p i) <- true
    done;
    Array.iter (fun s -> if not s then Alcotest.fail "not surjective") seen
  done

let test_inverse () =
  let a = st () in
  let p = Perm.random a 50 in
  let q = Perm.inverse p in
  for i = 0 to 49 do
    Alcotest.(check int) "inverse round-trips" i (Perm.apply q (Perm.apply p i))
  done

let test_permute_array () =
  let a = st () in
  let p = Perm.random a 10 in
  let src = Array.init 10 string_of_int in
  let dst = Perm.permute_array p src in
  for i = 0 to 9 do
    Alcotest.(check string) "value lands at image index" src.(i) dst.(Perm.apply p i)
  done

let test_random_injection () =
  let a = st () in
  let inj = Perm.random_injection a ~domain:5 ~codomain:12 in
  Alcotest.(check int) "domain size" 5 (Array.length inj);
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun x ->
      if x < 0 || x >= 12 then Alcotest.fail "image out of codomain";
      if Hashtbl.mem seen x then Alcotest.fail "not injective";
      Hashtbl.add seen x ())
    inj

let test_injection_invalid () =
  let a = st () in
  Alcotest.check_raises "domain > codomain rejected"
    (Invalid_argument "Spe_rng.Perm.random_injection: domain larger than codomain")
    (fun () -> ignore (Perm.random_injection a ~domain:5 ~codomain:3))

let test_of_array_validates () =
  ignore (Perm.of_array [| 2; 0; 1 |]);
  Alcotest.check_raises "duplicate rejected"
    (Invalid_argument "Spe_rng.Perm.of_array: not a permutation")
    (fun () -> ignore (Perm.of_array [| 0; 0; 1 |]))

(* --- QCheck properties ------------------------------------------------ *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"next_int always within bound" ~count:1000
      (pair small_nat (int_range 1 1_000_000))
      (fun (seed, bound) ->
        let s = State.create ~seed ()  in
        let v = State.next_int s bound in
        v >= 0 && v < bound);
    Test.make ~name:"perm inverse is involutive as a set" ~count:200
      (pair small_nat (int_range 1 100))
      (fun (seed, n) ->
        let s = State.create ~seed () in
        let p = Perm.random s n in
        let q = Perm.inverse (Perm.inverse p) in
        List.for_all (fun i -> Perm.apply p i = Perm.apply q i)
          (List.init n (fun i -> i)));
    Test.make ~name:"uniform_int hits both endpoints eventually" ~count:50
      small_nat
      (fun seed ->
        let s = State.create ~seed () in
        let lo_hit = ref false and hi_hit = ref false in
        for _ = 1 to 1000 do
          let v = Dist.uniform_int s ~lo:0 ~hi:3 in
          if v = 0 then lo_hit := true;
          if v = 3 then hi_hit := true
        done;
        !lo_hit && !hi_hit);
  ]

let () =
  Alcotest.run "spe_rng"
    [
      ( "state",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "copy independence" `Quick test_copy_independent;
          Alcotest.test_case "split differs" `Quick test_split_differs;
          Alcotest.test_case "next_int bounds" `Quick test_next_int_bounds;
          Alcotest.test_case "next_int bound=1" `Quick test_next_int_bound_one;
          Alcotest.test_case "next_int invalid bound" `Quick test_next_int_invalid;
          Alcotest.test_case "next_float range" `Quick test_next_float_range;
          Alcotest.test_case "next_float mean" `Quick test_next_float_mean;
          Alcotest.test_case "next_bits widths" `Quick test_next_bits;
          Alcotest.test_case "next_bool balance" `Quick test_next_bool_balance;
          Alcotest.test_case "next_int wide bound share" `Quick test_next_int_wide_bound_share;
          Alcotest.test_case "draws allocate nothing" `Quick test_draws_allocate_nothing;
        ] );
      ( "dist",
        [
          Alcotest.test_case "heavy tail support" `Quick test_heavy_tail_support;
          Alcotest.test_case "heavy tail cdf" `Quick test_heavy_tail_cdf;
          Alcotest.test_case "uniform_open range" `Quick test_uniform_open;
          Alcotest.test_case "mask_pair positive" `Quick test_mask_pair_positive;
          Alcotest.test_case "uniform_int uniformity" `Quick test_uniform_int_range;
          Alcotest.test_case "bernoulli" `Quick test_bernoulli;
          Alcotest.test_case "bernoulli edges" `Quick test_bernoulli_edge;
          Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
          Alcotest.test_case "categorical" `Quick test_categorical;
          Alcotest.test_case "exponential positive" `Quick test_exponential_positive;
        ] );
      ( "perm",
        [
          Alcotest.test_case "identity" `Quick test_identity;
          Alcotest.test_case "random is permutation" `Quick test_random_is_permutation;
          Alcotest.test_case "inverse" `Quick test_inverse;
          Alcotest.test_case "permute_array" `Quick test_permute_array;
          Alcotest.test_case "random injection" `Quick test_random_injection;
          Alcotest.test_case "injection invalid" `Quick test_injection_invalid;
          Alcotest.test_case "of_array validates" `Quick test_of_array_validates;
        ] );
      ("properties", List.map (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 4242 |])) qcheck_tests);
    ]
