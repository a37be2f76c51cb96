module Nat = Spe_bignum.Nat
module Montgomery = Spe_bignum.Montgomery
module State = Spe_rng.State

let small_primes =
  (* Sieve of Eratosthenes below 1000, computed once at load time. *)
  let limit = 1000 in
  let composite = Array.make (limit + 1) false in
  let primes = ref [] in
  for i = 2 to limit do
    if not composite.(i) then begin
      primes := i :: !primes;
      let j = ref (i * i) in
      while !j <= limit do
        composite.(!j) <- true;
        j := !j + i
      done
    end
  done;
  Array.of_list (List.rev !primes)

(* [None] = passes trial division; [Some b] = verdict [b].  Each
   remainder is a native int read off the limbs, so no divisor
   allocates. *)
let trial_division n =
  (* [max_int] when [n] exceeds an int: it equals no small prime. *)
  let v = Option.value (Nat.to_int n) ~default:max_int in
  let rec scan i =
    if i = Array.length small_primes then None
    else
      let p = small_primes.(i) in
      if v = p then Some true
      else if Nat.rem_small n p = 0 then Some false
      else scan (i + 1)
  in
  if v < 2 then Some false else scan 0

let miller_rabin_round st ctx n =
  (* n odd, n > 3.  Write n - 1 = 2^s * d with d odd. *)
  let n_minus_1 = Nat.pred n in
  let rec strip d s = if Nat.is_even d then strip (Nat.shift_right d 1) (s + 1) else (d, s) in
  let d, s = strip n_minus_1 0 in
  (* Base a uniform in [2, n - 2]. *)
  let a = Nat.add Nat.two (Nat.random_below st (Nat.sub n (Nat.of_int 3))) in
  let x = Montgomery.pow ctx ~base:a ~exp:d in
  if Nat.is_one x || Nat.equal x n_minus_1 then true
  else begin
    let rec square_loop x i =
      if i >= s - 1 then false
      else
        let x = Nat.rem (Nat.mul x x) n in
        if Nat.equal x n_minus_1 then true else square_loop x (i + 1)
    in
    square_loop x 0
  end

let is_prime ?(rounds = 20) st n =
  match trial_division n with
  | Some verdict -> verdict
  | None ->
    (* Trial division leaves only odd n > 1000: one Montgomery context
       serves every round. *)
    let ctx = Montgomery.create n in
    let rec loop i = i >= rounds || (miller_rabin_round st ctx n && loop (i + 1)) in
    loop 0

let random_prime ?rounds st ~bits =
  if bits < 2 then invalid_arg "Prime.random_prime: need at least 2 bits";
  let rec loop () =
    let c = Nat.random_bits_exact st bits in
    (* Force odd (2 is the only even prime and has 2 bits; catch it via
       the retry loop rather than special-casing). *)
    let c = if Nat.is_even c then Nat.succ c else c in
    if Nat.bit_length c = bits && is_prime ?rounds st c then c else loop ()
  in
  loop ()

let random_odd_prime_with st ~bits accept =
  let rec loop () =
    let p = random_prime st ~bits in
    if accept p then p else loop ()
  in
  loop ()
