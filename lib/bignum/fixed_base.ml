(* Fixed-base window exponentiation over the Montgomery core.

   The table stores, for every w-bit digit position i and every digit
   value d, the Montgomery form of base^(d * 2^(w*i)).  An exponent of
   e bits then costs at most ceil(e / w) - 1 multiplications and no
   squarings, against a squaring per bit for Montgomery.pow: the
   squaring chain is paid once, at table build time, and amortised
   across every later exponentiation with the same base (Paillier's
   per-key randomness base in Protocol 6).

   Memory: ceil(max_exp_bits / w) positions * (2^w - 1) entries * k
   limbs.  The default w = 4 keeps a 2048-bit table near 1 MB. *)

type t = {
  ctx : Montgomery.t;
  window : int;
  table : int array array array;
      (* table.(i).(d - 1) = base^(d * 2^(window * i)) in Montgomery
         form, d in [1, 2^window). *)
  max_exp_bits : int;
}

let default_window = 4

let create ?(window = default_window) ctx ~base ~max_exp_bits =
  if window < 1 || window > 8 then invalid_arg "Fixed_base.create: window must be in [1, 8]";
  if max_exp_bits < 1 then invalid_arg "Fixed_base.create: max_exp_bits must be positive";
  let digits = (1 lsl window) - 1 in
  let positions = (max_exp_bits + window - 1) / window in
  let scratch = Montgomery.scratch ctx in
  let mul a b =
    let dst = Array.make (Montgomery.width ctx) 0 in
    Montgomery.mul_into ctx scratch a b dst;
    dst
  in
  let table = Array.init positions (fun _ -> Array.make digits [||]) in
  (* Walk the powers base^1, base^2, base^3, ... once; every (position,
     digit) slot is one further multiplication by the running power's
     position base. *)
  let cursor = ref (Montgomery.to_mont_limbs ctx base) in
  for i = 0 to positions - 1 do
    table.(i).(0) <- !cursor;
    for d = 2 to digits do
      table.(i).(d - 1) <- mul table.(i).(d - 2) !cursor
    done;
    (* table.(i).(digits - 1) = base^((2^w - 1) * 2^(w*i)); one more
       multiply by the position base gives base^(2^(w*(i+1))). *)
    if i < positions - 1 then cursor := mul table.(i).(digits - 1) table.(i).(0)
  done;
  { ctx; window; table; max_exp_bits }

let max_exp_bits t = t.max_exp_bits

let pow t exp =
  let bits = Nat.bit_length exp in
  if bits > t.max_exp_bits then invalid_arg "Fixed_base.pow: exponent exceeds table";
  let positions = (bits + t.window - 1) / t.window in
  let acc = Montgomery.one_mont_limbs t.ctx in
  let scratch = Montgomery.scratch t.ctx in
  for i = 0 to positions - 1 do
    let d = Nat.bits exp ~pos:(i * t.window) ~len:t.window in
    if d > 0 then Montgomery.mul_into t.ctx scratch acc t.table.(i).(d - 1) acc
  done;
  Montgomery.of_mont_limbs t.ctx acc
