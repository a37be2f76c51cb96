module Nat = Spe_bignum.Nat

type public = {
  encrypt_int : int -> Nat.t;
  ciphertext_bits : int;
  key_bits : int;
}

type t = { public : public; decrypt_int : Nat.t -> int }

let check_plain m = if m < 0 then invalid_arg "Cipher.encrypt_int: negative plaintext"

let encrypt_int encrypt m =
  check_plain m;
  encrypt (Nat.of_int m)

let decrypt_int decrypt c = Nat.to_int_exn (decrypt c)

(* [f] with its results kept: a repeated argument returns the value
   computed the first time.  A call that raises stores nothing, so a
   bad argument raises on every call. *)
let memo f =
  let table = Hashtbl.create 16 in
  fun x ->
    match Hashtbl.find_opt table x with
    | Some y -> y
    | None ->
      let y = f x in
      Hashtbl.add table x y;
      y

let rsa ?plain_bits ?(accel = true) st ~bits =
  let kp = Rsa.generate ?plain_bits st ~bits in
  let encrypt_int, decrypt_int =
    if accel then
      (* Textbook RSA is deterministic: under one key a plaintext has
         one ciphertext, so each side pays one exponentiation per
         distinct value. *)
      ( memo (encrypt_int (Rsa.encryptor kp.Rsa.public)),
        memo (decrypt_int (Rsa.decryptor kp.Rsa.secret)) )
    else
      (* The pre-acceleration hot path: a fresh Montgomery context and
         a full-size exponentiation per call (the bench's baseline). *)
      ( encrypt_int (fun m -> Rsa.encrypt kp.Rsa.public m),
        decrypt_int (fun c -> Rsa.decryptor ~crt:false kp.Rsa.secret c) )
  in
  {
    public =
      {
        encrypt_int;
        ciphertext_bits = Rsa.ciphertext_bits kp.Rsa.public;
        key_bits = Rsa.public_key_bits kp.Rsa.public;
      };
    decrypt_int;
  }

let paillier ?plain_bits ?(accel = true) st ~bits =
  let kp = Paillier.generate ?plain_bits st ~bits in
  let enc_rng = Spe_rng.State.split st in
  let encrypt, decrypt =
    if accel then
      ( Paillier.encryptor ~fixed_base:true enc_rng kp.Paillier.public,
        Paillier.decryptor kp.Paillier.secret )
    else
      ( (fun m -> Paillier.encrypt enc_rng kp.Paillier.public m),
        fun c -> Paillier.decryptor ~crt:false kp.Paillier.secret c )
  in
  {
    public =
      {
        encrypt_int = encrypt_int encrypt;
        ciphertext_bits = Paillier.ciphertext_bits kp.Paillier.public;
        key_bits = Nat.bit_length kp.Paillier.public.Paillier.n;
      };
    decrypt_int = decrypt_int decrypt;
  }
