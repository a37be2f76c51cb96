module Dist = Spe_rng.Dist

type shares = { den : float array; num : float array }

type outcome = { masks : float array; masked1 : shares; masked2 : shares }

let mask masks ~groups s =
  {
    den = Array.mapi (fun i x -> masks.(i) *. x) s.den;
    num = Array.mapi (fun k x -> masks.(groups.(k)) *. x) s.num;
  }

let run st ~wire ~p1 ~p2 ~groups s1 s2 =
  let g = Array.length s1.den and q = Array.length groups in
  if Array.length s2.den <> g || Array.length s1.num <> q || Array.length s2.num <> q then
    invalid_arg "Protocol3.run: share vector shapes differ";
  if p1 = p2 then invalid_arg "Protocol3.run: players must be distinct";
  (* Steps 1-2: players 1 and 2 jointly draw M ~ Z, then r ~ U(0, M),
     per group.  The joint generation is one exchange of random
     contributions per step (semi-honest; DESIGN.md). *)
  for _ = 1 to 2 do
    Wire.round wire (fun () ->
        Wire.send wire ~src:p1 ~dst:p2 ~bits:(g * Wire.float_bits);
        Wire.send wire ~src:p2 ~dst:p1 ~bits:(g * Wire.float_bits))
  done;
  let masks = Array.init g (fun _ -> Dist.mask_pair st) in
  (* Steps 3-4, each player's side: every share times its group's mask. *)
  { masks; masked1 = mask masks ~groups s1; masked2 = mask masks ~groups s2 }

let quotients ~groups m1 m2 =
  Array.mapi
    (fun k g ->
      let den = m1.den.(g) +. m2.den.(g) in
      if den = 0. then 0. else (m1.num.(k) +. m2.num.(k)) /. den)
    groups
