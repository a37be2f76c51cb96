module State = Spe_rng.State

type t = { pairs : (int * int) array; n : int }

(* Stable counting pass of [src] into [dst] by [digit k], in [0, n). *)
let counting_pass ~n ~digit src dst =
  let start = Array.make (n + 1) 0 in
  Array.iter
    (fun k ->
      let d = digit k + 1 in
      start.(d) <- start.(d) + 1)
    src;
  for d = 1 to n do
    start.(d) <- start.(d) + start.(d - 1)
  done;
  Array.iter
    (fun k ->
      let d = digit k in
      dst.(start.(d)) <- k;
      start.(d) <- start.(d) + 1)
    src

let make st g ~c =
  if c < 1. then invalid_arg "Obfuscate.make: c must be at least 1";
  let n = Digraph.n g in
  let total = if n <= 1 then 0 else n * (n - 1) in
  let e = Digraph.edge_count g in
  let target = min total (int_of_float (ceil (c *. float_of_int e))) in
  (* A pair (u, v) is the key u * n + v; since v < n, key order is
     (u, v) order.  The arcs are distinct and [target >= |E|] (c >= 1),
     so [keys] holds them all. *)
  let keys = Array.make target 0 in
  let chosen = Hashtbl.create (2 * target) in
  let q = ref 0 in
  let add k =
    Hashtbl.add chosen k ();
    keys.(!q) <- k;
    incr q
  in
  Digraph.iter_edges g (fun u v -> add ((u * n) + v));
  (* Pad with uniform random decoy pairs until the target size. *)
  while !q < target do
    let k = State.next_int st total in
    let u = k / (n - 1) in
    let r = k mod (n - 1) in
    let v = if r < u then r else r + 1 in
    if not (Hashtbl.mem chosen ((u * n) + v)) then add ((u * n) + v)
  done;
  (* The published order in O(q + n): by v, then stably by u. *)
  let by_v = Array.make target 0 and sorted = Array.make target 0 in
  counting_pass ~n ~digit:(fun k -> k mod n) keys by_v;
  counting_pass ~n ~digit:(fun k -> k / n) by_v sorted;
  { pairs = Array.map (fun k -> (k / n, k mod n)) sorted; n }

let size t = Array.length t.pairs

let find t u v =
  let target = (u, v) in
  let rec bs lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let c = Stdlib.compare t.pairs.(mid) target in
      if c = 0 then Some mid else if c < 0 then bs (mid + 1) hi else bs lo mid
  in
  bs 0 (Array.length t.pairs)

let mem t u v = find t u v <> None
let index_of t u v = find t u v

let covers t g =
  Digraph.fold_edges g ~init:true ~f:(fun acc u v -> acc && mem t u v)

let iteri t f = Array.iteri (fun i (u, v) -> f i u v) t.pairs
