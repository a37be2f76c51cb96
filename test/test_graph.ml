(* Tests for the graph substrate: digraph invariants, generator shape
   properties, traversal correctness against brute force, and the
   obfuscated edge-set used by Protocols 4 and 6. *)

module Digraph = Spe_graph.Digraph
module Generate = Spe_graph.Generate
module Traverse = Spe_graph.Traverse
module Obfuscate = Spe_graph.Obfuscate
module State = Spe_rng.State

let st () = State.create ~seed:23 ()

(* --- digraph ----------------------------------------------------------- *)

let test_create_basic () =
  let g = Digraph.create ~n:4 [ (0, 1); (1, 2); (0, 2); (2, 3) ] in
  Alcotest.(check int) "n" 4 (Digraph.n g);
  Alcotest.(check int) "edges" 4 (Digraph.edge_count g);
  Alcotest.(check bool) "mem (0,1)" true (Digraph.mem_edge g 0 1);
  Alcotest.(check bool) "not mem (1,0)" false (Digraph.mem_edge g 1 0);
  Alcotest.(check bool) "out of range is false" false (Digraph.mem_edge g 0 9)

let test_create_dedup () =
  let g = Digraph.create ~n:3 [ (0, 1); (0, 1); (1, 2) ] in
  Alcotest.(check int) "duplicates collapsed" 2 (Digraph.edge_count g)

let test_create_rejects_self_loop () =
  Alcotest.check_raises "self loop" (Invalid_argument "Digraph.create: self-loop")
    (fun () -> ignore (Digraph.create ~n:2 [ (1, 1) ]))

let test_create_rejects_out_of_range () =
  Alcotest.check_raises "endpoint range" (Invalid_argument "Digraph.create: endpoint out of range")
    (fun () -> ignore (Digraph.create ~n:2 [ (0, 5) ]))

let test_neighbors_and_degrees () =
  let g = Digraph.create ~n:4 [ (0, 1); (0, 2); (3, 0) ] in
  Alcotest.(check (array int)) "out of 0" [| 1; 2 |] (Digraph.out_neighbors g 0);
  Alcotest.(check (array int)) "in of 0" [| 3 |] (Digraph.in_neighbors g 0);
  Alcotest.(check int) "out degree" 2 (Digraph.out_degree g 0);
  Alcotest.(check int) "in degree" 1 (Digraph.in_degree g 0);
  Alcotest.(check int) "sink degrees" 0 (Digraph.out_degree g 1)

let test_of_undirected () =
  let g = Digraph.of_undirected ~n:3 [ (0, 1); (1, 2) ] in
  Alcotest.(check int) "both arcs per edge" 4 (Digraph.edge_count g);
  Alcotest.(check bool) "forward" true (Digraph.mem_edge g 0 1);
  Alcotest.(check bool) "backward" true (Digraph.mem_edge g 1 0)

let test_edges_sorted () =
  let g = Digraph.create ~n:3 [ (2, 0); (0, 1); (1, 2) ] in
  Alcotest.(check (list (pair int int))) "lexicographic"
    [ (0, 1); (1, 2); (2, 0) ]
    (Digraph.edges g)

let test_fold_edges () =
  let g = Digraph.create ~n:3 [ (0, 1); (1, 2) ] in
  let total = Digraph.fold_edges g ~init:0 ~f:(fun acc u v -> acc + u + v) in
  Alcotest.(check int) "fold sums endpoints" 4 total

(* --- generators -------------------------------------------------------- *)

let test_gnp_degenerate () =
  let s = st () in
  Alcotest.(check int) "p=0 empty" 0 (Digraph.edge_count (Generate.erdos_renyi_gnp s ~n:10 ~p:0.));
  Alcotest.(check int) "p=1 complete" 90
    (Digraph.edge_count (Generate.erdos_renyi_gnp s ~n:10 ~p:1.))

let test_gnp_density () =
  let s = st () in
  let n = 100 and p = 0.05 in
  let total = ref 0 in
  let trials = 20 in
  for _ = 1 to trials do
    total := !total + Digraph.edge_count (Generate.erdos_renyi_gnp s ~n ~p)
  done;
  let mean = float_of_int !total /. float_of_int trials in
  let expected = p *. float_of_int (n * (n - 1)) in
  Alcotest.(check bool) "mean edge count near expectation" true
    (abs_float (mean -. expected) /. expected < 0.1)

let test_gnm_exact () =
  let s = st () in
  let g = Generate.erdos_renyi_gnm s ~n:50 ~m:200 in
  Alcotest.(check int) "exact edge count" 200 (Digraph.edge_count g);
  Alcotest.check_raises "m too large"
    (Invalid_argument "Generate.erdos_renyi_gnm: m out of range")
    (fun () -> ignore (Generate.erdos_renyi_gnm s ~n:3 ~m:7))

let test_barabasi_albert () =
  let s = st () in
  let n = 200 and m = 3 in
  let g = Generate.barabasi_albert s ~n ~m in
  Alcotest.(check int) "node count" n (Digraph.n g);
  (* Undirected edge count: clique (m+1 choose 2) + m per later node. *)
  let expected_undirected = (m * (m + 1) / 2) + (m * (n - m - 1)) in
  Alcotest.(check int) "edge count" (2 * expected_undirected) (Digraph.edge_count g);
  Alcotest.(check bool) "connected" true (Traverse.is_connected_undirected g);
  (* Preferential attachment must produce a hub: some node with degree
     far above m. *)
  let max_deg = ref 0 in
  for v = 0 to n - 1 do
    max_deg := max !max_deg (Digraph.out_degree g v)
  done;
  Alcotest.(check bool) "hub exists" true (!max_deg > 4 * m)

let test_watts_strogatz () =
  let s = st () in
  let n = 100 and k = 4 in
  let g = Generate.watts_strogatz s ~n ~k ~beta:0.1 in
  Alcotest.(check int) "node count" n (Digraph.n g);
  Alcotest.(check int) "edge count preserved by rewiring" (n * k) (Digraph.edge_count g);
  let g0 = Generate.watts_strogatz s ~n ~k ~beta:0. in
  (* beta = 0: the pristine ring lattice. *)
  Alcotest.(check bool) "ring arc" true (Digraph.mem_edge g0 0 1);
  Alcotest.(check bool) "ring arc 2" true (Digraph.mem_edge g0 0 2);
  Alcotest.(check bool) "no long chord" false (Digraph.mem_edge g0 0 50)

let test_ws_invalid () =
  let s = st () in
  Alcotest.check_raises "odd k"
    (Invalid_argument "Generate.watts_strogatz: k must be even and >= 2")
    (fun () -> ignore (Generate.watts_strogatz s ~n:10 ~k:3 ~beta:0.1))

let test_configuration_model () =
  let s = st () in
  (* Regular degree sequence: realised degrees can only fall short
     through erased self-loops/duplicates. *)
  let degrees = Array.make 50 6 in
  let g = Generate.configuration_model s ~degrees in
  Alcotest.(check int) "node count" 50 (Digraph.n g);
  for v = 0 to 49 do
    let d = Digraph.out_degree g v in
    if d > 6 then Alcotest.failf "degree exceeded at %d" v
  done;
  (* Most stubs survive erasure on a sparse sequence. *)
  Alcotest.(check bool) "few erased" true (Digraph.edge_count g > 50 * 5);
  (* Heterogeneous sequence: the hub really is a hub. *)
  let degrees = Array.append [| 20 |] (Array.make 40 1) in
  let degrees = if Array.fold_left ( + ) 0 degrees mod 2 = 1 then (degrees.(1) <- 2; degrees) else degrees in
  let g = Generate.configuration_model s ~degrees in
  Alcotest.(check bool) "hub degree dominates" true (Digraph.out_degree g 0 > 10)

let test_configuration_model_invalid () =
  let s = st () in
  Alcotest.check_raises "odd stubs"
    (Invalid_argument "Generate.configuration_model: odd stub count")
    (fun () -> ignore (Generate.configuration_model s ~degrees:[| 1; 1; 1 |]));
  Alcotest.check_raises "negative degree"
    (Invalid_argument "Generate.configuration_model: negative degree")
    (fun () -> ignore (Generate.configuration_model s ~degrees:[| -1; 1 |]))

let test_forest_fire () =
  let s = st () in
  let g = Generate.forest_fire s ~n:100 ~forward:0.35 ~backward:0.2 in
  Alcotest.(check int) "node count" 100 (Digraph.n g);
  (* Every node after the first links to at least its ambassador. *)
  for v = 1 to 99 do
    if Digraph.out_degree g v < 1 then Alcotest.failf "node %d has no links" v
  done;
  Alcotest.(check bool) "weakly connected" true (Traverse.is_connected_undirected g);
  (* Heavy in-degree tail: some node far above the average. *)
  let max_in = ref 0 in
  for v = 0 to 99 do
    max_in := max !max_in (Digraph.in_degree g v)
  done;
  let avg = float_of_int (Digraph.edge_count g) /. 100. in
  Alcotest.(check bool) "in-degree hub" true (float_of_int !max_in > 3. *. avg)

let test_forest_fire_zero_burn () =
  (* No burning: each node links only to its ambassador — a tree. *)
  let s = st () in
  let g = Generate.forest_fire s ~n:40 ~forward:0. ~backward:0. in
  Alcotest.(check int) "tree arc count" 39 (Digraph.edge_count g)

(* --- traversal --------------------------------------------------------- *)

let test_bfs () =
  (* 0 -> 1 -> 2, 0 -> 3; 4 isolated *)
  let g = Digraph.create ~n:5 [ (0, 1); (1, 2); (0, 3) ] in
  let d = Traverse.bfs_distances g ~src:0 in
  Alcotest.(check int) "d(0)" 0 d.(0);
  Alcotest.(check int) "d(1)" 1 d.(1);
  Alcotest.(check int) "d(2)" 2 d.(2);
  Alcotest.(check int) "d(3)" 1 d.(3);
  Alcotest.(check int) "unreachable" max_int d.(4)

let test_bfs_respects_direction () =
  let g = Digraph.create ~n:3 [ (0, 1); (1, 2) ] in
  let d = Traverse.bfs_distances g ~src:2 in
  Alcotest.(check int) "cannot go backwards" max_int d.(0)

let test_weighted_distances () =
  (* 0 -(5)-> 1, 0 -(2)-> 2, 2 -(2)-> 1: shortest 0->1 is 4. *)
  let adj = function
    | 0 -> [ (1, 5); (2, 2) ]
    | 2 -> [ (1, 2) ]
    | _ -> []
  in
  let d = Traverse.weighted_distances ~n:3 ~adj ~src:0 in
  Alcotest.(check int) "via cheaper path" 4 d.(1);
  Alcotest.(check int) "direct" 2 d.(2)

let test_bounded_reachable () =
  let adj = function
    | 0 -> [ (1, 3); (2, 1) ]
    | 2 -> [ (3, 1) ]
    | 3 -> [ (4, 10) ]
    | _ -> []
  in
  Alcotest.(check (list int)) "tau=2 sphere" [ 2; 3 ]
    (Traverse.bounded_reachable ~n:5 ~adj ~src:0 ~tau:2);
  Alcotest.(check (list int)) "tau=3 sphere" [ 1; 2; 3 ]
    (Traverse.bounded_reachable ~n:5 ~adj ~src:0 ~tau:3);
  Alcotest.(check (list int)) "tau=0 empty" []
    (Traverse.bounded_reachable ~n:5 ~adj ~src:0 ~tau:0)

let test_weighted_rejects_bad_weight () =
  let adj = function 0 -> [ (1, 0) ] | _ -> [] in
  Alcotest.check_raises "zero weight"
    (Invalid_argument "Traverse.weighted_distances: non-positive weight")
    (fun () -> ignore (Traverse.weighted_distances ~n:2 ~adj ~src:0))

let test_dijkstra_vs_bruteforce () =
  (* Random small weighted graphs vs exhaustive Bellman-Ford. *)
  let s = st () in
  for _ = 1 to 30 do
    let n = 2 + State.next_int s 8 in
    let arcs = ref [] in
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        if u <> v && State.next_float s < 0.4 then
          arcs := (u, v, 1 + State.next_int s 9) :: !arcs
      done
    done;
    let adj u = List.filter_map (fun (a, b, w) -> if a = u then Some (b, w) else None) !arcs in
    let src = State.next_int s n in
    let dij = Traverse.weighted_distances ~n ~adj ~src in
    (* Bellman-Ford *)
    let bf = Array.make n max_int in
    bf.(src) <- 0;
    for _ = 1 to n do
      List.iter
        (fun (u, v, w) -> if bf.(u) < max_int && bf.(u) + w < bf.(v) then bf.(v) <- bf.(u) + w)
        !arcs
    done;
    for v = 0 to n - 1 do
      if dij.(v) <> bf.(v) then Alcotest.failf "distance mismatch at node %d" v
    done
  done

(* --- obfuscation ------------------------------------------------------- *)

let test_obfuscate_covers () =
  let s = st () in
  let g = Generate.erdos_renyi_gnm s ~n:30 ~m:60 in
  let ob = Obfuscate.make s g ~c:2. in
  Alcotest.(check bool) "E subset of E'" true (Obfuscate.covers ob g);
  Alcotest.(check bool) "size at least c|E|" true (Obfuscate.size ob >= 120)

let test_obfuscate_c1_is_exact () =
  let s = st () in
  let g = Generate.erdos_renyi_gnm s ~n:20 ~m:40 in
  let ob = Obfuscate.make s g ~c:1. in
  Alcotest.(check int) "c=1 publishes exactly E" 40 (Obfuscate.size ob)

let test_obfuscate_caps_at_all_pairs () =
  let s = st () in
  let g = Digraph.create ~n:4 [ (0, 1); (1, 2) ] in
  let ob = Obfuscate.make s g ~c:100. in
  Alcotest.(check int) "capped at n(n-1)" 12 (Obfuscate.size ob)

let test_obfuscate_no_self_pairs () =
  let s = st () in
  let g = Generate.erdos_renyi_gnm s ~n:10 ~m:20 in
  let ob = Obfuscate.make s g ~c:3. in
  Obfuscate.iteri ob (fun _ u v -> if u = v then Alcotest.fail "self pair published")

let test_obfuscate_index_of () =
  let s = st () in
  let g = Generate.erdos_renyi_gnm s ~n:15 ~m:30 in
  let ob = Obfuscate.make s g ~c:2. in
  Obfuscate.iteri ob (fun idx u v ->
      match Obfuscate.index_of ob u v with
      | Some i when i = idx -> ()
      | _ -> Alcotest.fail "index_of inconsistent with iteri");
  Alcotest.(check bool) "c must be >= 1" true
    (try
       ignore (Obfuscate.make s g ~c:0.5);
       false
     with Invalid_argument _ -> true)

(* --- QCheck properties -------------------------------------------------- *)

(* The original obfuscation algorithm, kept as the oracle for the
   counting-sorted one: a Hashtbl of (u, v) tuples, sorted with
   polymorphic compare.  It draws the decoys exactly as [make] does. *)
let obfuscation_oracle st g ~c =
  let n = Digraph.n g in
  let total = if n <= 1 then 0 else n * (n - 1) in
  let e = Digraph.edge_count g in
  let target = min total (int_of_float (ceil (c *. float_of_int e))) in
  let chosen = Hashtbl.create (2 * target) in
  let key (u, v) = (u * n) + v in
  Digraph.iter_edges g (fun u v -> Hashtbl.replace chosen (key (u, v)) (u, v));
  while Hashtbl.length chosen < target do
    let k = State.next_int st total in
    let u = k / (n - 1) in
    let r = k mod (n - 1) in
    let v = if r < u then r else r + 1 in
    if not (Hashtbl.mem chosen (key (u, v))) then Hashtbl.replace chosen (key (u, v)) (u, v)
  done;
  let pairs = Array.of_seq (Hashtbl.to_seq_values chosen) in
  Array.sort Stdlib.compare pairs;
  pairs

let qcheck_tests =
  let open QCheck in
  [
    (* Random graphs on 0..60 nodes (n <= 2 every fifth case), c from 1
       up to and past the perfect-hiding limit n(n-1)/|E|: same pairs
       in the same order, and the same number of draws consumed. *)
    Test.make ~name:"obfuscation equals the sorted-tuple oracle" ~count:300
      (triple small_nat (int_range 0 60) (int_range 0 4))
      (fun (seed, n, dial) ->
        let s = State.create ~seed () in
        let n = if dial = 4 then n mod 3 else n in
        let arcs =
          if n < 2 then []
          else
            List.init (State.next_int s (n * (n - 1) / 2 + 1)) (fun _ ->
                (State.next_int s n, State.next_int s n))
            |> List.filter (fun (u, v) -> u <> v)
        in
        let g = Digraph.create ~n arcs in
        let limit = float_of_int (max 1 (n * (n - 1))) /. float_of_int (max 1 (Digraph.edge_count g)) in
        let c =
          match dial with
          | 0 -> 1.
          | 1 -> 1.5
          | 2 -> 3.
          | _ -> limit +. float_of_int (seed mod 3)
        in
        let a = State.create ~seed:(seed + 1) () and b = State.create ~seed:(seed + 1) () in
        let ob = Obfuscate.make a g ~c in
        ob.Obfuscate.pairs = obfuscation_oracle b g ~c
        && Int64.equal (State.next_int64 a) (State.next_int64 b));
    Test.make ~name:"gnm always produces requested count" ~count:100
      (pair small_nat small_nat)
      (fun (seed, raw) ->
        let s = State.create ~seed () in
        let n = 5 + (raw mod 20) in
        let m = (raw * 7) mod (n * (n - 1) / 2) in
        Digraph.edge_count (Generate.erdos_renyi_gnm s ~n ~m) = m);
    Test.make ~name:"degree sums equal edge count" ~count:50 small_nat
      (fun seed ->
        let s = State.create ~seed () in
        let g = Generate.erdos_renyi_gnp s ~n:40 ~p:0.1 in
        let out_sum = ref 0 and in_sum = ref 0 in
        for v = 0 to 39 do
          out_sum := !out_sum + Digraph.out_degree g v;
          in_sum := !in_sum + Digraph.in_degree g v
        done;
        !out_sum = Digraph.edge_count g && !in_sum = Digraph.edge_count g);
    Test.make ~name:"bfs distance is monotone along arcs" ~count:50 small_nat
      (fun seed ->
        let s = State.create ~seed () in
        let g = Generate.erdos_renyi_gnp s ~n:30 ~p:0.1 in
        let d = Traverse.bfs_distances g ~src:0 in
        Digraph.fold_edges g ~init:true ~f:(fun acc u v ->
            acc && (d.(u) = max_int || d.(v) <= d.(u) + 1)));
    Test.make ~name:"obfuscation covers and respects floor" ~count:50
      (pair small_nat (int_range 10 30))
      (fun (seed, n) ->
        let s = State.create ~seed () in
        let g = Generate.erdos_renyi_gnp s ~n ~p:0.1 in
        if Digraph.edge_count g = 0 then true
        else begin
          let ob = Obfuscate.make s g ~c:1.5 in
          Obfuscate.covers ob g
          && Obfuscate.size ob
             >= min (n * (n - 1))
                  (int_of_float (ceil (1.5 *. float_of_int (Digraph.edge_count g))))
        end);
  ]

let () =
  Alcotest.run "spe_graph"
    [
      ( "digraph",
        [
          Alcotest.test_case "create basics" `Quick test_create_basic;
          Alcotest.test_case "dedup" `Quick test_create_dedup;
          Alcotest.test_case "reject self-loop" `Quick test_create_rejects_self_loop;
          Alcotest.test_case "reject out of range" `Quick test_create_rejects_out_of_range;
          Alcotest.test_case "neighbors/degrees" `Quick test_neighbors_and_degrees;
          Alcotest.test_case "of_undirected" `Quick test_of_undirected;
          Alcotest.test_case "edges sorted" `Quick test_edges_sorted;
          Alcotest.test_case "fold_edges" `Quick test_fold_edges;
        ] );
      ( "generators",
        [
          Alcotest.test_case "gnp degenerate" `Quick test_gnp_degenerate;
          Alcotest.test_case "gnp density" `Quick test_gnp_density;
          Alcotest.test_case "gnm exact" `Quick test_gnm_exact;
          Alcotest.test_case "barabasi-albert" `Quick test_barabasi_albert;
          Alcotest.test_case "watts-strogatz" `Quick test_watts_strogatz;
          Alcotest.test_case "ws invalid k" `Quick test_ws_invalid;
          Alcotest.test_case "configuration model" `Quick test_configuration_model;
          Alcotest.test_case "configuration invalid" `Quick test_configuration_model_invalid;
          Alcotest.test_case "forest fire" `Quick test_forest_fire;
          Alcotest.test_case "forest fire zero burn" `Quick test_forest_fire_zero_burn;
        ] );
      ( "traversal",
        [
          Alcotest.test_case "bfs" `Quick test_bfs;
          Alcotest.test_case "bfs directionality" `Quick test_bfs_respects_direction;
          Alcotest.test_case "dijkstra" `Quick test_weighted_distances;
          Alcotest.test_case "bounded reachable" `Quick test_bounded_reachable;
          Alcotest.test_case "bad weight" `Quick test_weighted_rejects_bad_weight;
          Alcotest.test_case "dijkstra vs bellman-ford" `Quick test_dijkstra_vs_bruteforce;
        ] );
      ( "obfuscation",
        [
          Alcotest.test_case "covers E" `Quick test_obfuscate_covers;
          Alcotest.test_case "c=1 exact" `Quick test_obfuscate_c1_is_exact;
          Alcotest.test_case "cap at all pairs" `Quick test_obfuscate_caps_at_all_pairs;
          Alcotest.test_case "no self pairs" `Quick test_obfuscate_no_self_pairs;
          Alcotest.test_case "index_of" `Quick test_obfuscate_index_of;
        ] );
      ("properties", List.map (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 4242 |])) qcheck_tests);
    ]
