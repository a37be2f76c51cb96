(* The reproduction harness (Sec. 7 of the paper).

   Running this executable regenerates every evaluation artifact:

   - Table 1  — communication costs of Protocol 4 (analytic model vs
                the simulated wire, across m and n);
   - Table 2  — communication costs of Protocol 6 (measured with a
                small RSA modulus, plus the paper's z = 1024 analytic
                row);
   - Figure 1 — the Sec. 7.2 masking-gain histograms (uniform and
                unimodal priors, A = 10, 1000 trials per x);
   - Theorem 4.1 — leak rates of Protocol 2, theory vs Monte-Carlo;
   - Ablations — ciphertext packing, share modulus vs output precision,
                CELF vs plain greedy, and the c-factor privacy dial;
   - Bechamel micro-benchmarks — wall-clock per protocol run.

   EXPERIMENTS.md records paper-vs-measured for each artifact. *)

module State = Spe_rng.State
module Wire = Spe_mpc.Wire
module Digraph = Spe_graph.Digraph
module Generate = Spe_graph.Generate
module Log = Spe_actionlog.Log
module Cascade = Spe_actionlog.Cascade
module Partition = Spe_actionlog.Partition
module Counters = Spe_influence.Counters
module Link_strength = Spe_influence.Link_strength
module Maximize = Spe_influence.Maximize
module Protocol4 = Spe_core.Protocol4
module Protocol6 = Spe_core.Protocol6
module Driver = Spe_core.Driver
module Posterior = Spe_privacy.Posterior
module Gain = Spe_privacy.Gain
module Leakage = Spe_privacy.Leakage
module Model = Spe_cost.Model

let section title = Printf.printf "\n=== %s ===\n\n" title

let workload ~seed ~n ~edges ~actions =
  let s = State.create ~seed () in
  let g = Generate.erdos_renyi_gnm s ~n ~m:edges in
  let planted = Cascade.uniform_probabilities ~p:0.25 g in
  let log =
    Cascade.generate s planted
      { Cascade.num_actions = actions; seeds_per_action = 2; max_delay = 3 }
  in
  (s, g, log)

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1 - communication costs of Protocol 4 (per parameter setting)";
  Printf.printf "%5s %6s %6s %8s | %4s %6s %14s | %s\n" "n" "|E|" "q" "m" "NR" "NM"
    "MS (bits)" "model check";
  let rows = Spe_expt.Comm_costs.table1_sweep () in
  List.iter
    (fun (r : Spe_expt.Comm_costs.row) ->
      Printf.printf "%5d %6d %6d %8d | %4d %6d %14d | %s\n" r.Spe_expt.Comm_costs.n r.edges
        r.q r.m r.measured.Wire.rounds r.measured.Wire.messages r.measured.Wire.bits
        (if r.ok then "analytic = measured" else "MISMATCH"))
    rows;
  Printf.printf "\nPaper's closed forms: NR = 8, NM = m^2 + m + 7, MS = O(m^2 (n+q) log S).\n";
  Printf.printf "Model/measured agreement over all settings: %s\n"
    (if List.for_all (fun r -> r.Spe_expt.Comm_costs.ok) rows then "YES" else "NO");
  let model = Model.table1 ~n:100 ~q:800 ~m:5 ~modulus_bits:40 ~node_bits:7 ~counters:900 in
  Printf.printf "\nPer-round breakdown (n = 100, q = 800, m = 5, log S = 40):\n";
  Format.printf "%a" Model.pp model

(* ------------------------------------------------------------------ *)
(* Table 2                                                             *)
(* ------------------------------------------------------------------ *)

let table2 () =
  section "Table 2 - communication costs of Protocol 6";
  Printf.printf "%5s %6s %4s %6s | %4s %6s %14s | %s\n" "n" "q" "m" "A" "NR" "NM"
    "MS (bits)" "model check";
  let rows = Spe_expt.Comm_costs.table2_sweep () in
  List.iter
    (fun (r : Spe_expt.Comm_costs.row) ->
      Printf.printf "%5d %6d %4d %6d | %4d %6d %14d | %s\n" r.Spe_expt.Comm_costs.n r.q r.m
        r.actions r.measured.Wire.rounds r.measured.Wire.messages r.measured.Wire.bits
        (if r.ok then "analytic = measured" else "MISMATCH"))
    rows;
  Printf.printf "\nPaper's closed forms: NR = 4, NM = 3m, MS <= 2qzA (+ broadcasts).\n";
  Printf.printf "Model/measured agreement: %s\n"
    (if List.for_all (fun r -> r.Spe_expt.Comm_costs.ok) rows then "YES" else "NO");
  (match rows with
  | r :: _ ->
    let third = r.Spe_expt.Comm_costs.actions / 3 in
    let model1024 =
      Model.table2 ~q:r.Spe_expt.Comm_costs.q ~m:3 ~node_bits:6 ~key_bits:2048
        ~ciphertext_bits:1024
        ~actions_per_provider:
          [| r.Spe_expt.Comm_costs.actions - (2 * third); third; third |] ()
    in
    Printf.printf "\nAnalytic row at the paper's recommended z = 1024 (same workload):\n";
    Format.printf "%a" Model.pp model1024
  | [] -> ())

(* ------------------------------------------------------------------ *)
(* Figure 1                                                            *)
(* ------------------------------------------------------------------ *)

let figure1 () =
  section "Figure 1 - gain histograms for Protocol 3's masking (A = 10, 1000 trials/x)";
  List.iter
    (fun (row : Spe_expt.Privacy_expt.figure1_row) ->
      let r = row.Spe_expt.Privacy_expt.result in
      Printf.printf "Prior: %s\n" row.Spe_expt.Privacy_expt.prior_name;
      Printf.printf "  average gain      = %+.4f\n" r.Gain.average;
      Printf.printf "  positive fraction = %.3f\n" r.Gain.positive_fraction;
      Format.printf "%a" Gain.pp_histogram r.Gain.histogram;
      Printf.printf "\n")
    (Spe_expt.Privacy_expt.figure1 ());
  Printf.printf
    "Paper's observation: the average gain is positive but very small - the\n\
     observation helps slightly more often than it hurts, with no significant bias.\n"

(* ------------------------------------------------------------------ *)
(* Theorem 4.1 leakage                                                 *)
(* ------------------------------------------------------------------ *)

let leakage () =
  section "Theorem 4.1 - Protocol 2 leak rates, theory vs Monte-Carlo (S = 2^10, A = 100)";
  Printf.printf "%5s | %18s | %18s | %18s\n" "x" "P2 lower (th/mc)" "P2 upper (th/mc)"
    "P3 any (bound/mc)";
  List.iter
    (fun (row : Spe_expt.Privacy_expt.leakage_row) ->
      let o = row.Spe_expt.Privacy_expt.observed and t = row.Spe_expt.Privacy_expt.theory in
      let rate hits = float_of_int hits /. float_of_int o.Leakage.trials in
      Printf.printf "%5d | %8.4f / %7.4f | %8.4f / %7.4f | %8.4f / %7.4f\n"
        row.Spe_expt.Privacy_expt.x t.Leakage.p2_lower
        (rate o.Leakage.p2_lower_hits)
        t.Leakage.p2_upper
        (rate o.Leakage.p2_upper_hits)
        t.Leakage.p3_lower
        (rate (o.Leakage.p3_lower_hits + o.Leakage.p3_upper_hits)))
    (Spe_expt.Privacy_expt.theorem41 ());
  let s_req = Leakage.required_modulus ~input_bound:100 ~counters:1000 ~epsilon:0.01 in
  Printf.printf "\nSec. 5.1.1 sizing rule: eps = 1%% over 1000 counters needs S >= %d (2^%.1f).\n"
    s_req
    (log (float_of_int s_req) /. log 2.)

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation_packing () =
  section "Ablation - Protocol 6 ciphertext packing";
  let _, g, log = workload ~seed:31 ~n:60 ~edges:150 ~actions:10 in
  let s = State.create ~seed:32 () in
  let logs = Partition.exclusive s log ~m:3 in
  let run pack_slots =
    let s = State.create ~seed:33 () in
    let wire = Wire.create () in
    let config = { Protocol6.default_config with Protocol6.key_bits = 256; pack_slots } in
    let r = Protocol6.run s ~wire ~graph:g ~logs config in
    (r.Protocol6.ciphertexts, (Wire.stats wire).Wire.bits)
  in
  let ct_plain, bits_plain = run 1 in
  let ct_packed, bits_packed = run Spe_mpc.Pack.max_packed_bits in
  Printf.printf "unpacked: %6d ciphertexts, %10d wire bits\n" ct_plain bits_plain;
  Printf.printf "packed:   %6d ciphertexts, %10d wire bits (%.1fx reduction)\n" ct_packed
    bits_packed
    (float_of_int bits_plain /. float_of_int bits_packed)

let ablation_modulus_precision () =
  section "Ablation - share modulus S vs output precision (Protocol 4)";
  Printf.printf "%8s | %14s\n" "log2 S" "max |err| (rel)";
  List.iter
    (fun bits ->
      let s, g, log = workload ~seed:77 ~n:40 ~edges:120 ~actions:20 in
      let logs = Partition.exclusive s log ~m:3 in
      let config = { (Protocol4.default_config ~h:3) with Protocol4.modulus = 1 lsl bits } in
      let r = Driver.link_strengths_exclusive s ~graph:g ~logs config in
      let ct = Counters.compute log ~h:3 ~pairs:r.Driver.detail.Protocol4.pairs in
      let exact = Link_strength.restrict_to_graph ct (Link_strength.all_eq1 ct) g in
      let max_err =
        List.fold_left2
          (fun acc (_, p_exact) (_, p_secure) ->
            Float.max acc (abs_float (p_exact -. p_secure) /. (p_exact +. 1e-9)))
          0. exact r.Driver.strengths
      in
      Printf.printf "%8d | %14.3e\n" bits max_err)
    [ 20; 30; 40; 50 ];
  Printf.printf
    "\nLarger S strengthens Theorem 4.1's privacy but costs float precision\n\
     (53-bit mantissa vs log2 S-bit shares): the deployment dial of Sec. 5.1.1.\n"

let ablation_celf () =
  section "Ablation - influence maximisation: CELF vs plain greedy";
  let s = State.create ~seed:11 () in
  let g = Generate.erdos_renyi_gnm s ~n:40 ~m:160 in
  let model = { Maximize.graph = g; probability = (fun _ _ -> 0.15) } in
  let sg = State.create ~seed:12 () in
  let seeds_g, spread_g = Maximize.greedy sg model ~k:4 ~samples:200 in
  let evals_g = Maximize.evaluations () in
  let sc = State.create ~seed:12 () in
  let seeds_c, spread_c = Maximize.celf sc model ~k:4 ~samples:200 in
  let evals_c = Maximize.evaluations () in
  Printf.printf "greedy: seeds %s spread %.1f (%d spread evaluations)\n"
    (String.concat "," (List.map string_of_int seeds_g))
    spread_g evals_g;
  Printf.printf "celf:   seeds %s spread %.1f (%d spread evaluations, %.1fx fewer)\n"
    (String.concat "," (List.map string_of_int seeds_c))
    spread_c evals_c
    (float_of_int evals_g /. float_of_int evals_c)

let ablation_ris () =
  section "Ablation - seed selection engines: CELF vs reverse influence sampling";
  let s = State.create ~seed:13 () in
  let g = Generate.barabasi_albert s ~n:80 ~m:3 in
  let model = { Maximize.graph = g; probability = (fun _ _ -> 0.08) } in
  let k = 4 in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let celf_seeds, celf_time =
    time (fun () -> fst (Maximize.celf (State.create ~seed:14 ()) model ~k ~samples:200))
  in
  let ris_seeds, ris_time =
    time (fun () ->
        let rr = Spe_influence.Ris.sample (State.create ~seed:15 ()) model ~count:20_000 in
        Spe_influence.Ris.select rr ~k)
  in
  let eval seeds = Maximize.spread (State.create ~seed:16 ()) model ~seeds ~samples:3000 in
  Printf.printf "celf: spread %.2f in %.2fs (seeds %s)\n" (eval celf_seeds) celf_time
    (String.concat "," (List.map string_of_int celf_seeds));
  Printf.printf "ris:  spread %.2f in %.2fs (seeds %s, 20k RR sets)\n" (eval ris_seeds)
    ris_time
    (String.concat "," (List.map string_of_int ris_seeds))

let ablation_c_factor () =
  section "Ablation - the c-factor privacy dial (Protocol 4)";
  Printf.printf "%6s | %6s | %14s | %s\n" "c" "q" "MS (bits)" "decoy fraction";
  List.iter
    (fun c_factor ->
      let s, g, log = workload ~seed:55 ~n:60 ~edges:180 ~actions:20 in
      let logs = Partition.exclusive s log ~m:3 in
      let config = { (Protocol4.default_config ~h:3) with Protocol4.c_factor } in
      let r = Driver.link_strengths_exclusive s ~graph:g ~logs config in
      let q = Array.length r.Driver.detail.Protocol4.pairs in
      let e = Digraph.edge_count g in
      Printf.printf "%6.1f | %6d | %14d | %.2f\n" c_factor q r.Driver.wire.Wire.bits
        (float_of_int (q - e) /. float_of_int q))
    [ 1.; 1.5; 2.; 4.; 8. ]

let ablation_estimators () =
  section "Ablation - estimator quality: counting (Eq. 1) vs EM vs attribute shrinkage";
  Printf.printf "%8s | %10s | %10s | %10s | %12s\n" "traces" "Eq1 mse" "EM mse"
    "shrink mse" "EM iterations";
  List.iter
    (fun (r : Spe_expt.Estimators.quality_row) ->
      Printf.printf "%8d | %10.4f | %10.4f | %10.4f | %12d\n" r.Spe_expt.Estimators.traces
        r.eq1_mse r.em_mse r.shrunk_mse r.em_iterations)
    (Spe_expt.Estimators.quality_sweep ())

let ablation_generalisation () =
  section "Ablation - held-out generalisation (the paper's accuracy motivation)";
  Printf.printf "%8s | %12s | %12s | %12s\n" "traces" "Eq1 ll" "EM ll" "planted ll";
  List.iter
    (fun (r : Spe_expt.Estimators.generalisation_row) ->
      Printf.printf "%8d | %12.4f | %12.4f | %12.4f\n" r.Spe_expt.Estimators.traces r.eq1_ll
        r.em_ll r.planted_ll)
    (Spe_expt.Estimators.generalisation_sweep ());
  Printf.printf
    "\nMore conjoined traces push both estimators' held-out likelihood toward\n\
     the planted model's - the reason providers should pool data (Sec. 1),\n\
     which the secure protocols let them do without disclosure.\n"

let ablation_counter_engines () =
  section "Ablation - counter engines: dense probe vs sparse record-pair enumeration";
  Printf.printf "%22s | %12s | %12s | %s\n" "workload" "dense (ms)" "sparse (ms)" "winner";
  let time f =
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    1000. *. (Unix.gettimeofday () -. t0)
  in
  List.iter
    (fun (label, n, edges, actions, c_factor) ->
      let s = State.create ~seed:43 () in
      let g = Generate.erdos_renyi_gnm s ~n ~m:edges in
      let p = if c_factor > 10. then 0.02 else 0.2 in
      let planted = Cascade.uniform_probabilities ~p g in
      let log =
        Cascade.generate s planted
          { Cascade.num_actions = actions; seeds_per_action = 2; max_delay = 3 }
      in
      let ob = Spe_graph.Obfuscate.make s g ~c:c_factor in
      let pairs = ob.Spe_graph.Obfuscate.pairs in
      let td = time (fun () -> Counters.compute log ~h:3 ~pairs) in
      let ts = time (fun () -> Counters.compute_sparse log ~h:3 ~pairs) in
      Printf.printf "%22s | %12.1f | %12.1f | %s\n" label td ts
        (if td < ts then "dense" else "sparse"))
    [
      ("many actions, small q", 100, 300, 400, 1.);
      ("tiny cascades, all-pairs q", 300, 900, 100, 200.);
    ];
  Printf.printf
    "\nCounters.compute_auto picks the cheaper strategy from the probe-count\n\
     estimates; both engines are verified equal on random workloads.\n"

let ablation_protocol5_overhead () =
  section "Ablation - Protocol 5 obfuscation overhead: basic vs enhanced";
  Printf.printf "%8s | %14s | %14s | %s\n" "horizon" "basic (bits)" "enhanced (bits)" "padding factor";
  List.iter
    (fun horizon_scale ->
      let s = State.create ~seed:47 () in
      let g = Generate.erdos_renyi_gnm s ~n:30 ~m:120 in
      let planted = Cascade.uniform_probabilities ~p:0.3 g in
      let log =
        Cascade.generate s planted
          { Cascade.num_actions = 20; seeds_per_action = 1; max_delay = 3 }
      in
      (* Stretch the time axis: sparser slots mean more padding. *)
      let log =
        Log.map_records log
          (fun r -> { r with Log.time = r.Log.time * horizon_scale })
          ~num_users:30 ~num_actions:20
      in
      let run obfuscation =
        let s = State.create ~seed:48 () in
        let logs = Partition.non_exclusive s log
            ~spec:{ Partition.action_class = Array.make 20 0;
                    class_providers = [| [| 0; 1 |] |]; m = 2 } in
        let wire = Wire.create () in
        let _ =
          Spe_core.Protocol5.run s ~wire ~h:3
            ~providers:[| Wire.Provider 0; Wire.Provider 1 |]
            ~trusted:Wire.Host ~logs ~obfuscation
        in
        (Wire.stats wire).Wire.bits
      in
      let basic = run Spe_core.Protocol5.Basic in
      let enhanced = run Spe_core.Protocol5.Enhanced in
      Printf.printf "%8d | %14d | %14d | %.1fx\n" horizon_scale basic enhanced
        (float_of_int enhanced /. float_of_int basic))
    [ 1; 4; 16 ];
  Printf.printf
    "\nThe enhanced mode's per-slot padding grows with the time horizon: hiding\n\
     the temporal activity profile is cheap on dense timelines and expensive on\n\
     sparse ones - the deployment dial behind Sec. 5.2's two obfuscations.\n"

let ablation_montgomery () =
  section "Ablation - modular exponentiation: plain reduction vs Montgomery";
  let s = State.create ~seed:17 () in
  Printf.printf "%6s | %12s | %12s | %8s\n" "bits" "plain (ms)" "mont (ms)" "speedup";
  List.iter
    (fun bits ->
      let m = Spe_bignum.Nat.succ (Spe_bignum.Nat.shift_left (Spe_bignum.Nat.random_bits_exact s (bits - 1)) 1) in
      let ctx = Spe_bignum.Montgomery.create m in
      let b = Spe_bignum.Nat.random_below s m in
      let e = Spe_bignum.Nat.random_bits_exact s bits in
      (* Mean over as many calls as fit in 50 ms: a 128-bit pow takes
         microseconds, too short to time once. *)
      let time f =
        let r = f () in
        let t0 = Unix.gettimeofday () in
        let calls = ref 0 in
        while Unix.gettimeofday () -. t0 < 0.05 do
          ignore (f ());
          incr calls
        done;
        ((Unix.gettimeofday () -. t0) /. float_of_int (max 1 !calls), r)
      in
      let t_plain, r1 = time (fun () -> Spe_bignum.Nat.mod_pow ~base:b ~exp:e ~modulus:m) in
      let t_mont, r2 = time (fun () -> Spe_bignum.Montgomery.pow ctx ~base:b ~exp:e) in
      assert (Spe_bignum.Nat.equal r1 r2);
      Printf.printf "%6d | %12.3f | %12.3f | %7.1fx\n" bits (1000. *. t_plain)
        (1000. *. t_mont) (t_plain /. t_mont))
    [ 128; 256; 512; 1024; 2048 ]

let ablation_crypto_hot_paths () =
  section "Ablation - crypto hot paths: CRT decryption and fixed-base encryption";
  let s = State.create ~seed:23 () in
  let time_each n f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do ignore (f ()) done;
    1000. *. (Unix.gettimeofday () -. t0) /. float_of_int n
  in
  let reps = 20 in
  Printf.printf "%22s | %12s | %12s | %8s\n" "operation (1024-bit)" "plain (ms)" "accel (ms)"
    "speedup";
  (* RSA: CRT decryption against full-size exponentiation. *)
  let kp = Spe_crypto.Rsa.generate s ~bits:1024 in
  let m = Spe_bignum.Nat.random_below s kp.Spe_crypto.Rsa.public.Spe_crypto.Rsa.n in
  let c = Spe_crypto.Rsa.encrypt kp.Spe_crypto.Rsa.public m in
  let dec_plain = Spe_crypto.Rsa.decryptor ~crt:false kp.Spe_crypto.Rsa.secret in
  let dec_crt = Spe_crypto.Rsa.decryptor ~crt:true kp.Spe_crypto.Rsa.secret in
  assert (Spe_bignum.Nat.equal (dec_plain c) (dec_crt c));
  let t_plain = time_each reps (fun () -> dec_plain c) in
  let t_crt = time_each reps (fun () -> dec_crt c) in
  Printf.printf "%22s | %12.2f | %12.2f | %7.1fx\n" "rsa decrypt" t_plain t_crt
    (t_plain /. t_crt);
  (* Paillier: CRT decryption, then fixed-base window encryption. *)
  let pkp = Spe_crypto.Paillier.generate s ~bits:1024 in
  let pm = Spe_bignum.Nat.random_below s pkp.Spe_crypto.Paillier.public.Spe_crypto.Paillier.n in
  let pc = Spe_crypto.Paillier.encrypt s pkp.Spe_crypto.Paillier.public pm in
  let pdec_plain = Spe_crypto.Paillier.decryptor ~crt:false pkp.Spe_crypto.Paillier.secret in
  let pdec_crt = Spe_crypto.Paillier.decryptor ~crt:true pkp.Spe_crypto.Paillier.secret in
  assert (Spe_bignum.Nat.equal (pdec_plain pc) (pdec_crt pc));
  let t_pplain = time_each reps (fun () -> pdec_plain pc) in
  let t_pcrt = time_each reps (fun () -> pdec_crt pc) in
  Printf.printf "%22s | %12.2f | %12.2f | %7.1fx\n" "paillier decrypt" t_pplain t_pcrt
    (t_pplain /. t_pcrt);
  let enc_plain = Spe_crypto.Paillier.encryptor ~fixed_base:false s pkp.Spe_crypto.Paillier.public in
  let enc_fb = Spe_crypto.Paillier.encryptor ~fixed_base:true s pkp.Spe_crypto.Paillier.public in
  let t_eplain = time_each reps (fun () -> enc_plain pm) in
  let t_efb = time_each reps (fun () -> enc_fb pm) in
  Printf.printf "%22s | %12.2f | %12.2f | %7.1fx\n" "paillier encrypt" t_eplain t_efb
    (t_eplain /. t_efb);
  Printf.printf
    "\nCRT splits the secret exponentiation into two half-width ones (Garner\n\
     recombination); fixed-base windows turn the n-th-power re-randomiser into\n\
     table lookups.  Both are on by default behind Cipher; accel = false in\n\
     Protocol 6's config restores the plain paths (PERFORMANCE.md).\n"

let ablation_alternatives () =
  section "Ablation - the cryptographic alternatives the paper rejects (Secs. 4.1, 5.1.1)";
  (* Third-party Protocol 2 vs the millionaires-based variant. *)
  let s = State.create ~seed:19 () in
  let inputs = [| [| 3; 7; 1; 4 |]; [| 4; 2; 9; 5 |] |] in
  let parties = [| Wire.Provider 0; Wire.Provider 1 |] in
  let wire_tp = Wire.create () in
  let _ =
    Spe_mpc.Protocol2.run s ~wire:wire_tp ~parties ~third_party:Wire.Host ~modulus:(1 lsl 16)
      ~input_bound:100 ~inputs
  in
  let wire_crypto = Wire.create () in
  let _ =
    Spe_mpc.Protocol2_crypto.run s ~wire:wire_crypto ~parties ~modulus:(1 lsl 16)
      ~input_bound:100 ~inputs
  in
  Printf.printf "Protocol 2, 4 counters at S = 2^16:\n";
  Printf.printf "  third-party trick       : %8d bits\n" (Wire.stats wire_tp).Wire.bits;
  Printf.printf "  millionaires (Lin-Tzeng): %8d bits (%.0fx more)\n"
    (Wire.stats wire_crypto).Wire.bits
    (float_of_int (Wire.stats wire_crypto).Wire.bits
    /. float_of_int (Wire.stats wire_tp).Wire.bits);
  (* Standard Protocol 4 vs the perfectly hiding OT variant,
     analytically at the paper's scale. *)
  let n = 1000 and edges = 4000 in
  let std =
    (Model.table1 ~n ~q:(2 * edges) ~m:2 ~modulus_bits:40
       ~node_bits:(Wire.bits_for_int_mod n) ~counters:(n + (2 * edges)))
      .Model.ms
  in
  let oblivious =
    Spe_core.Protocol4_oblivious.analytic_wire_bits ~n ~edges ~key_bits:1024 ~modulus_bits:40
  in
  Printf.printf "\nProtocol 4 at n = %d, |E| = %d (analytic):\n" n edges;
  Printf.printf "  published pair set (c = 2)  : %.2e bits\n" (float_of_int std);
  Printf.printf "  perfect hiding via OT       : %.2e bits (%.0fx more)\n"
    (float_of_int oblivious)
    (float_of_int oblivious /. float_of_int std)

let ablation_multi_host () =
  section "Ablation - multi-host Protocol 4 (Sec. 8 future work): shared vs separate batches";
  let s = State.create ~seed:23 () in
  let g = Generate.barabasi_albert s ~n:40 ~m:3 in
  let planted = Cascade.uniform_probabilities ~p:0.3 g in
  let log = Cascade.generate s planted { Cascade.num_actions = 20; seeds_per_action = 1; max_delay = 2 } in
  let logs = Partition.exclusive s log ~m:3 in
  List.iter
    (fun t ->
      (* Random arc split across t hosts. *)
      let buckets = Array.make t [] in
      Digraph.iter_edges g (fun u v ->
          let j = State.next_int s t in
          buckets.(j) <- (u, v) :: buckets.(j));
      let graphs = Array.map (fun arcs -> Digraph.create ~n:(Digraph.n g) arcs) buckets in
      let config = Protocol4.default_config ~h:2 in
      let wire = Wire.create () in
      let _ = Spe_core.Protocol4_multi_host.run s ~wire ~graphs ~logs config in
      let shared = (Wire.stats wire).Wire.bits in
      let separate =
        Array.fold_left
          (fun acc gj ->
            if Digraph.edge_count gj = 0 then acc
            else begin
              let w = Wire.create () in
              let pairs = Protocol4.publish_pairs s ~wire:w ~graph:gj ~m:3 ~c_factor:2. in
              let inputs = Array.map (fun l -> Protocol4.provider_input_of_log l ~h:2 ~pairs) logs in
              let _ = Protocol4.run s ~wire:w ~graph:gj ~num_actions:20 ~pairs ~inputs config in
              acc + (Wire.stats w).Wire.bits
            end)
          0 graphs
      in
      Printf.printf "t = %d hosts: shared batch %8d bits, separate runs %8d bits (%.2fx saving)\n"
        t shared separate
        (float_of_int separate /. float_of_int shared))
    [ 2; 3; 5 ]

let ablation_transport () =
  section "Ablation - transport overhead: simulated wire vs in-memory channels vs unix sockets";
  let module P1d = Spe_mpc.Protocol1_distributed in
  let module Session = Spe_mpc.Session in
  let module Runtime = Spe_mpc.Runtime in
  let module Endpoint = Spe_net.Endpoint in
  let module Net_wire = Spe_net.Net_wire in
  let m = 4 and len = 256 in
  let modulus = 1 lsl 40 in
  let parties = Array.init m (fun k -> Wire.Provider k) in
  let gen = State.create ~seed:61 () in
  let inputs = Array.init m (fun _ -> Array.init len (fun _ -> State.next_int gen modulus)) in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  Printf.printf "%10s | %10s | %12s | %12s | %s\n" "engine" "time (ms)" "payload (B)"
    "on-wire (B)" "overhead";
  let sim_payload = ref 0 in
  let () =
    let (stats : Wire.stats), dt =
      time (fun () ->
          let s = State.create ~seed:62 () in
          let session = P1d.make s ~parties ~modulus ~inputs in
          let engine = Runtime.create () in
          Array.iteri (fun k p -> Runtime.add_party engine p session.Session.programs.(k))
            session.Session.parties;
          let w = Wire.create () in
          let _ = Runtime.run engine ~wire:w ~max_rounds:P1d.max_rounds in
          Wire.stats w)
    in
    sim_payload := stats.Wire.bits / 8;
    Printf.printf "%10s | %10.2f | %12d | %12s | %s\n" "sim" (1000. *. dt) !sim_payload "-" "-"
  in
  List.iter
    (fun (label, engine) ->
      let (res : Endpoint.result), dt =
        time (fun () ->
            let s = State.create ~seed:62 () in
            let session = P1d.make s ~parties ~modulus ~inputs in
            engine ~parties:session.Session.parties ~programs:session.Session.programs
              ~max_rounds:P1d.max_rounds ())
      in
      let totals =
        Net_wire.totals
          (Array.map (fun (o : Endpoint.outcome) -> o.Endpoint.sent) res.Endpoint.outcomes)
      in
      assert (totals.Net_wire.payload_bytes = !sim_payload);
      Printf.printf "%10s | %10.2f | %12d | %12d | %.3fx\n" label (1000. *. dt)
        totals.Net_wire.payload_bytes res.Endpoint.transport_bytes
        (float_of_int res.Endpoint.transport_bytes /. float_of_int totals.Net_wire.payload_bytes))
    [
      ("memory", fun ~parties ~programs ~max_rounds () ->
          Endpoint.run_memory ~parties ~programs ~max_rounds ());
      ("socket", fun ~parties ~programs ~max_rounds () ->
          Endpoint.run_socket ~parties ~programs ~max_rounds ());
    ];
  Printf.printf
    "\nThe payload bytes are engine-independent (the MS statistic); the real\n\
     transports add the framing derived in DESIGN.md - length prefixes, data\n\
     headers, round barriers and (for sockets) the connection handshakes.\n"

(* Plan build: [Job.build] at perfbench's three workload sizes, on
   inputs generated the way perfbench generates them (a G(n, m) graph,
   cascades with one seed per action, actions split round-robin between
   two providers), and the draw and framing kernels under it.  Each row
   is the median and quartiles of the per-call time over nine timed
   batches, plus minor words per call. *)
let ablation_plan_build () =
  section "Ablation - plan build: Job.build and its draw kernels";
  let module Proto = Spe_serve.Serve_proto in
  let module Job = Spe_serve.Job in
  let module Obfuscate = Spe_graph.Obfuscate in
  let module P2d = Spe_mpc.Protocol2_distributed in
  let module Runtime = Spe_mpc.Runtime in
  let module Frame = Spe_net.Frame in
  let batches = 9 in
  let row label f =
    ignore (Sys.opaque_identity (f ()));
    (* Enough calls for a batch of at least 20 ms. *)
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    let calls = max 1 (int_of_float (0.02 /. max 1e-7 (Unix.gettimeofday () -. t0))) in
    let batch () =
      for _ = 1 to calls do
        ignore (Sys.opaque_identity (f ()))
      done
    in
    let per_call =
      Array.init batches (fun _ ->
          let t0 = Unix.gettimeofday () in
          batch ();
          (Unix.gettimeofday () -. t0) /. float_of_int calls)
    in
    let w0 = Gc.minor_words () in
    batch ();
    let words = (Gc.minor_words () -. w0) /. float_of_int calls in
    Array.sort compare per_call;
    let ms i = 1000. *. per_call.(i) in
    Printf.printf "%-34s | %8.3f | %8.3f | %8.3f | %12.0f\n" label (ms (batches / 4))
      (ms (batches / 2)) (ms (batches - 1 - (batches / 4))) words
  in
  Printf.printf "%-34s | %8s | %8s | %8s | %12s\n" "row (ms per call)" "q1" "median" "q3"
    "minor words";
  let inputs (users, edges, actions, p) =
    let s = State.create ~seed:113 () in
    let graph = Generate.erdos_renyi_gnm s ~n:users ~m:edges in
    let log =
      Cascade.generate s
        (Cascade.uniform_probabilities ~p graph)
        { Cascade.num_actions = actions; seeds_per_action = 1; max_delay = 3 }
    in
    { Job.graph; logs = Partition.exclusive_by_action log ~owner:(fun a -> a mod 2) ~m:2 }
  in
  let base = { Proto.default_spec with Proto.shards = 2 } in
  let links = { base with Proto.pipeline = Proto.Links; h = 2; c_factor = 2.; modulus_bits = 40 } in
  let links_inputs = inputs (1000, 5000, 60, 0.25) in
  List.iter
    (fun (name, w, spec) ->
      let job = ref 0 in
      row ("Job.build " ^ name) (fun () ->
          incr job;
          Job.build { spec with Proto.seed = (113 * 1_048_576) + !job } w))
    [
      ("serve-links", links_inputs, links);
      ( "serve-scores",
        inputs (30, 120, 8, 0.25),
        { base with Proto.pipeline = Proto.Scores; tau = 6; key_bits = 256; pack_slots = 1; modulus_bits = 20 } );
      ( "serve-stream",
        inputs (300, 1200, 200, 0.05),
        {
          links with
          Proto.pipeline = Proto.Stream;
          epoch_ticks = 100;
          window = 3;
          epochs = 8;
          rate = 0.6;
          burstiness = 0.3;
          jitter = 2;
        } );
    ];
  let graph = links_inputs.Job.graph in
  let s = State.create ~seed:7 () in
  row "Obfuscate.make n=1000 c=2" (fun () -> Obfuscate.make s graph ~c:2.);
  let length = 11_000 in
  let draw () = P2d.draw s ~m:2 ~modulus:(1 lsl 40) ~input_bound:60 ~length in
  row "Protocol 2 draw, 11000 counters" draw;
  let r = draw () in
  row "two 5500-counter slices" (fun () ->
      (P2d.slice r ~start:0 ~len:(length / 2), P2d.slice r ~start:(length / 2) ~len:(length / 2)));
  let modulus = 3 * (1 lsl 40) in
  let payload = Runtime.Ints { modulus; values = Array.init length (fun _ -> State.next_int s modulus) } in
  row "payload_bits, 11000 residues" (fun () -> Runtime.payload_bits payload);
  let frame =
    Frame.Data { round = 2; seq = 0; src = Wire.Provider 0; dst = Wire.Host; payload }
  in
  row "Frame.encode, 11000 residues" (fun () -> Frame.encode frame);
  Printf.printf
    "\nEvery daemon pays Job.build for every job.  PERFORMANCE.md (\"Plan build\")\n\
     has the before/after table and the traced serve-links layers.\n"

(* ------------------------------------------------------------------ *)
(* Bench trajectory: BENCH_protocols.json                              *)
(* ------------------------------------------------------------------ *)

(* One spe-metrics/2 report per (pipeline, engine) — the full pipelines
   from Shard at k = 1, lowered to one session, each run with a
   recording trace and aggregated by Spe_obs.Metrics exactly like `spe
   ... --metrics json` does.  The rows land in BENCH_protocols.json (schema
   spe-bench/1; field docs in OBSERVABILITY.md) for the plotting
   scripts, and the trace accounting is asserted against Net_wire /
   the simulated wire on every row. *)

let bench_json_path = "BENCH_protocols.json"

let pipeline_reports () =
  let module Session = Spe_mpc.Session in
  let module Endpoint = Spe_net.Endpoint in
  let module Net_wire = Spe_net.Net_wire in
  let module Plan = Spe_core.Plan in
  let module Shard = Spe_core.Shard in
  let s, g, log = workload ~seed:57 ~n:30 ~edges:90 ~actions:12 in
  let logs = Partition.exclusive s log ~m:3 in
  let p4_config = Protocol4.default_config ~h:2 in
  let p6_config = { Protocol6.default_config with Protocol6.key_bits = 128 } in
  let session plan = Session.map ignore (Plan.to_session plan) in
  let scores config st =
    session
      (Shard.user_scores_exclusive st ~graph:g ~logs ~tau:6 ~modulus:(1 lsl 20) ~shards:1
         config)
  in
  let pipelines =
    [
      ("links", fun st ->
          session (Shard.links_exclusive st ~graph:g ~logs ~shards:1 p4_config));
      ("scores", scores p6_config);
      (* Tentpole ablations: the same scores pipeline with the crypto
         accelerations disabled (plain decrypt exponent, no fixed-base
         windows, per-call Montgomery contexts) and with plaintext
         packing at full width.  Before/after rows for PERFORMANCE.md. *)
      ("scores-noaccel", scores { p6_config with Protocol6.accel = false });
      ( "scores-packed",
        scores { p6_config with Protocol6.pack_slots = Spe_mpc.Pack.max_packed_bits } );
    ]
  in
  let run_endpoint trace session runner =
    let (), (res : Endpoint.result) = runner ~trace session in
    let totals =
      Net_wire.totals
        (Array.map (fun (o : Endpoint.outcome) -> o.Endpoint.sent) res.Endpoint.outcomes)
    in
    (totals.Net_wire.messages, totals.Net_wire.payload_bytes)
  in
  let engines =
    [
      ("sim", fun trace session ->
          let w = Wire.create () in
          let () = Session.run ~trace session ~wire:w in
          let stats = Wire.stats w in
          (stats.Wire.messages, stats.Wire.bits / 8));
      ("memory", fun trace session ->
          run_endpoint trace session (fun ~trace s -> Endpoint.run_session_memory ~trace s));
      ("socket", fun trace session ->
          run_endpoint trace session (fun ~trace s -> Endpoint.run_session_socket ~trace s));
    ]
  in
  List.concat_map
    (fun (pipeline, build) ->
      let payload_ref = ref None in
      List.map
        (fun (engine, run) ->
          let session = build (State.create ~seed:64 ()) in
          let trace = Spe_obs.Trace.create () in
          let messages, payload_bytes = run trace session in
          (match !payload_ref with
          | None -> payload_ref := Some payload_bytes
          | Some p -> assert (p = payload_bytes));
          let report =
            Spe_obs.Metrics.of_trace ~protocol:pipeline ~engine
              ~parties:(Array.length session.Spe_mpc.Session.parties) trace
          in
          assert (Spe_obs.Metrics.equal_accounting report ~messages ~payload_bytes);
          report)
        engines)
    pipelines

(* Drive a plan on a real transport with one recording trace per
   session; returns the result, one spe-metrics report per session,
   and the payload bytes summed over every session's endpoint logs. *)
let execute_traced ~protocol ~workers engine plan =
  let module Endpoint = Spe_net.Endpoint in
  let module Plan = Spe_core.Plan in
  (* A full pipeline has long compute rounds; local transports are
     reliable, so wait out the compute instead of Nacking it. *)
  let config = { Endpoint.default_config with Endpoint.round_timeout = 300.; linger = 310. } in
  let engine_name = match engine with `Memory -> "memory" | `Socket -> "socket" in
  let r, runs =
    Plan.execute ~config ~workers ~traces:(fun _ -> Spe_obs.Trace.create ()) ~engine plan
  in
  let payload =
    List.fold_left
      (fun acc (run : Plan.run) ->
        let res = run.Plan.endpoint in
        acc
        + (Spe_net.Net_wire.totals
             (Array.map (fun (o : Endpoint.outcome) -> o.Endpoint.sent) res.Endpoint.outcomes))
            .Spe_net.Net_wire.payload_bytes)
      0 runs
  in
  let reports =
    List.map
      (fun (run : Plan.run) ->
        Spe_obs.Metrics.of_trace ~protocol ~engine:engine_name ~parties:run.Plan.parties
          run.Plan.trace)
      runs
  in
  (r, reports, payload)

(* The sim engine's twin of [execute_traced]: the plan lowered to one
   session under a recording trace; returns the result, the session's
   spe-metrics report and the wire's payload bytes. *)
let sim_traced ~protocol ?(engine = "sim") plan =
  let module Plan = Spe_core.Plan in
  let session = Plan.to_session plan in
  let trace = Spe_obs.Trace.create () in
  let w = Wire.create () in
  let r = Spe_mpc.Session.run ~trace session ~wire:w in
  ( r,
    Spe_obs.Metrics.of_trace ~protocol ~engine
      ~parties:(Array.length session.Spe_mpc.Session.parties) trace,
    (Wire.stats w).Wire.bits / 8 )

(* Sharding ablation: the links pipeline cut into k shards on every
   engine (DESIGN.md, "Sharded execution"), j = 4 concurrent sessions
   on the real transports, where j bounds sessions in flight on the
   one reactor loop.  Payload bytes are asserted k-invariant across
   all twelve rows; each row's wall_s is the observed end-to-end wall
   clock of the whole plan (the per-shard session walls live in the
   row's shards table), so the transport rows price the reactor's
   per-shard cost directly. *)
let sharding_reports () =
  let module Shard = Spe_core.Shard in
  let module Metrics = Spe_obs.Metrics in
  let s, g, log = workload ~seed:67 ~n:120 ~edges:480 ~actions:16 in
  let logs = Partition.exclusive s log ~m:3 in
  let config = Protocol4.default_config ~h:2 in
  let payload_ref = ref None in
  let check_payload p =
    match !payload_ref with
    | None -> payload_ref := Some p
    | Some q -> assert (p = q)
  in
  List.concat_map
    (fun shards ->
      let protocol = Printf.sprintf "links-k%d" shards in
      List.map
        (fun engine ->
          let plan =
            Shard.links_exclusive (State.create ~seed:68 ()) ~graph:g ~logs ~shards config
          in
          let t0 = Unix.gettimeofday () in
          let report =
            match engine with
            | `Sim ->
              let _, report, payload = sim_traced ~protocol plan in
              check_payload payload;
              report
            | (`Memory | `Socket) as engine ->
              let _, reports, payload = execute_traced ~protocol ~workers:4 engine plan in
              check_payload payload;
              Metrics.merge reports
          in
          { report with Metrics.wall_s = Unix.gettimeofday () -. t0 })
        [ `Sim; `Memory; `Socket ])
    [ 1; 2; 4; 8 ]

(* Rank trajectory: the second estimand family (Protocol_rank) on every
   engine.  Each engine runs the same 2-shard plan from the same seed
   and must publish exactly the plaintext oracle's fixed-point vector —
   the assert below is the bit-identity acceptance check; the rows land
   in BENCH_protocols.json beside the links/scores/stream families. *)
let rank_reports () =
  let module Metrics = Spe_obs.Metrics in
  let module Oracle = Spe_rank.Oracle in
  let module Protocol_rank = Spe_rank.Protocol_rank in
  let s, g, log = workload ~seed:71 ~n:30 ~edges:90 ~actions:12 in
  let logs = Partition.exclusive s log ~m:3 in
  let oracle = { Oracle.default_config with Oracle.iterations = 10; fbits = 18 } in
  let config = { Protocol_rank.oracle; modulus = 1 lsl 40 } in
  let n = Digraph.n g in
  let activity = Array.make n 0 in
  Array.iter
    (fun l ->
      Array.iteri (fun i v -> activity.(i) <- activity.(i) + v) (Log.user_activity l))
    logs;
  let reference = Oracle.fixed oracle g ~activity in
  let payload_ref = ref None in
  let check_payload p =
    match !payload_ref with
    | None -> payload_ref := Some p
    | Some q -> assert (p = q)
  in
  List.map
    (fun engine ->
      let plan =
        Protocol_rank.plan (State.create ~seed:72 ()) ~graph:g ~logs ~shards:2 config
      in
      let t0 = Unix.gettimeofday () in
      let report, result =
        match engine with
        | `Sim ->
          let r, report, payload = sim_traced ~protocol:"rank" plan in
          check_payload payload;
          (report, r)
        | (`Memory | `Socket) as engine ->
          let r, reports, payload = execute_traced ~protocol:"rank" ~workers:4 engine plan in
          check_payload payload;
          (Metrics.merge reports, r)
      in
      assert (result.Protocol_rank.ranks_fx = reference);
      { report with Metrics.wall_s = Unix.gettimeofday () -. t0 })
    [ `Sim; `Memory; `Socket ]

(* DP utility table: MAE of the seeded Laplace release against the
   exact published values — the rank vector and the link strengths —
   per epsilon.  Rides into BENCH_protocols.json as an extra top-level
   member (spe-bench/1 readers ignore members they do not know).
   epsilon = infinity is asserted exact here instead of tabulated:
   infinity has no JSON literal. *)
let dp_utility_extra () =
  let module Json = Spe_obs.Obs_io.Json in
  let module Dp = Spe_privacy.Dp_release in
  let module Oracle = Spe_rank.Oracle in
  let s, g, log = workload ~seed:81 ~n:40 ~edges:120 ~actions:14 in
  let logs = Partition.exclusive s log ~m:3 in
  let n = Digraph.n g in
  let activity = Array.make n 0 in
  Array.iter
    (fun l ->
      Array.iteri (fun i v -> activity.(i) <- activity.(i) + v) (Log.user_activity l))
    logs;
  let oracle = Oracle.default_config in
  let ranks = Oracle.to_floats oracle (Oracle.fixed oracle g ~activity) in
  let strengths =
    (Driver.link_strengths_exclusive s ~graph:g ~logs (Protocol4.default_config ~h:2))
      .Driver.strengths
  in
  assert (Dp.values { Dp.epsilon = infinity; sensitivity = 1.; seed = 4099 } ranks = ranks);
  Printf.printf "\nDP utility (Laplace on the published values, seed 4099):\n";
  let rows =
    List.map
      (fun epsilon ->
        let params = { Dp.epsilon; sensitivity = 1.; seed = 4099 } in
        let released = Dp.values params ranks in
        (* Same params, same draws: the release must replay byte for byte. *)
        assert (Dp.values params ranks = released);
        let rank_mae = Dp.mean_abs_error ranks released in
        let strength_mae =
          Dp.mean_abs_error_strengths strengths (Dp.strengths params strengths)
        in
        Printf.printf "  epsilon %4.1f | rank MAE %.4f | strength MAE %.4f\n" epsilon
          rank_mae strength_mae;
        Json.Obj
          [
            ("epsilon", Json.Float epsilon);
            ("rank_mae", Json.Float rank_mae);
            ("strength_mae", Json.Float strength_mae);
          ])
      [ 0.1; 0.5; 1.0; 5.0 ]
  in
  ("dp_utility", Json.List rows)

(* Serve ablation: the same 50-job links load submitted two ways — a
   fresh addressed socket group per job (every session pays the
   connection rendezvous again) vs one persistent spe-serve deployment
   (the mesh's Hello exchange is paid once per connection, jobs
   multiplex over it and pipeline through H's bounded queue).  Both
   rows land in BENCH_protocols.json; the daemon row's report is the
   deployment's own cumulative scrape report (what `spe scrape`
   serves), relabelled for the trajectory. *)
let serve_reports () =
  let module Schedule = Spe_chaos.Schedule in
  let module Harness = Spe_chaos.Harness in
  let module Proto = Spe_serve.Serve_proto in
  let module Job = Spe_serve.Job in
  let module Daemon = Spe_serve.Daemon in
  let module Client = Spe_serve.Client in
  let module Shard = Spe_core.Shard in
  let module Metrics = Spe_obs.Metrics in
  let module Transport = Spe_net.Transport in
  let jobs = 50 in
  let protocol = "links-50jobs" in
  let workload = { Schedule.wseed = 11; users = 12; edges = 30; actions = 6; providers = 2 } in
  let graph, logs = Harness.workload_inputs workload in
  let m = Array.length logs in
  let pseed = workload.Schedule.wseed + 1 in
  let config = Protocol4.default_config ~h:2 in
  (* Row 1: per-job spawn, sequential — each job stands its sessions'
     socket groups up from scratch and tears them down again. *)
  let respawn_reports = ref [] in
  let t0 = Unix.gettimeofday () in
  for _job = 1 to jobs do
    let plan =
      Shard.links_exclusive (State.create ~seed:pseed ()) ~graph ~logs ~shards:2 config
    in
    let _, reports, _ = execute_traced ~protocol ~workers:4 `Socket plan in
    respawn_reports := List.rev_append reports !respawn_reports
  done;
  let respawn_wall = Unix.gettimeofday () -. t0 in
  let respawn =
    {
      (Metrics.merge (List.rev !respawn_reports)) with
      Metrics.engine = "respawn";
      wall_s = respawn_wall;
    }
  in
  (* Row 2: one persistent deployment, all 50 jobs pipelined at once
     through H's admission queue. *)
  let roster = Transport.Socket.temp_unix_addresses ~m:(m + 1) in
  let maddrs = Transport.Socket.temp_unix_addresses ~m:(m + 1) in
  let daemons =
    Array.init (m + 1) (fun party ->
        Daemon.start
          {
            (Daemon.default_config ~party ~roster) with
            Daemon.metrics_addr = Some maddrs.(party);
            round_timeout = 60.;
            linger = 61.;
            dial_timeout = 15.;
          }
          { Job.graph; logs })
  in
  let client = Client.connect ~retry_for:10. roster.(0) in
  let spec =
    {
      Proto.default_spec with
      Proto.pipeline = Proto.Links;
      seed = pseed;
      shards = 2;
      h = 2;
      c_factor = 2.;
      modulus_bits = 40;
    }
  in
  let t0 = Unix.gettimeofday () in
  let outcomes =
    Client.run_jobs client
      (List.init jobs (fun _ -> spec))
      ~deadline:(Unix.gettimeofday () +. 300.)
  in
  let daemon_wall = Unix.gettimeofday () -. t0 in
  let completed =
    List.length
      (List.filter
         (function Client.Result (Proto.Strengths _) -> true | _ -> false)
         outcomes)
  in
  assert (completed = jobs);
  (* A provider records a seat's report when the seat finishes, which
     can trail H's reply; read the reports only once every daemon has
     run all its seats of every job. *)
  let planned = Job.build spec { Job.graph; logs } in
  let gauge d name = Option.value ~default:0 (List.assoc_opt name (Daemon.gauges d)) in
  let settle = Unix.gettimeofday () +. 10. in
  Array.iteri
    (fun party d ->
      let seats, _ = Job.seats ~job:0 ~party planned in
      let expected = jobs * List.length (List.concat seats) in
      while gauge d "sessions_run" < expected && Unix.gettimeofday () < settle do
        Thread.delay 0.001
      done;
      assert (gauge d "sessions_run" = expected))
    daemons;
  let hellos = Array.fold_left (fun acc d -> acc + gauge d "hellos_received") 0 daemons in
  let reports = Array.to_list daemons |> List.filter_map Daemon.report in
  Client.close client;
  ignore (Client.shutdown_roster ~timeout:15. roster);
  Array.iter (fun d -> Daemon.wait ~timeout:30. d) daemons;
  assert (reports <> []);
  let daemon_row =
    { (Metrics.merge reports) with Metrics.protocol; engine = "daemon"; wall_s = daemon_wall }
  in
  (* Every job moves the same payload, so the deployment's cumulative
     bytes equal the per-job respawn total. *)
  assert (daemon_row.Metrics.payload_bytes = respawn.Metrics.payload_bytes);
  Printf.printf
    "serve ablation (%d links jobs, m = %d): per-job spawn %.2f s (%.0f ms/job),\n\
     persistent daemons %.2f s (%.0f ms/job, %.1fx); %d mesh hellos total for the\n\
     whole deployment — one per connection — vs a fresh rendezvous per session\n\
     per job when respawning.\n\n"
    jobs m respawn_wall
    (1000. *. respawn_wall /. float_of_int jobs)
    daemon_wall
    (1000. *. daemon_wall /. float_of_int jobs)
    (respawn_wall /. daemon_wall) hellos;
  [ respawn; daemon_row ]

(* Streaming ablation: the epoch-delta pipeline vs a full recompute of
   every counter group each epoch, on all three engines.  Both modes
   come from Job's one stream ingestion (seeded Spe_actionlog.Source
   arrivals through windowed accumulators) over the same spec, so the
   released digests must agree bit-for-bit — asserted per engine —
   while the delta rows pay only for the dirty groups.  Each row's
   wall_s is the end-to-end streaming wall clock (ingestion + epoch
   sessions); a synthetic "stream-ingest" phase row carries the epoch
   and record counts, so sustained updates/s =
   phases["stream-ingest"].messages / wall_s is recoverable from
   BENCH_protocols.json alone. *)
let stream_reports () =
  let module Plan = Spe_core.Plan in
  let module Delta = Spe_core.Delta in
  let module Metrics = Spe_obs.Metrics in
  let module Proto = Spe_serve.Serve_proto in
  let module Job = Spe_serve.Job in
  let seed = 91 in
  let s, g, log = workload ~seed ~n:40 ~edges:120 ~actions:10 in
  let wl = { Job.graph = g; logs = Partition.exclusive s log ~m:3 } in
  let spec =
    {
      Proto.default_spec with
      Proto.pipeline = Proto.Stream;
      seed;
      epochs = 6;
      epoch_ticks = 25;
      window = 8;
      h = 2;
      rate = 0.6;
      burstiness = 0.3;
      jitter = 2;
      c_factor = 2.;
      modulus_bits = 40;
    }
  in
  let epochs = spec.Proto.epochs in
  (* On sim each epoch's stages are lowered to one session of their
     own; the transport engines run the whole plan, one report per
     session. *)
  let run_stages engine stages =
    match engine with
    | `Sim ->
      List.init epochs (fun e ->
          let (), report, _ =
            sim_traced ~protocol:"stream" ~engine:"-"
              (Plan.make ~shards:1
                 ~stages:(List.filter (fun (st : Plan.stage) -> st.Plan.epoch = Some e) stages)
                 ~result:ignore)
          in
          report)
    | (`Memory | `Socket) as engine ->
      let (), reports, _ =
        execute_traced ~protocol:"stream" ~workers:2 engine
          (Plan.make ~shards:1 ~stages ~result:ignore)
      in
      reports
  in
  let run_mode mode engine_name engine =
    let t0 = Unix.gettimeofday () in
    let planned, arrivals = Job.build_stream ~mode spec wl in
    let reports = run_stages engine (Job.stages planned) in
    let digests =
      match Job.reply_of planned with
      | Proto.Stream_summary { digests; _ } -> digests
      | _ -> assert false
    in
    let wall = Unix.gettimeofday () -. t0 in
    let records = Array.fold_left ( + ) 0 arrivals in
    let protocol =
      match mode with Delta.Delta -> "stream-delta" | Delta.Full -> "stream-full"
    in
    let merged = Metrics.merge reports in
    let ingest =
      {
        Metrics.phase = "stream-ingest";
        rounds = epochs;
        messages = records;
        payload_bytes = 0;
        wall_s = wall;
      }
    in
    let row =
      {
        merged with
        Metrics.protocol;
        engine = engine_name;
        wall_s = wall;
        phases = merged.Metrics.phases @ [ ingest ];
      }
    in
    (row, digests, records, wall)
  in
  List.concat_map
    (fun (engine_name, engine) ->
      let delta_row, ddig, records, dwall = run_mode Delta.Delta engine_name engine in
      let full_row, fdig, _, fwall = run_mode Delta.Full engine_name engine in
      assert (ddig = fdig);
      let rate wall = if wall > 0. then float_of_int records /. wall else 0. in
      Printf.printf
        "stream %-7s: %d records over %d epochs; delta %.2f s (%.1f upd/s) vs full %.2f s\n\
        \  (%.1f upd/s), %.2fx — released digests bit-identical\n"
        engine_name records epochs dwall (rate dwall) fwall (rate fwall)
        (fwall /. dwall);
      [ delta_row; full_row ])
    [ ("sim", `Sim); ("memory", `Memory); ("socket", `Socket) ]

(* Bench-drift smoke: regenerate one Table 1 and two Table 2 rows
   (unpacked and fully packed) and fail loudly if the measured
   payload bytes ever deviate from the documented closed forms.  CI
   runs this through `bench --bench-json` on every push, so a codec or
   protocol change that silently shifts the wire shows up as a red
   build, not a drifted artifact. *)
let drift_smoke () =
  let module C = Spe_expt.Comm_costs in
  let check label (row : C.row) =
    if not row.C.ok then begin
      Printf.eprintf
        "bench drift: %s payload deviates from the closed form (measured %d bits, model %d)\n"
        label row.C.measured.Wire.bits row.C.model.Spe_cost.Model.ms;
      exit 1
    end
  in
  check "links (Table 1)" (C.table1_row ~seed:1103 ~n:100 ~edges:400 ~m:3);
  check "scores (Table 2)"
    (C.table2_row ~seed:2063 ~n:60 ~edges:150 ~m:3 ~actions:10 ~key_bits:256 ());
  check "scores packed (Table 2)"
    (C.table2_row ~pack_slots:Spe_mpc.Pack.max_packed_bits ~seed:2063 ~n:60 ~edges:150
       ~m:3 ~actions:10 ~key_bits:256 ());
  Printf.printf "payload closed forms: links + scores (packed and unpacked) match the wire\n"

let bench_rows () =
  section "Bench trajectory - one spe-metrics/2 row per (pipeline, engine)";
  drift_smoke ();
  let reports =
    pipeline_reports () @ sharding_reports () @ rank_reports () @ stream_reports ()
    @ serve_reports ()
  in
  Printf.printf "%-8s %-8s | %4s %6s %12s %12s | %s\n" "pipeline" "engine" "NR" "NM"
    "payload (B)" "on-wire (B)" "wall (s)";
  List.iter
    (fun (r : Spe_obs.Metrics.report) ->
      Printf.printf "%-8s %-8s | %4d %6d %12d %12s | %.3f\n" r.Spe_obs.Metrics.protocol
        r.engine r.rounds r.messages r.payload_bytes
        (match r.transport_bytes with None -> "-" | Some b -> string_of_int b)
        r.wall_s)
    reports;
  let extra = [ dp_utility_extra () ] in
  let oc = open_out bench_json_path in
  output_string oc
    (Spe_obs.Obs_io.bench_to_string ~extra ~generated_by:"bench/main.ml" reports);
  close_out oc;
  Printf.printf "\nwrote %s (%d rows, schema %s)\n" bench_json_path (List.length reports)
    Spe_obs.Obs_io.bench_schema

let ablation_discretization () =
  section "Ablation - time discretization (Sec. 2: 'real data needs to be heavily discretized')";
  Printf.printf "%10s | %12s | %16s\n" "bin width" "b episodes" "mean estimate";
  List.iter
    (fun (r : Spe_expt.Estimators.discretization_row) ->
      Printf.printf "%10d | %12d | %16.4f\n" r.Spe_expt.Estimators.step r.episodes
        r.mean_estimate)
    (Spe_expt.Estimators.discretization_sweep ());
  Printf.printf
    "\nToo fine a bin (width 1, h = 3) misses slow follows; too coarse a bin\n\
     collapses distinct events into simultaneity (excluded by t < t').  The\n\
     window model needs bins on the order of the true delay scale (~60).\n"

let ablation_estimator_variants () =
  section "Ablation - estimator family: Eq. 1 vs Jaccard vs partial credit";
  List.iter
    (fun (r : Spe_expt.Estimators.family_row) ->
      Printf.printf "  %-16s spearman vs planted = %.3f\n" r.Spe_expt.Estimators.name
        r.spearman)
    (Spe_expt.Estimators.family_comparison ());
  Printf.printf
    "\nAll three are computed from the same counter interface; Eq. 1 and Jaccard\n\
     are securely computable with Protocol 4 as-is, partial credit needs the\n\
     Protocol 5 trusted-party route (see Spe_influence.Credit).\n"

let ablation_perturbation () =
  section "Ablation - the two privacy paradigms (Sec. 2): MPC exactness vs perturbation";
  Printf.printf "%10s | %18s\n" "epsilon" "mean |error| vs exact";
  List.iter
    (fun (r : Spe_expt.Estimators.perturbation_row) ->
      Printf.printf "%10.2f | %18.4f\n" r.Spe_expt.Estimators.epsilon r.mean_abs_error)
    (Spe_expt.Estimators.perturbation_sweep ());
  Printf.printf
    "\nThe secure protocols reproduce the exact estimates (error ~1e-4 from\n\
     float masking only); Laplace perturbation trades accuracy for privacy.\n"

let scalability () =
  section "Scalability - Protocol 4 wall clock and wire volume vs network size";
  Printf.printf "%7s %8s %8s | %10s | %14s | %10s\n" "n" "|E|" "q" "time (s)" "MS (bits)"
    "arcs/sec";
  List.iter
    (fun (n, edges) ->
      let s = State.create ~seed:(53 + n) () in
      let g = Generate.erdos_renyi_gnm s ~n ~m:edges in
      let planted = Cascade.uniform_probabilities ~p:0.2 g in
      let log =
        Cascade.generate s planted
          { Cascade.num_actions = 40; seeds_per_action = 2; max_delay = 3 }
      in
      let logs = Partition.exclusive s log ~m:3 in
      let t0 = Unix.gettimeofday () in
      let r = Driver.link_strengths_exclusive s ~graph:g ~logs (Protocol4.default_config ~h:3) in
      let dt = Unix.gettimeofday () -. t0 in
      let q = Array.length r.Driver.detail.Protocol4.pairs in
      Printf.printf "%7d %8d %8d | %10.2f | %14d | %10.0f\n" n edges q dt
        r.Driver.wire.Wire.bits
        (float_of_int (List.length r.Driver.strengths) /. dt))
    [ (100, 500); (1000, 5000); (5000, 25_000); (10_000, 50_000) ];
  Printf.printf
    "\nThe full secure pipeline (sharing + masking + quotients) stays\n\
     laptop-interactive through 10^4 users and 5*10^4 arcs.\n"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

(* How much a fault campaign costs: wall time per seeded schedule, on
   each engine, and how many of the seeds exercised a fatal event.
   The chaos harness trades tight endpoint timeouts for throughput, so
   this is the number to watch when extending the CI campaign. *)
let ablation_chaos () =
  section "Ablation - chaos campaign throughput (Spe_chaos, seeded fault schedules)";
  let module Schedule = Spe_chaos.Schedule in
  let module Harness = Spe_chaos.Harness in
  let module Campaign = Spe_chaos.Campaign in
  Printf.printf "%10s | %6s | %12s | %12s | %s\n" "engine" "seeds" "time (s)"
    "s / schedule" "fatal";
  List.iter
    (fun (label, engine) ->
      let seeds = 8 in
      let fatal = ref 0 in
      let t0 = Unix.gettimeofday () in
      let summary =
        Campaign.run
          ~on_result:(fun _ sched _ ->
            if Schedule.fatal sched <> None then incr fatal)
          ~seeds ~seed:900
          ~targets:[ (Schedule.Links, engine); (Schedule.Scores, engine) ]
          ()
      in
      let dt = Unix.gettimeofday () -. t0 in
      Printf.printf "%10s | %6d | %12.2f | %12.2f | %d/%d%s\n" label summary.Campaign.runs
        dt
        (dt /. float_of_int seeds)
        !fatal seeds
        (if summary.Campaign.violations = [] then ""
         else Printf.sprintf "  (%d VIOLATIONS)" (List.length summary.Campaign.violations)))
    [ ("memory", Schedule.Memory); ("socket", Schedule.Socket) ]

let bechamel_suite () =
  section "Bechamel micro-benchmarks (wall clock per full run)";
  let open Bechamel in
  let p4_workload =
    let s, g, log = workload ~seed:3 ~n:40 ~edges:120 ~actions:15 in
    let logs = Partition.exclusive s log ~m:3 in
    (g, logs)
  in
  let bench_table1 =
    (* One full Protocol 4 run: the unit of Table 1. *)
    let g, logs = p4_workload in
    Test.make ~name:"table1/protocol4-run"
      (Staged.stage (fun () ->
           let s = State.create ~seed:4 () in
           ignore
             (Driver.link_strengths_exclusive s ~graph:g ~logs (Protocol4.default_config ~h:3))))
  in
  let bench_table2 =
    (* One full Protocol 6 run: the unit of Table 2 (128-bit keys keep
       the run in the micro-benchmark regime). *)
    let g, logs = p4_workload in
    Test.make ~name:"table2/protocol6-run"
      (Staged.stage (fun () ->
           let s = State.create ~seed:5 () in
           let wire = Wire.create () in
           ignore
             (Protocol6.run s ~wire ~graph:g ~logs
                { Protocol6.default_config with Protocol6.key_bits = 128 })))
  in
  let bench_figure1 =
    (* One posterior-and-gain round: the unit of Figure 1. *)
    let prior = Posterior.uniform_prior ~bound:10 in
    Test.make ~name:"figure1/gain-100-trials"
      (Staged.stage (fun () ->
           let s = State.create ~seed:6 () in
           ignore (Gain.run s ~prior ~trials_per_x:100)))
  in
  let bench_leakage =
    Test.make ~name:"theorem41/protocol2-run"
      (Staged.stage (fun () ->
           let s = State.create ~seed:7 () in
           ignore (Leakage.monte_carlo s ~modulus:(1 lsl 12) ~input_bound:100 ~x:50 ~trials:10)))
  in
  let bench_substrate =
    let s = State.create ~seed:8 () in
    let base = Spe_bignum.Nat.random_bits s 1024 in
    let exp = Spe_bignum.Nat.random_bits s 1024 in
    let modulus = Spe_bignum.Nat.succ (Spe_bignum.Nat.random_bits s 1024) in
    Test.make ~name:"substrate/modpow-1024"
      (Staged.stage (fun () -> ignore (Spe_bignum.Nat.mod_pow ~base ~exp ~modulus)))
  in
  let grouped =
    Test.make_grouped ~name:"spe"
      [ bench_table1; bench_table2; bench_figure1; bench_leakage; bench_substrate ]
  in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] grouped in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) results []
  |> List.sort compare
  |> List.iter (fun (name, est) ->
         match Analyze.OLS.estimates est with
         | Some [ ns ] -> Printf.printf "  %-40s %14.0f ns/run\n" name ns
         | _ -> Printf.printf "  %-40s (no estimate)\n" name)

let () =
  (* `bench --bench-json` regenerates just BENCH_protocols.json (the
     CI artifact) without the full multi-minute harness. *)
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--bench-json" then begin
    bench_rows ();
    exit 0
  end;
  Printf.printf "Privacy Preserving Estimation of Social Influence - reproduction harness\n";
  table1 ();
  table2 ();
  figure1 ();
  leakage ();
  ablation_packing ();
  ablation_modulus_precision ();
  ablation_celf ();
  ablation_ris ();
  ablation_c_factor ();
  ablation_estimators ();
  ablation_generalisation ();
  ablation_counter_engines ();
  ablation_protocol5_overhead ();
  ablation_montgomery ();
  ablation_crypto_hot_paths ();
  ablation_alternatives ();
  ablation_multi_host ();
  ablation_transport ();
  ablation_plan_build ();
  ablation_chaos ();
  bench_rows ();
  ablation_discretization ();
  ablation_estimator_variants ();
  ablation_perturbation ();
  scalability ();
  bechamel_suite ();
  Printf.printf "\nDone.\n"
