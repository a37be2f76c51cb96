(* The reference process.  Forked before any daemon, it generates the
   seeded input files, loads them back as the daemons do, computes the
   plaintext reference once, and then answers verification requests
   over a pipe.  So the benchmark's own process never holds the
   workload in its heap while it forks daemons, and the daemons' RSS
   counts only what they load themselves. *)

module Proto = Spe_serve.Serve_proto

type request =
  | Check of Proto.reply  (** Against the plaintext reference. *)
  | Exact of Proto.spec * Proto.reply  (** Bit for bit against the in-process oracle. *)

type t = { pid : int; requests : out_channel; verdicts : in_channel }

let serve w ~seed ~inputs ~requests ~verdicts () =
  let requests = Unix.in_channel_of_descr requests and verdicts = Unix.out_channel_of_descr verdicts in
  Workload.generate w ~seed ~dir:inputs;
  let workload = Workload.load inputs in
  let reference = Workload.reference w workload in
  let answer (v : (unit, string) result) =
    output_value verdicts v;
    flush verdicts
  in
  answer (Ok ());
  let rec loop () =
    match (input_value requests : request) with
    | Check reply ->
      answer (Workload.check w reference reply);
      loop ()
    | Exact (spec, reply) ->
      answer
        (if Workload.oracle_reply w workload spec = reply then Ok ()
         else Error "differs bit for bit from the in-process oracle with the same seed");
      loop ()
    | exception End_of_file -> ()
  in
  loop ()

let start w ~seed ~inputs =
  let req_r, req_w = Unix.pipe () and ver_r, ver_w = Unix.pipe () in
  Deploy.parent_fds := req_w :: ver_r :: !Deploy.parent_fds;
  let pid = Deploy.fork (serve w ~seed ~inputs ~requests:req_r ~verdicts:ver_w) in
  Unix.close req_r;
  Unix.close ver_w;
  let t = { pid; requests = Unix.out_channel_of_descr req_w; verdicts = Unix.in_channel_of_descr ver_r } in
  (match (input_value t.verdicts : (unit, string) result) with
  | Ok () -> ()
  | Error e -> failwith ("reference process: " ^ e));
  t

let ask t request : (unit, string) result =
  output_value t.requests request;
  flush t.requests;
  input_value t.verdicts

let check t reply = ask t (Check reply)

let exact t spec reply = ask t (Exact (spec, reply))

let stop t =
  Deploy.parent_fds :=
    List.filter
      (fun fd -> fd <> Unix.descr_of_out_channel t.requests && fd <> Unix.descr_of_in_channel t.verdicts)
      !Deploy.parent_fds;
  close_out_noerr t.requests;
  close_in_noerr t.verdicts;
  Deploy.await_exit t.pid ~deadline:(Unix.gettimeofday () +. 10.)
