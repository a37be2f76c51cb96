(* Counters read from outside a process, through /proc.  The end-to-end
   metrics come from here and from the client clock only, so they cost
   the daemons nothing and need no tracing switched on. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let lines path = String.split_on_char '\n' (read_file path)

let words s = List.filter (fun w -> w <> "") (String.split_on_char ' ' s)

(* The value of a "key: value [unit]" line. *)
let field path key =
  let prefix = key ^ ":" in
  match List.find_opt (String.starts_with ~prefix) (lines path) with
  | None -> failwith (Printf.sprintf "%s has no %s line" path key)
  | Some line -> (
    let rest = String.sub line (String.length prefix) (String.length line - String.length prefix) in
    match words (String.trim rest) with
    | v :: _ -> int_of_string v
    | [] -> failwith (Printf.sprintf "%s: empty %s" path key))

let clock_ticks = 100.
(* USER_HZ: the unit of /proc/<pid>/stat times and /proc/stat, fixed
   at 100 by the kernel ABI on every architecture this runs on. *)

type sample = {
  cpu_s : float;  (** utime + stime, every thread of the process. *)
  wchar : int;  (** Bytes handed to write-like syscalls (sockets included). *)
  syscw : int;
  syscr : int;
}

let sample pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* Fields after the parenthesised command name; utime and stime are
     fields 14 and 15 of the whole line. *)
  let i = String.rindex stat ')' in
  let f = Array.of_list (words (String.sub stat (i + 2) (String.length stat - i - 2))) in
  let utime = int_of_string f.(11) and stime = int_of_string f.(12) in
  let io = Printf.sprintf "/proc/%d/io" pid in
  {
    cpu_s = float_of_int (utime + stime) /. clock_ticks;
    wchar = field io "wchar";
    syscw = field io "syscw";
    syscr = field io "syscr";
  }

let diff a b =
  {
    cpu_s = b.cpu_s -. a.cpu_s;
    wchar = b.wchar - a.wchar;
    syscw = b.syscw - a.syscw;
    syscr = b.syscr - a.syscr;
  }

(* Peak resident set, in kB. *)
let vm_hwm_kb pid = field (Printf.sprintf "/proc/%d/status" pid) "VmHWM"

(* Host-wide (total, steal) ticks from the aggregate cpu line. *)
let host_ticks () =
  match lines "/proc/stat" with
  | first :: _ -> (
    match words first with
    | "cpu" :: rest ->
      let v = Array.of_list (List.map int_of_string rest) in
      (Array.fold_left ( + ) 0 v, if Array.length v > 7 then v.(7) else 0)
    | _ -> failwith "/proc/stat: no aggregate cpu line")
  | [] -> failwith "/proc/stat is empty"

(* Share of the host's ticks the hypervisor stole between two samples. *)
let steal_share (t0, s0) (t1, s1) =
  if t1 = t0 then 0. else float_of_int (s1 - s0) /. float_of_int (t1 - t0)
