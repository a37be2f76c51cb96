(* One address syntax for every Spe_serve flag: [unix:PATH] for
   Unix-domain sockets, [HOST:PORT] (a literal IP or [localhost]) for
   TCP.  The parser is shared by --listen, --connect, --metrics-addr
   and the pipeline --address flags, so a typo fails the same clean way
   everywhere instead of surfacing a raw [Unix.Unix_error]. *)

type t = Spe_net.Transport.Socket.address

let parse s =
  let invalid msg = Error (Printf.sprintf "%S: %s" s msg) in
  if s = "" then invalid "empty address"
  else if String.length s >= 5 && String.sub s 0 5 = "unix:" then begin
    let path = String.sub s 5 (String.length s - 5) in
    if path = "" then invalid "empty unix socket path"
    else Ok (Spe_net.Transport.Socket.Unix_domain path)
  end
  else
    match String.rindex_opt s ':' with
    | None -> invalid "expected unix:PATH or HOST:PORT"
    | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | None -> invalid "port is not a number"
      | Some p when p < 0 || p > 0xFFFF -> invalid "port out of range"
      | Some p ->
        let host = if host = "" || host = "localhost" then "127.0.0.1" else host in
        (* Resolve now so a bad host is a parse error, not a connect-time
           Unix_error deep inside the transport. *)
        (match Unix.inet_addr_of_string host with
        | _ -> Ok (Spe_net.Transport.Socket.Tcp (host, p))
        | exception Failure _ -> invalid "host is not a literal IP address (or localhost)"))

let parse_exn s = match parse s with Ok a -> a | Error msg -> failwith msg

let to_string = function
  | Spe_net.Transport.Socket.Unix_domain path -> "unix:" ^ path
  | Spe_net.Transport.Socket.Tcp (host, port) -> Printf.sprintf "%s:%d" host port

let sockaddr = Spe_net.Transport.Socket.sockaddr_of

(* Party naming shared by --party and roster entries: H, or P<k> with
   k counted from 1 (P1 = provider 0).  Daemon ids put the host at 0
   and provider k at k + 1, matching the frame codec's party order. *)
let party_of_string s =
  if s = "H" || s = "h" then Ok 0
  else if String.length s >= 2 && (s.[0] = 'P' || s.[0] = 'p') then
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some k when k >= 1 -> Ok k
    | _ -> Error (Printf.sprintf "%S: providers are P1, P2, ..." s)
  else Error (Printf.sprintf "%S: expected H or P<i>" s)

let party_name id = if id = 0 then "H" else Printf.sprintf "P%d" id

(* A roster maps every daemon id to its address:
   "H=unix:/tmp/h.sock,P1=127.0.0.1:7001,P2=127.0.0.1:7002".
   Entries may come in any order but must cover H and P1..Pm exactly. *)
let roster_of_string spec =
  let entries = String.split_on_char ',' spec in
  let parse_entry e =
    match String.index_opt e '=' with
    | None -> Error (Printf.sprintf "%S: expected PARTY=ADDR" e)
    | Some i -> (
      let who = String.sub e 0 i in
      let addr = String.sub e (i + 1) (String.length e - i - 1) in
      match party_of_string who with
      | Error msg -> Error msg
      | Ok id -> ( match parse addr with Error msg -> Error msg | Ok a -> Ok (id, a)))
  in
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | e :: rest -> (
      match parse_entry (String.trim e) with
      | Error msg -> Error msg
      | Ok pair -> collect (pair :: acc) rest)
  in
  match collect [] entries with
  | Error msg -> Error msg
  | Ok pairs ->
    let n = List.length pairs in
    if n < 2 then Error "roster needs at least H and P1"
    else begin
      let roster = Array.make n None in
      let rec place = function
        | [] -> Ok ()
        | (id, addr) :: rest ->
          if id >= n then
            Error
              (Printf.sprintf "roster names %s but only %d entries are given"
                 (party_name id) n)
          else if roster.(id) <> None then
            Error (Printf.sprintf "duplicate roster entry for %s" (party_name id))
          else begin
            roster.(id) <- Some addr;
            place rest
          end
      in
      match place pairs with
      | Error msg -> Error msg
      | Ok () -> (
        match
          Array.to_list roster
          |> List.mapi (fun id a -> (id, a))
          |> List.find_opt (fun (_, a) -> a = None)
        with
        | Some (id, _) -> Error (Printf.sprintf "roster is missing %s" (party_name id))
        | None -> Ok (Array.map Option.get roster))
    end

let roster_to_string roster =
  Array.to_list roster
  |> List.mapi (fun id addr -> Printf.sprintf "%s=%s" (party_name id) (to_string addr))
  |> String.concat ","

(* One private directory per call, removed with whatever sockets are
   left in it: a daemon killed mid-run never unlinks its listener's. *)
let with_temp_roster ~parties f =
  let dir = Filename.temp_dir "spe-net" "" in
  let roster =
    Array.init parties (fun id ->
        Spe_net.Transport.Socket.Unix_domain (Filename.concat dir (party_name id ^ ".sock")))
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun name -> try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f roster)
