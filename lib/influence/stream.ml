module Log = Spe_actionlog.Log

exception Duplicate_record of { user : int; action : int }

let () =
  Printexc.register_printer (function
    | Duplicate_record { user; action } ->
      Some
        (Printf.sprintf "Spe_influence.Stream.Duplicate_record { user = %d; action = %d }"
           user action)
    | _ -> None)

type t = {
  num_actions : int;
  h : int;
  window : int option;
  pairs : (int * int) array;
  a : int array;
  b : int array;
  c : int array array;
  both : int array;
  (* For each user, the published pairs it participates in:
     (pair index, partner, partner_is_target). *)
  touching : (int * int * bool) list array;
  (* time_of.(action) maps user -> time for the records currently in
     the window. *)
  time_of : (int, int) Hashtbl.t array;
  (* seen.(action) remembers every user that ever performed the action,
     window expiry notwithstanding — the at-most-once rule of the log
     model outlives the sliding window. *)
  seen : (int, unit) Hashtbl.t array;
  (* Expiry index: time -> the (user, action) records carrying it,
     maintained only under a window. *)
  by_time : (int, (int * int) list) Hashtbl.t;
  mutable horizon : int;  (** Records with [time <= horizon] are expired. *)
  mutable now : int;  (** High-water mark of {!advance}. *)
  mutable count : int;
  mutable late : int;
  (* Dirty sets since the last [clear_dirty]. *)
  dirty_users : (int, unit) Hashtbl.t;
  dirty_pairs : (int, unit) Hashtbl.t;
}

let create ?window ~num_users ~num_actions ~h ~pairs () =
  if h < 1 then invalid_arg "Stream.create: h must be >= 1";
  if num_users < 0 || num_actions < 0 then invalid_arg "Stream.create: negative universe";
  (match window with
  | Some w when w < 1 -> invalid_arg "Stream.create: temporal window must be >= 1"
  | _ -> ());
  let touching = Array.make num_users [] in
  Array.iteri
    (fun k (i, j) ->
      if i < 0 || i >= num_users || j < 0 || j >= num_users || i = j then
        invalid_arg "Stream.create: bad pair";
      touching.(i) <- (k, j, true) :: touching.(i);
      touching.(j) <- (k, i, false) :: touching.(j))
    pairs;
  {
    num_actions;
    h;
    window;
    pairs;
    a = Array.make num_users 0;
    b = Array.make (Array.length pairs) 0;
    c = Array.make_matrix (Array.length pairs) h 0;
    both = Array.make (Array.length pairs) 0;
    touching;
    time_of = Array.init num_actions (fun _ -> Hashtbl.create 8);
    seen = Array.init num_actions (fun _ -> Hashtbl.create 8);
    by_time = Hashtbl.create 64;
    horizon = -1;
    now = 0;
    count = 0;
    late = 0;
    dirty_users = Hashtbl.create 16;
    dirty_pairs = Hashtbl.create 16;
  }

let mark_user t u = Hashtbl.replace t.dirty_users u ()
let mark_pair t k = Hashtbl.replace t.dirty_pairs k ()

let add t (r : Log.record) =
  if r.Log.user < 0 || r.Log.user >= Array.length t.a then invalid_arg "Stream.add: user out of range";
  if r.Log.action < 0 || r.Log.action >= t.num_actions then
    invalid_arg "Stream.add: action out of range";
  if r.Log.time < 0 then invalid_arg "Stream.add: negative time";
  let seen = t.seen.(r.Log.action) in
  if Hashtbl.mem seen r.Log.user then
    raise (Duplicate_record { user = r.Log.user; action = r.Log.action });
  Hashtbl.replace seen r.Log.user ();
  if t.window <> None && r.Log.time <= t.horizon then
    (* Arrived after its own expiry: the filtered-log oracle would not
       contain it either, so skip it (but it stays [seen]). *)
    t.late <- t.late + 1
  else begin
    let table = t.time_of.(r.Log.action) in
    Hashtbl.replace table r.Log.user r.Log.time;
    if t.window <> None then
      Hashtbl.replace t.by_time r.Log.time
        ((r.Log.user, r.Log.action)
        :: Option.value ~default:[] (Hashtbl.find_opt t.by_time r.Log.time));
    t.a.(r.Log.user) <- t.a.(r.Log.user) + 1;
    t.count <- t.count + 1;
    mark_user t r.Log.user;
    (* A pair's episode completes when its second endpoint arrives. *)
    List.iter
      (fun (k, partner, user_is_source) ->
        match Hashtbl.find_opt table partner with
        | None -> ()
        | Some partner_time ->
          t.both.(k) <- t.both.(k) + 1;
          mark_pair t k;
          let d =
            if user_is_source then partner_time - r.Log.time else r.Log.time - partner_time
          in
          if d >= 1 && d <= t.h then begin
            t.b.(k) <- t.b.(k) + 1;
            t.c.(k).(d - 1) <- t.c.(k).(d - 1) + 1
          end)
      t.touching.(r.Log.user)
  end

(* Retract one expiring record.  Episodes are counted once, when the
   second endpoint arrives, so they are retracted once, when the first
   endpoint leaves: the partner probe only sees partners still in the
   table, and an expiry batch removes records one at a time. *)
let expire t user action time =
  let table = t.time_of.(action) in
  (match Hashtbl.find_opt table user with
  | Some tu when tu = time ->
    List.iter
      (fun (k, partner, user_is_source) ->
        match Hashtbl.find_opt table partner with
        | None -> ()
        | Some partner_time ->
          t.both.(k) <- t.both.(k) - 1;
          mark_pair t k;
          let d = if user_is_source then partner_time - time else time - partner_time in
          if d >= 1 && d <= t.h then begin
            t.b.(k) <- t.b.(k) - 1;
            t.c.(k).(d - 1) <- t.c.(k).(d - 1) - 1
          end)
      t.touching.(user);
    Hashtbl.remove table user;
    t.a.(user) <- t.a.(user) - 1;
    t.count <- t.count - 1;
    mark_user t user
  | _ -> ())

let advance t ~now =
  if now < t.now then invalid_arg "Stream.advance: time must not go backwards";
  t.now <- now;
  match t.window with
  | None -> ()
  | Some w ->
    let new_horizon = now - w in
    for time = t.horizon + 1 to new_horizon do
      (match Hashtbl.find_opt t.by_time time with
      | None -> ()
      | Some records ->
        List.iter (fun (user, action) -> expire t user action time) records;
        Hashtbl.remove t.by_time time)
    done;
    if new_horizon > t.horizon then t.horizon <- new_horizon

let add_log t log = List.iter (add t) (Log.records log)

let records t = t.count

let late t = t.late

let now t = t.now

let window t = t.window

let sorted_keys tbl = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])

let dirty_users t = sorted_keys t.dirty_users

let dirty_pairs t = sorted_keys t.dirty_pairs

let clear_dirty t =
  Hashtbl.reset t.dirty_users;
  Hashtbl.reset t.dirty_pairs

let snapshot t =
  {
    Counters.a = Array.copy t.a;
    b = Array.copy t.b;
    c = Array.map Array.copy t.c;
    both = Array.copy t.both;
    h = t.h;
    pairs = t.pairs;
  }

let activity t = t.a

let lag_counters t = t.c
