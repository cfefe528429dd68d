type action = Delay_ms of int | Reset | Truncate | Corrupt
type rule = { action : action; trigger : Trigger.t }

let action_of_string s =
  if s = "reset" then Ok Reset
  else if s = "truncate" then Ok Truncate
  else if s = "corrupt" then Ok Corrupt
  else if String.length s > 9 && String.sub s 0 9 = "delay-ms:" then
    match int_of_string_opt (String.sub s 9 (String.length s - 9)) with
    | Some n when n >= 0 -> Ok (Delay_ms n)
    | _ -> Error (Printf.sprintf "fault %S: bad delay" s)
  else Error (Printf.sprintf "fault %S: expected delay-ms:N, reset, truncate or corrupt" s)

let action_to_string = function
  | Delay_ms n -> Printf.sprintf "delay-ms:%d" n
  | Reset -> "reset"
  | Truncate -> "truncate"
  | Corrupt -> "corrupt"

let rules_of_string spec =
  if String.trim spec = "" then Ok []
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | p :: rest -> (
          let p = String.trim p in
          match String.index_opt p '@' with
          | None -> Error (Printf.sprintf "fault %S: expected ACTION@TRIGGER" p)
          | Some i -> (
              match action_of_string (String.sub p 0 i) with
              | Error e -> Error e
              | Ok action -> (
                  match
                    Trigger.of_string
                      (String.sub p (i + 1) (String.length p - i - 1))
                  with
                  | Error e -> Error e
                  | Ok trigger -> go ({ action; trigger } :: acc) rest)))
    in
    go [] (String.split_on_char ',' spec)

let rules_to_string rules =
  String.concat ","
    (List.map
       (fun r -> action_to_string r.action ^ "@" ^ Trigger.to_string r.trigger)
       rules)

(* One proxied connection: the accepted client fd, the upstream fd, and
   how many of its two pumps are still running. *)
type conn = { client : Unix.file_descr; up : Unix.file_descr; pumps : int Atomic.t }

type t = {
  listen_fd : Unix.file_descr;
  upstream : Unix.sockaddr;
  rules : rule list;
  seed : int;
  stop : bool Atomic.t;
  live : (conn list ref * Mutex.t);
  connections : int Atomic.t;
  lines_up : int Atomic.t;
  lines_down : int Atomic.t;
  delayed : int Atomic.t;
  resets : int Atomic.t;
  truncated : int Atomic.t;
  corrupted : int Atomic.t;
}

let create ?(seed = 0) ~listen ~upstream rules =
  (match listen with
  | Unix.ADDR_UNIX path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ -> ());
  let domain = Unix.domain_of_sockaddr listen in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match listen with
  | Unix.ADDR_INET _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
  | _ -> ());
  Unix.bind fd listen;
  Unix.listen fd 64;
  {
    listen_fd = fd;
    upstream;
    rules;
    seed;
    stop = Atomic.make false;
    live = (ref [], Mutex.create ());
    connections = Atomic.make 0;
    lines_up = Atomic.make 0;
    lines_down = Atomic.make 0;
    delayed = Atomic.make 0;
    resets = Atomic.make 0;
    truncated = Atomic.make 0;
    corrupted = Atomic.make 0;
  }

let shutdown_quiet fd =
  try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

let close_quiet fd =
  shutdown_quiet fd;
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Hang up both sides: a pump blocked reading either fd wakes with end
   of file.  Shutting down frees no fd number, so it is safe from any
   thread at any time. *)
let hang_up c =
  shutdown_quiet c.client;
  shutdown_quiet c.up

let track t c =
  let l, m = t.live in
  Mutex.lock m;
  l := c :: !l;
  Mutex.unlock m;
  if Atomic.get t.stop then hang_up c

(* A pump that stops hangs up its connection, which stops the sibling;
   the last of the two closes the fds.  An fd number goes back to the
   kernel only once no pump of this connection can read, write or close
   it — otherwise a late pump could act on a fresh connection that the
   kernel gave the same number. *)
let finish t c =
  hang_up c;
  if Atomic.fetch_and_add c.pumps (-1) = 1 then begin
    let l, m = t.live in
    Mutex.lock m;
    l := List.filter (fun x -> x != c) !l;
    Mutex.unlock m;
    (try Unix.close c.client with Unix.Unix_error _ -> ());
    try Unix.close c.up with Unix.Unix_error _ -> ()
  end

exception Drop

(* One direction of one connection: read lines from [src], pass them
   through the fault rules, write to [dst].  Rule counters are local to
   the (connection, direction), so the schedule depends only on line
   ordinals. *)
let pump t ~dir c src_fd dst_fd =
  let dir_salt = t.seed lxor Rng.of_name dir in
  let counters = List.map (fun _ -> ref 0) t.rules in
  let lines = if dir = "up" then t.lines_up else t.lines_down in
  (try
     let ic = Unix.in_channel_of_descr src_fd in
     let oc = Unix.out_channel_of_descr dst_fd in
     while not (Atomic.get t.stop) do
       let line = input_line ic in
       Atomic.incr lines;
       let line = ref line in
       List.iteri
         (fun i r ->
           let cnt = List.nth counters i in
           let call = !cnt in
           incr cnt;
           let salt = dir_salt lxor Rng.mix i 0 in
           if Trigger.hits r.trigger ~salt call then
             match r.action with
             | Delay_ms ms ->
                 Atomic.incr t.delayed;
                 Thread.delay (float_of_int ms /. 1000.)
             | Reset ->
                 Atomic.incr t.resets;
                 raise Drop
             | Truncate ->
                 let s = !line in
                 let len = String.length s in
                 let keep = if len = 0 then 0 else Rng.mix salt call mod len in
                 Atomic.incr t.truncated;
                 output_string oc (String.sub s 0 keep);
                 flush oc;
                 raise Drop
             | Corrupt ->
                 let s = Bytes.of_string !line in
                 let len = Bytes.length s in
                 if len > 0 then begin
                   let pos = Rng.mix salt call mod len in
                   let orig = Bytes.get s pos in
                   let mask = 1 + (Rng.mix salt (call + 1) mod 255) in
                   let b = Char.code orig lxor mask in
                   let b = if b = Char.code '\n' then b lxor 0x01 else b in
                   Bytes.set s pos (Char.chr (b land 0xff));
                   Atomic.incr t.corrupted;
                   line := Bytes.to_string s
                 end)
         t.rules;
       output_string oc !line;
       output_char oc '\n';
       flush oc
     done
   with
  | End_of_file | Drop | Sys_error _ | Unix.Unix_error _ -> ());
  finish t c

let handle_conn t client_fd =
  match
    let up_fd = Unix.socket (Unix.domain_of_sockaddr t.upstream) Unix.SOCK_STREAM 0 in
    (try Unix.connect up_fd t.upstream
     with e ->
       close_quiet up_fd;
       raise e);
    up_fd
  with
  | exception _ -> close_quiet client_fd
  | up_fd ->
      let c = { client = client_fd; up = up_fd; pumps = Atomic.make 2 } in
      track t c;
      Atomic.incr t.connections;
      let _up = Thread.create (fun () -> pump t ~dir:"up" c client_fd up_fd) () in
      let _down = Thread.create (fun () -> pump t ~dir:"down" c up_fd client_fd) () in
      ()

let run t =
  (try
     while not (Atomic.get t.stop) do
       let client_fd, _ = Unix.accept t.listen_fd in
       if Atomic.get t.stop then close_quiet client_fd
       else handle_conn t client_fd
     done
   with Unix.Unix_error _ | Sys_error _ -> ());
  close_quiet t.listen_fd

let shutdown t =
  if not (Atomic.exchange t.stop true) then begin
    close_quiet t.listen_fd;
    let l, m = t.live in
    Mutex.lock m;
    let conns = !l in
    Mutex.unlock m;
    List.iter hang_up conns
  end

let stats t =
  [
    ("connections", Atomic.get t.connections);
    ("lines_up", Atomic.get t.lines_up);
    ("lines_down", Atomic.get t.lines_down);
    ("delayed", Atomic.get t.delayed);
    ("reset", Atomic.get t.resets);
    ("truncated", Atomic.get t.truncated);
    ("corrupted", Atomic.get t.corrupted);
  ]
