type t = {
  addr : Wire.address;
  listen_fd : Unix.file_descr;
  idle_timeout_s : float option;
  stopping : bool Atomic.t;
  n_requests : int Atomic.t;
  n_errors : int Atomic.t;
}

let domain_of = function
  | Wire.Unix_sock _ -> Unix.PF_UNIX
  | Wire.Tcp _ -> Unix.PF_INET

let listen ?idle_timeout_s addr =
  (* A client that disconnects mid-response must not kill the process
     with SIGPIPE; writes to its socket fail with EPIPE instead, which
     the handler treats as end-of-connection. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (* Spans must tell concurrent handler threads apart — both processes
     are thread-per-connection on one domain, so the domain id alone is
     not an execution lane.  [Obs] takes the hook rather than a
     [threads] dependency. *)
  Obs.set_thread_id_fn (fun () -> Thread.id (Thread.self ()));
  (match addr with
  | Wire.Unix_sock path when Sys.file_exists path -> (try Unix.unlink path with _ -> ())
  | _ -> ());
  let fd = Unix.socket (domain_of addr) Unix.SOCK_STREAM 0 in
  (try
     if domain_of addr = Unix.PF_INET then Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Wire.sockaddr_of addr);
     Unix.listen fd 64
   with e ->
     Unix.close fd;
     raise e);
  {
    addr;
    listen_fd = fd;
    idle_timeout_s;
    stopping = Atomic.make false;
    n_requests = Atomic.make 0;
    n_errors = Atomic.make 0;
  }

let address t = t.addr
let requests t = Atomic.get t.n_requests
let errors t = Atomic.get t.n_errors
let count_error t = Atomic.incr t.n_errors

(* Every response line is sealed (Wire.seal) so corruption between here
   and the requester is detectable; progress frames and relayed lines
   are not re-sealed. *)
let respond oc fields =
  output_string oc (Wire.seal fields);
  output_char oc '\n';
  flush oc

let ok op rest = ("op", Wire.json_string op) :: ("status", Wire.json_string "ok") :: rest

let error_fields ?(status = "error") op msg =
  [
    ("op", Wire.json_string op);
    ("status", Wire.json_string status);
    ("error", Wire.json_string msg);
  ]

let refuse t oc msg =
  count_error t;
  respond oc (error_fields "unknown" msg)

let handle_request t ~span ~trace_id ~dispatch conn oc line =
  Atomic.incr t.n_requests;
  (* Sealed requests (load generator, chaos harness) are verified before
     parsing: a corrupted sealed line must fail typed rather than
     execute as a subtly different request.  Unsealed requests pass. *)
  if Wire.crc_status line = `Sealed_bad then
    refuse t oc "request failed integrity check"
  else
    match Json.parse line with
    | Error msg -> refuse t oc msg
    | Ok j -> (
        match Wire.request_of_json j with
        | Error msg -> refuse t oc msg
        | Ok req -> (
            let env = Wire.envelope_of_json j in
            let work () =
              Obs.Span.with_ span (fun () -> dispatch conn oc line env req)
            in
            match trace_id env with
            | None -> work ()
            | Some _ as id -> Obs.Ctx.with_trace id work))

let handle_conn t ~span ~trace_id ~open_conn ~close_conn ~dispatch fd =
  (* Idle timeout: a kernel receive timeout, so a connection whose next
     request never comes surfaces as [Sys_blocked_io] from [input_line]
     (the buffered channel's rendering of EAGAIN) and the handler
     thread exits instead of parking forever. *)
  (match t.idle_timeout_s with
  | Some s when s > 0. -> Unix.setsockopt_float fd Unix.SO_RCVTIMEO s
  | _ -> ());
  let conn = open_conn () in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let rec loop () =
    match input_line ic with
    | exception (End_of_file | Sys_error _ | Sys_blocked_io) -> ()
    | line when String.trim line = "" -> loop ()
    | line ->
        (match handle_request t ~span ~trace_id ~dispatch conn oc line with
        | () -> ()
        | exception (Sys_error _ | Sys_blocked_io | Unix.Unix_error _) ->
            (* Client went away mid-response; drop the connection. *)
            raise Exit
        | exception e -> refuse t oc ("internal: " ^ Printexc.to_string e));
        loop ()
  in
  (try loop () with Exit | Sys_error _ | Sys_blocked_io | Unix.Unix_error _ -> ());
  close_conn conn;
  (* [close_out] flushes and closes the shared fd; everything after is
     best-effort. *)
  try close_out oc with _ -> ()

let run t ~span ~trace_id ~open_conn ~close_conn ~dispatch =
  let serve = handle_conn t ~span ~trace_id ~open_conn ~close_conn ~dispatch in
  let rec loop () =
    if not (Atomic.get t.stopping) then
      match Unix.accept t.listen_fd with
      | fd, _ ->
          if Atomic.get t.stopping then (try Unix.close fd with _ -> ())
          else ignore (Thread.create serve fd);
          loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> loop ()
      | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
          if Atomic.get t.stopping then () else loop ()
  in
  loop ();
  (try Unix.close t.listen_fd with _ -> ());
  match t.addr with
  | Wire.Unix_sock path -> ( try Unix.unlink path with _ -> ())
  | Wire.Tcp _ -> ()

(* Wake the acceptor with a throwaway self-connection: closing a
   listening socket does not reliably interrupt an [accept] blocked in
   another thread, so the stop flag is set first and the acceptor
   observes it on the next (self-induced) wakeup. *)
let stop t =
  if not (Atomic.exchange t.stopping true) then
    try
      let fd = Unix.socket (domain_of t.addr) Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with _ -> ())
        (fun () ->
          Unix.connect fd
            (match t.addr with
            | Wire.Tcp (_, port) ->
                (* Connect to loopback even when bound to a wildcard. *)
                Unix.ADDR_INET (Unix.inet_addr_loopback, port)
            | a -> Wire.sockaddr_of a))
    with _ -> ()
