type t = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  mutable closed : bool;
}

let sockaddr_of = Wire.sockaddr_of

let connect_once addr =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let domain =
    match addr with
    | Wire.Unix_sock _ -> Unix.PF_UNIX
    | Wire.Tcp _ -> Unix.PF_INET
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (sockaddr_of addr)
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  {
    fd;
    ic = Unix.in_channel_of_descr fd;
    oc = Unix.out_channel_of_descr fd;
    closed = false;
  }

(* A refused connect usually means the server is a few ms from binding
   (shard startup, restart-after-kill), not that it is gone: the listed
   errors are the transient ones, anything else propagates at once. *)
let transient = function
  | Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.ENOENT | Unix.ETIMEDOUT
  | Unix.EAGAIN ->
      true
  | _ -> false

(* Retry delay for attempt [attempt] (0-based): exponential backoff with
   ±25% jitter, so N clients retrying a restarting shard spread out
   instead of stampeding in lockstep.  The jitter is a hash of the
   attempt counter and a per-process salt — deterministic and pure (no
   [Random] state, nothing shared) so it is unit-testable and free on
   the hot path; distinct processes hash to distinct factors, which is
   the only decorrelation a stampede needs.  The hash is the fault
   plane's [Fault.Rng] stream: one avalanche to audit, not two. *)
let retry_delay_s ?salt ~attempt base_s =
  let salt = match salt with Some s -> s | None -> Unix.getpid () in
  (* factor in [0.75, 1.25) *)
  let factor =
    0.75 +. (0.5 *. Fault.Rng.unit_float (Fault.Rng.mix salt attempt))
  in
  base_s *. (2. ** float_of_int attempt) *. factor

(* A per-request deadline is a socket receive/send timeout: the kernel
   bounds how long a blocked read waits, the expiry surfaces through the
   channel as [Sys_blocked_io] and is reported as a transport error.  The
   connection is poisoned afterwards (a late response may still be in
   flight), so callers reconnect — which is why the router maps this to
   a typed [shard_unavailable] and drops the shard connection. *)
let set_deadline t deadline_s =
  let v = match deadline_s with Some s when s > 0. -> s | _ -> 0. in
  Unix.setsockopt_float t.fd Unix.SO_RCVTIMEO v;
  Unix.setsockopt_float t.fd Unix.SO_SNDTIMEO v

let connect ?(retries = 0) ?(backoff_s = 0.05) ?deadline_s addr =
  let rec attempt n left =
    match connect_once addr with
    | t -> t
    | exception (Unix.Unix_error (e, _, _) as exn) when transient e ->
        if left <= 0 then raise exn
        else begin
          Thread.delay (retry_delay_s ~attempt:n backoff_s);
          attempt (n + 1) (left - 1)
        end
  in
  let t = attempt 0 retries in
  (match deadline_s with Some _ -> set_deadline t deadline_s | None -> ());
  t

let request_raw t line =
  if t.closed then Error "connection closed"
  else
    match
      output_string t.oc line;
      output_char t.oc '\n';
      flush t.oc;
      input_line t.ic
    with
    | line ->
        if Wire.crc_ok line then Ok line
        else Error "transport: response failed integrity check"
    | exception End_of_file -> Error "connection closed by server"
    | exception Sys_error msg -> Error ("transport: " ^ msg)
    (* A buffered channel surfaces an expired SO_RCVTIMEO/SO_SNDTIMEO
       as [Sys_blocked_io], not [Sys_error]. *)
    | exception Sys_blocked_io -> Error "transport: request deadline expired"
    | exception Unix.Unix_error (e, _, _) ->
        Error ("transport: " ^ Unix.error_message e)

(* A line is a progress frame iff it parses as an object with a
   "progress" member — the server guarantees the final response never
   carries one, so no lookahead is needed. *)
let is_progress_line line =
  match Json.parse line with
  | Ok j -> Json.member "progress" j <> None
  | Error _ -> false

let request_stream t ~on_progress line =
  if t.closed then Error "connection closed"
  else begin
    let rec read () =
      let resp = input_line t.ic in
      if is_progress_line resp then begin
        on_progress resp;
        read ()
      end
      else resp
    in
    match
      output_string t.oc line;
      output_char t.oc '\n';
      flush t.oc;
      read ()
    with
    | resp ->
        if Wire.crc_ok resp then Ok resp
        else Error "transport: response failed integrity check"
    | exception End_of_file -> Error "connection closed by server"
    | exception Sys_error msg -> Error ("transport: " ^ msg)
    | exception Sys_blocked_io -> Error "transport: request deadline expired"
    | exception Unix.Unix_error (e, _, _) ->
        Error ("transport: " ^ Unix.error_message e)
  end

let request t req =
  match request_raw t (Wire.request_to_string req) with
  | Error _ as e -> e
  | Ok line -> (
      match Json.parse line with
      | Ok j -> Ok j
      | Error msg -> Error ("unparsable response: " ^ msg))

let close t =
  if not t.closed then begin
    t.closed <- true;
    (* [close_out] closes the shared fd; the reader just goes stale. *)
    try close_out t.oc with _ -> ()
  end

let with_connection ?retries ?backoff_s addr f =
  let t = connect ?retries ?backoff_s addr in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)
