(** The request front end shared by the shard server ({!Server}) and
    the router ({!Router}).  It owns the listening socket, the accept
    loop, one handler thread per connection with its read loop and
    optional idle timeout, the decoding of every request line (a sealed
    line whose CRC fails is refused before it is parsed), the sealed
    response and one error counter.  What a request does is the
    caller's: {!run} takes a per-connection state, a dispatch function
    and a trace policy. *)

type t

val listen : ?idle_timeout_s:float -> Wire.address -> t
(** Bind and listen (a stale Unix socket file is unlinked first), with
    [SIGPIPE] ignored and [Obs] lanes told apart by thread id.
    [idle_timeout_s] closes a connection whose next request does not
    arrive in time ([SO_RCVTIMEO]); [None] waits forever.
    @raise Unix.Unix_error when binding fails; no socket is left open. *)

val run :
  t ->
  span:string ->
  trace_id:(Wire.envelope -> string option) ->
  open_conn:(unit -> 'c) ->
  close_conn:('c -> unit) ->
  dispatch:('c -> out_channel -> string -> Wire.envelope -> Wire.request -> unit) ->
  unit
(** Serve until {!stop}, then close the socket and unlink its file.
    Each connection gets a state from [open_conn], passed to
    [close_conn] when it ends.  Blank lines are skipped; a refused line
    gets an error response; a broken connection is dropped; any other
    exception from [dispatch] answers ["internal: ..."].  A decoded
    request runs [dispatch state oc raw_line envelope request] under a
    root span named [span], in the trace context [trace_id envelope]
    when that is [Some]. *)

val stop : t -> unit
(** Wake the accept loop with a self-connection and stop it.
    Idempotent, safe from any thread. *)

val address : t -> Wire.address

val requests : t -> int
(** Request lines read, blank lines excluded. *)

val errors : t -> int
(** Lines refused (integrity, parse, unknown op or bad fields),
    ["internal: ..."] failures, and every {!count_error}. *)

val count_error : t -> unit

val respond : out_channel -> (string * string) list -> unit
(** Write the fields as one sealed ({!Wire.seal}) line and flush. *)

val ok : string -> (string * string) list -> (string * string) list
val error_fields : ?status:string -> string -> string -> (string * string) list
