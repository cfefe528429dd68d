(** The service wire format, shared by the server, the client and the
    CLI.

    {b Emission} is string-based (a tiny escaper and two combinators),
    moved here verbatim from the CLI so the verdict block a [decide]
    response carries is byte-identical to what [defcheck check --json]
    and [defcheck batch] print for the same outcome — and byte-identical
    between a cold decide and a warm cache hit, which the service bench
    and CI assert.

    {b The protocol} is newline-delimited JSON over a stream socket: one
    request object per line in, one response object per line out, in
    order.  Operations:

    {v
    {"op":"ping"}
    {"op":"stats"}
    {"op":"shutdown"}
    {"op":"sleep","ms":250}
    {"op":"decide","lang":"rem","instance":"node v1 0\n...","k":2,
     "fuel":100000,"timeout_s":1.5}
    {"op":"batch","lang":"rem","instances":["...","..."],...}
    {"op":"delta","lang":"rem","digest":"<hex>",
     "edit":{"edit":"add_edge","u":"v0","label":"a","v":"v3"},...}
    {"op":"compact"}
    {"op":"export","limit":64}
    {"op":"import","entries":[{"digest":"<hex>","payload":"<hex>"},...]}
    v}

    [instance] carries the instance file text ({!Datagraph.Graph_io}
    format).  [k], [fuel] and [timeout_s] are optional; absent fuel and
    timeout fall back to the server's defaults.  [sleep] occupies a
    worker slot for [ms] milliseconds and answers [ok] — a diagnostic
    op for load-testing admission control and drain behaviour without
    depending on any instance being slow.

    [delta] is the incremental step: [digest] quotes the instance
    digest a previous [decide] (or [delta]) response carried, and
    [edit] is one {!edit} object.  Edits name nodes by node name, like
    instance files; [add_node] carries the integer data value.
    [set_relation] replaces the target relation's tuple set.

    Responses always carry ["op"] (echoed) and ["status"]: ["ok"],
    ["error"] (with ["error"] text), or ["overloaded"] (admission
    refused; ["detail"] is ["queue_full"] or ["draining"]).  A [decide]
    response carries ["cache"] (["hit"]/["miss"]), ["digest"] (the
    instance digest, quotable in a [delta] request) and ["result"] —
    the CLI verdict block.  A [batch] response carries ["results"], one
    such object (or a per-instance error object) per instance.  A
    [delta] response carries ["repair"] (["hit"] when certificate
    repair served the verdict, ["miss"] when the server fell back to a
    full decide), ["digest"] (the chained digest of the {e edited}
    instance, for the next step of the stream) and ["result"].

    The tiered-storage ops: [compact] rewrites the durable store's
    snapshot and answers with the store's stats; [export] returns the
    server's hottest cache entries as [(digest, hex payload)] pairs in
    the {!Tier} codec; [import] admits such entries (each is
    certificate-checked before it is stored — see {!Cache.import}).
    [export]/[import] are the warm-transfer path a router uses to move
    entries onto the shard the ring says owns them. *)

(** {2 JSON emission} *)

val json_string : string -> string
val json_obj : (string * string) list -> string
val json_list : string list -> string

val fixed6 : float -> string
(** [Printf.sprintf "%.6f"], byte for byte, without Printf on the
    common case: every timing the service renders (the [service] block,
    progress frames, the slow-request log, a request's [timeout_s])
    goes through it.  Negative, non-finite, huge ([>= 1e9]) and
    near-tie values take Printf's own path. *)

(** {2 Response integrity}

    Every response line the server or router composes is {e sealed}: a
    trailing ["crc"] field carries the CRC-32 (8 lowercase hex digits)
    of the object rendered without it.  The seal lives inside the JSON
    object, so verbatim relay preserves it across hops and any byte
    flipped in transit (a chaos proxy, a bad NIC) fails verification at
    the first receiver that checks — the router drops and retries the
    shard connection, the client reports a typed transport error —
    instead of surfacing as a silently wrong verdict.  Progress frames
    are not sealed. *)

val seal : (string * string) list -> string
(** [json_obj fields] with the integrity field appended (the empty
    field list renders unsealed — there is nothing to protect). *)

val seal_line : string -> string
(** Seal an already-rendered object line (identity on anything that is
    not an [{...}] object).  Clients may seal {e request} lines with
    this; servers reject a request whose seal fails verification with a
    typed ["request failed integrity check"] error, so a byte flipped in
    transit cannot execute as a subtly different request.  Unsealed
    requests are always accepted. *)

val crc_status : string -> [ `Sealed_ok | `Sealed_bad | `Unsealed ]
(** [`Unsealed] — no trailing crc field (progress frames, foreign or
    truncated lines); [`Sealed_bad] — a crc field that does not match
    the rest of the line's bytes. *)

val sealed : string -> bool
(** The line ends with a seal trailer, whether or not its CRC matches
    (not [`Unsealed]).  A line that also passed {!crc_ok} — as every
    reply {!Client.request_raw} returns has — is [`Sealed_ok], so a
    relay can require a seal without computing the CRC again. *)

val crc_ok : string -> bool
(** Not [`Sealed_bad]: unsealed lines pass, so callers that may
    legitimately receive unsealed lines can still reject corruption. *)

val verdict_fields :
  Datagraph.Data_graph.t ->
  lang:string ->
  Engine.Outcome.t ->
  (string * string) list
(** The five-field verdict block ([lang], [verdict], [reason],
    [certificate], [counterexample]) with every value already rendered
    as JSON — everything that must be byte-identical across pool sizes
    and across cache hits.  Node names are taken from the given graph,
    so a cached outcome renders with the requester's names. *)

val verdict_to_string :
  Datagraph.Data_graph.t -> lang:string -> Engine.Outcome.t -> string
(** [json_obj (verdict_fields ...)]. *)

(** {2 Addresses} *)

type address =
  | Unix_sock of string  (** path of a Unix-domain socket *)
  | Tcp of string * int  (** host, port *)

val address_to_string : address -> string
(** ["unix:PATH"] or ["tcp:HOST:PORT"], for logs and banners. *)

val sockaddr_of : address -> Unix.sockaddr
(** Resolve to a [Unix.sockaddr] (TCP hosts via [gethostbyname]).
    @raise Failure on an unresolvable host. *)

(** {2 Edits}

    The wire form of {!Engine.Delta.graph_edit}: nodes by {e name}
    (resolved against a concrete graph only at the point of use), data
    values as integers. *)

type edit =
  | Add_edge of string * string * string  (** source, label, target *)
  | Remove_edge of string * string * string
  | Add_node of string * int  (** name, data value *)
  | Set_relation of string list list  (** tuples of node names *)

val edit_to_json_string : edit -> string
(** One JSON object, e.g.
    [{"edit":"add_edge","u":"v0","label":"a","v":"v3"}]. *)

val edit_of_json : Json.t -> (edit, string) result

val edit_of_string : string -> (edit, string) result
(** Parse one edit object — the line format of a [watch] edit stream. *)

val resolve_edit :
  Datagraph.Data_graph.t -> edit -> (Engine.Delta.graph_edit, string) result
(** Resolve node names against a graph.  [Error] on an unknown name. *)

(** {2 Requests} *)

type request =
  | Ping
  | Stats
  | Shutdown
  | Sleep of { ms : int }
  | Decide of {
      lang : string;
      k : int option;
      fuel : int option;
      timeout_s : float option;
      instance : string;
    }
  | Batch of {
      lang : string;
      k : int option;
      fuel : int option;
      timeout_s : float option;
      instances : string list;
    }
  | Delta of {
      lang : string;
      k : int option;
      fuel : int option;
      timeout_s : float option;
      digest : string;  (** instance digest from a previous response *)
      edit : edit;
    }
  | Compact
  | Export of { limit : int option }  (** default: the server decides *)
  | Import of { entries : (string * string) list }
      (** [(digest, hex-encoded Tier record)] pairs *)
  | Metrics
      (** Prometheus text exposition + a mergeable raw snapshot; the
          router aggregates this across shards. *)

(** {2 The observability envelope}

    Extra fields any request line may carry, orthogonal to the op:

    {v
    {"op":"decide",...,"trace_id":"t-42","parent_span":"client","stream":true}
    v}

    [trace_id]/[parent_span] propagate a distributed-trace context: the
    server opens its root span under [trace_id], so per-process Chrome
    traces from a router and its shards share one id and
    [defcheck trace-merge] can stitch them into a single timeline.
    [stream] (on [decide]) asks for interim newline-JSON [progress]
    frames — span enter/exit and counter deltas — before the final
    response line; each frame is one JSON object with a ["progress"]
    field, so a client distinguishes frames from the response without
    lookahead.  The envelope never changes the verdict bytes. *)

type envelope = {
  trace_id : string option;
  parent_span : string option;
  stream : bool;
}

val empty_envelope : envelope

val envelope_of_json : Json.t -> envelope
(** Total: malformed or absent envelope fields degrade to their
    defaults — tracing can never fail a request. *)

val request_to_string : request -> string
(** One-line JSON encoding (no trailing newline). *)

val request_line : ?envelope:envelope -> request -> string
(** {!request_to_string} with the envelope's fields appended (absent
    fields and [stream = false] are omitted, so
    [request_line r = request_to_string r] for the empty envelope). *)

val request_of_json : Json.t -> (request, string) result
val request_of_string : string -> (request, string) result
