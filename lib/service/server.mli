(** The definability server: a long-running process serving the
    {!Wire} protocol over a Unix-domain or TCP socket, backed by the
    cross-request {!Cache}.

    {b Threading model.}  One acceptor (the thread that calls {!run})
    plus one handler thread per connection.  Cheap control ops ([ping],
    [stats], [shutdown]) are answered directly by the handler thread and
    never queue behind work, so the server answers [ping] while a
    long-budget [decide] is in flight.  Work ops ([decide], [batch],
    [delta], [sleep]) pass {e admission control} first.  For a
    [decide] the handler thread then digests the request text, parses
    and hashes the instance only if the cache's text memo has not seen
    those bytes, and looks it up in the memory tier
    ({!Cache.probe_text}); a hit on an entry
    whose certificate is already checked is rendered and answered right
    there.  Only work that checks a certificate, reads the durable tier
    or decides is {e submitted to the shared [Par.Pool] domains},
    reusing the parsed instance and its keys.  Every [batch] item (parse
    and hash included) and every [delta] body is submitted whole, so
    concurrent requests and batch items fill idle domains.  Admission is
    the one bound on that work: an admitted op's bodies are always
    queued on the pool, never refused there.  At pool size 1 bodies run
    inline on the handler thread.  Whichever way it is served, a
    verdict's [result] block is byte-identical.

    {b Admission control.}  At most [max_inflight] work ops execute at
    once; up to [queue_depth] more wait (FIFO-ish, condition-variable
    order) for a slot.  Work beyond that bound is refused immediately
    with an [overloaded] response instead of queuing unboundedly or
    hanging — the client can back off and retry.  {!Admission} exposes
    the gate on its own for deterministic unit tests.

    {b Shutdown.}  A [shutdown] request (or {!shutdown}) stops admitting
    new work, {e drains} — waits for every running and queued work op to
    finish — answers the requester, and only then stops the accept loop.
    In-flight requests are never dropped.

    {b Budgets.}  Every decide gets a fresh [Engine.Budget] from the
    request's [fuel]/[timeout_s], falling back to [default_fuel] /
    [default_deadline_s]; a deadline bounds how long a request can hold
    a worker slot, which is the knob that keeps the drain finite.

    {b Durable tier.}  With [store_dir] set, the cache writes every
    cacheable verdict through to a {!Store.Log} in that directory and
    serves warm hits from it across restarts (certificate checked on
    the first hit after promotion, byte-identical verdict blocks).  The [compact], [export] and
    [import] ops expose compaction and warm transfer to routers and
    operators; like the other control ops they bypass admission.

    {b Observability.}  Each request runs under a root
    ["service.request"] span tagged with the wire envelope's [trace_id]
    (minted locally when absent and the plane is live); work-op
    latencies land in the [op.decide]/[op.batch]/[op.delta] histograms.
    [stats] and [metrics] render one snapshot, built in one place: the
    [Obs] registry (histograms and process-wide counters, which always
    count) plus this server's own counts as counters named
    [service.<key>] / [service.cache.<key>] and its current readings as
    gauges.  [metrics] renders it as Prometheus text plus a mergeable
    raw snapshot ({!Metrics}); [stats] flattens it with one naming rule
    — drop a leading [service.], then ['.'] becomes ['_'] — so the two
    ops agree counter for counter.  A [decide] with
    [stream] set receives newline-JSON progress frames before the final
    line; and [slow_ms] arms a one-line-per-slow-request JSON log.
    None of it changes verdict bytes — the plane fully on or fully off
    yields byte-identical [result] blocks. *)

(** The admission gate, alone: a counting semaphore with a bounded wait
    queue and a draining state. *)
module Admission : sig
  type gate

  val make : max_inflight:int -> queue_depth:int -> gate
  (** @raise Invalid_argument if [max_inflight < 1] or
      [queue_depth < 0]. *)

  val admit : gate -> [ `Admitted | `Overloaded | `Draining ]
  (** Take a slot.  Blocks while a slot may still open (queue not full);
      returns [`Overloaded] without blocking when [queue_depth] waiters
      are already ahead, and [`Draining] once {!drain} has begun. *)

  val release : gate -> unit
  (** Give the slot back (must follow a successful {!admit}). *)

  val drain : gate -> unit
  (** Refuse new admissions and block until every admitted and queued op
      has released.  Idempotent; concurrent drains all wait. *)

  val running : gate -> int
  val waiting : gate -> int
end

type config = {
  max_inflight : int;  (** concurrent work ops (default 4) *)
  queue_depth : int;  (** waiting work ops beyond that (default 16) *)
  default_fuel : int option;  (** budget fuel when the request has none *)
  default_deadline_s : float option;
      (** budget deadline when the request has none *)
  cache : Cache.config;
  store_dir : string option;
      (** durable-tier directory; [None] (default) = memory only.  The
          store is recovered on {!create} and closed after {!run}'s
          drain. *)
  fsync : Store.Log.fsync_policy;  (** default [Every 64] *)
  auto_compact_bytes : int;
      (** compact when the log outgrows this (0 = manual, the default) *)
  shard : (int * int) option;
      (** this process's identity [(index, count)] in a sharded
          deployment — informational (reported in [stats]); placement
          lives in the router's {!Ring} *)
  export_limit : int;
      (** default entry count for an [export] with no limit (64) *)
  slow_ms : float option;
      (** slow-request log threshold: a work op whose wall time is
          [>= slow_ms] milliseconds emits one JSON line (trace id, op,
          digest, phase breakdown) via [slow_log]; [None] (default)
          disarms the log.  Phase totals need the telemetry plane
          enabled; without it the line carries only the queue-wait /
          work split. *)
  slow_log : string -> unit;
      (** where slow-request lines go (default: stderr, flushed) *)
  idle_timeout_s : float option;
      (** close a keep-alive connection whose {e next} request does not
          arrive within this many seconds — a kernel receive timeout on
          the accepted socket, so an idle client stops costing this
          server a parked handler thread.  [None] (default): wait
          forever, the pre-PR-10 behaviour. *)
}

val default_config : config

type t

val create : ?config:config -> Wire.address -> t
(** Bind and listen (a stale Unix-socket file is unlinked first).
    @raise Unix.Unix_error when binding fails. *)

val cache : t -> Cache.t
val config : t -> config
val address : t -> Wire.address

val run : t -> unit
(** Serve until shutdown; returns after the drain completes.  Call from
    the thread that owns the server (tests run it in a [Thread]). *)

val shutdown : t -> unit
(** Programmatic shutdown: same drain path as the [shutdown] op.  Safe
    from any thread; returns once drained and the acceptor is stopping. *)

val stats : t -> (string * int) list
(** The [stats] op's body, sorted by name: server counts (requests by
    op, overload refusals, errors), [uptime_seconds], [started_at],
    [inflight], [queued], the shard identity, {!Cache.stats} prefixed
    [cache_], {!Par.Pool.stats} prefixed [pool_], every other [Obs]
    counter (['.'] → ['_']), and armed failpoints' [fault_*] tallies.
    Gauges are truncated to integers. *)
