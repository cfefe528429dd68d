(** Zero-dependency telemetry for the decision engine.

    The library has four pieces: {!Span} (timed, nested phases of a
    decision — CSP construction, witness search, REE closure, …),
    {!Counter} (monotone event counts — cache hits and misses, budget
    takes, reachability-matrix builds), {!Histogram} (log-bucketed
    latency distributions with mergeable snapshots and percentile
    extraction), and {!Sink} (where span records go: an in-memory
    per-phase aggregator, a Chrome trace-event collector, or nothing).

    {b Overhead policy.}  Counters and histograms always count: an
    increment is one atomic fetch-and-add, a histogram sample two, and
    neither allocates.  That makes them the one counting path of the
    process — the service's [stats] and [metrics] ops and the bench
    read the same registry, and agree by construction.  (A gated
    variant, one branch on the enabled flag per event, was measured on
    the paper's deciders and saved nothing distinguishable from noise.)
    Spans and sinks are what the enabled flag gates: while telemetry is
    disabled (the default), {!Span.with_} is one predictable branch —
    no clock syscalls, no allocation, no sink dispatch.  Enabling is
    scoped and explicit: {!enable} installs sinks and zeroes all
    counters and histograms, so a caller can scope a reading to one
    region; {!disable} uninstalls the sinks.  [Budget.take] keeps its
    own per-budget tally and flushes it to a counter once per decide,
    so the hottest loop pays nothing per step.

    {b Domain safety.}  Counters and histogram buckets are atomic
    (increments from worker domains never lose updates), span nesting
    depth is tracked per-domain, each span records the domain and thread
    that produced it, and sink dispatch is serialized by one lock taken
    only while telemetry is enabled — so [decide_batch] and the
    server's pool-executed decides can run instrumented.  The Chrome
    trace sink emits one thread track per (domain, thread) lane, keeping
    concurrent span trees properly nested and the trace Perfetto-valid.
    [enable]/[disable] themselves are management operations: call them
    from one domain, outside parallel regions.

    {b Distributed traces.}  {!Ctx.with_trace} tags every span recorded
    by the current (domain, thread) lane with a trace id; the service
    layer carries that id across socket hops, so per-process Chrome
    traces can be stitched into one timeline ([defcheck trace-merge]). *)

type span = {
  name : string;  (** phase name, e.g. ["witness.search"] *)
  start_s : float;  (** [Unix.gettimeofday] at entry *)
  stop_s : float;  (** … and at exit (including exceptional exit) *)
  depth : int;  (** nesting depth at entry; 0 = root span *)
  dom : int;  (** id of the domain that recorded the span *)
  tid : int;  (** thread id within the domain (0 unless a hook is set) *)
  trace : string option;  (** distributed-trace id, when recorded under one *)
}

val set_thread_id_fn : (unit -> int) -> unit
(** Install the thread-identity hook.  This library does not depend on
    the [threads] library, so a threaded linker (the service layer)
    installs [fun () -> Thread.id (Thread.self ())] once at startup;
    everyone else keeps the default [fun () -> 0]. *)

val thread_id : unit -> int
(** The current thread id as reported by the installed hook. *)

(** Per-lane distributed-trace context. *)
module Ctx : sig
  val with_trace : string option -> (unit -> 'a) -> 'a
  (** [with_trace (Some id) f] runs [f] with every span recorded by this
      (domain, thread) lane tagged [trace = Some id]; [with_trace None f]
      clears the tag for the extent of [f].  Restores the previous
      context on exit, including exceptional exit. *)

  val current : unit -> string option
  (** The trace id of the current lane, if any. *)
end

module Counter : sig
  type t

  val make : string -> t
  (** Create and register a named counter (module-initialization time;
      the registry is global and append-only). *)

  val incr : t -> unit
  (** Add one (one atomic fetch-and-add), enabled or not. *)

  val add : t -> int -> unit
  (** Add [n], enabled or not. *)

  val value : t -> int
  val name : t -> string

  val all : unit -> (string * int) list
  (** Every registered counter with its current value, sorted by name.
      Counters register themselves at module-initialization time, so
      the catalogue always lists every instrumented subsystem that is
      linked in — zeros included. *)

  val reset_all : unit -> unit
  (** Zero every counter ({!enable} does this automatically). *)
end

(** Log-bucketed latency histograms.

    Fixed-size bucket array: 16 exact one-nanosecond buckets below 16ns,
    then 4 sub-buckets per power of two up to [2^60]ns, then one
    overflow bucket — 241 buckets total, each an [int Atomic.t], so
    recording from any domain is lock-free and allocation-free.
    Relative bucket width is ≤ 1/4 of the value, which bounds the error
    of any reported percentile.  Snapshots are plain int arrays and
    merge by pointwise addition, so the router can aggregate shard
    histograms and extract cluster-wide percentiles exactly. *)
module Histogram : sig
  type t

  val make : string -> t
  (** Create and register a named histogram (module-initialization time;
      the registry is global and append-only). *)

  val name : t -> string

  val record_ns : t -> int -> unit
  (** Record one sample, in nanoseconds, enabled or not; negative
      samples clamp to 0. *)

  val record_s : t -> float -> unit
  (** Record one sample, in seconds (converted to ns, rounded). *)

  val time : t -> (unit -> 'a) -> 'a
  (** [time h f] runs [f], recording its wall time — also on exceptional
      exit.  Costs two clock reads around [f]. *)

  val n_buckets : int

  val bucket_index : int -> int
  (** The bucket a sample of [v] ns lands in. *)

  val bucket_upper_ns : int -> int
  (** Inclusive upper bound of bucket [i] in ns ([max_int] for the
      overflow bucket).  [bucket_index (bucket_upper_ns i) = i] for all
      non-overflow buckets. *)

  (** A point-in-time copy of the bucket array; plain data, safe to
      serialize and merge. *)
  type snapshot = { counts : int array; sum_ns : int }

  val snapshot : t -> snapshot
  val zero_snapshot : unit -> snapshot

  val merge : snapshot -> snapshot -> snapshot
  (** Pointwise sum.  Tolerates snapshots of differing lengths (shorter
      arrays are zero-padded), so wire peers of different builds merge
      safely. *)

  val total : snapshot -> int
  (** Total sample count. *)

  val percentile_of : snapshot -> float -> int
  (** [percentile_of s p] (p in [0,100]) returns the inclusive upper
      bound, in ns, of the bucket holding the [ceil (p/100 * n)]-th
      smallest sample — i.e. the value a sorted reference array would
      report, rounded up to its bucket boundary.  0 when empty. *)

  val percentile_ns : t -> float -> int
  val count : t -> int
  val sum_ns : t -> int

  val reset : t -> unit
  val reset_all : unit -> unit
  (** Zero every histogram ({!enable} does this automatically). *)

  val all : unit -> t list
  (** Every registered histogram, sorted by name. *)
end

module Sink : sig
  type t
  (** A span consumer.  Sinks receive each completed span exactly once,
      at span exit (innermost first); sinks built with {!make_full} are
      additionally notified at span entry. *)

  val make : (span -> unit) -> t

  val make_full : enter:(span -> unit) -> (span -> unit) -> t
  (** [make_full ~enter record]: [enter] fires at span entry with a span
      whose [stop_s] equals [start_s] (the duration is not yet known);
      [record] fires at exit with the completed span.  Both run under
      the sink dispatch lock — they must not raise (an exception
      propagates to the instrumented code) and must not re-enter
      {!Span.with_}. *)

  val null : t
  (** Drops everything — observation with no record. *)

  (** In-memory per-phase aggregation: call counts and total wall time
      keyed by span name.  This is what renders as the [stats] block of
      [check --json] and the per-phase bench breakdowns. *)
  module Agg : sig
    type agg

    val create : unit -> agg
    val sink : agg -> t

    val phases : agg -> (string * int * float) list
    (** [(name, calls, total wall seconds)] per distinct span name,
        sorted by name. *)
  end

  (** Chrome [trace_event] collection: keeps every span and serializes
      the lot as a JSON array of complete ("ph":"X") events, plus one
      counter ("ph":"C") event per registered counter, loadable in
      [chrome://tracing] and Perfetto.  Timestamps are microseconds
      relative to the earliest recorded span.  Spans recorded under a
      {!Ctx} trace context carry ["trace_id"] in their args. *)
  module Trace : sig
    type trace

    val create : unit -> trace
    val sink : trace -> t

    val to_string : ?counters:(string * int) list -> trace -> string
    val write : ?counters:(string * int) list -> trace -> out_channel -> unit

    (** {2 Streaming}

        The in-memory collector above loses everything when the traced
        computation raises before [write] runs.  A [stream] writes each
        span to the channel the moment it completes (one flush per
        event), so the file always holds every finished span; and
        {!close_stream} — idempotent, safe from [at_exit] — terminates
        the JSON array on both normal and exceptional exits, keeping the
        file loadable in Perfetto either way. *)

    type stream

    val stream : ?process:string -> out_channel -> stream
    (** Write the array opener, a ["clock_sync"] metadata event carrying
        the stream's absolute time origin (unix epoch µs — what
        [trace-merge] aligns per-process files with), and, when
        [?process] is given, a ["process_name"] metadata event; spans
        are stamped relative to this call.  The channel stays owned by
        the caller; {!close_stream} flushes but does not close it. *)

    val stream_sink : stream -> t
    (** Records each span as one flushed trace event.  Safe from any
        domain; events after {!close_stream} are dropped. *)

    val close_stream : ?counters:(string * int) list -> stream -> unit
    (** Emit one counter event per entry, close the JSON array and
        flush.  Idempotent — later calls (and later recorded spans) are
        no-ops, so registering it with [at_exit] {e and} calling it on
        the success path is fine. *)
  end
end

val enabled : unit -> bool

val enable : Sink.t list -> unit
(** Install the sinks, zero all counters and histograms, and turn
    observation on. *)

val disable : unit -> unit
(** Turn span observation off and drop the sinks.  Counters and
    histograms keep counting; their values are only zeroed by the next
    {!enable}. *)

val add_sink : Sink.t -> unit
(** Install an additional sink without disturbing the ones already
    registered.  Used for request-scoped sinks (streaming progress);
    pair with {!remove_sink}. *)

val remove_sink : Sink.t -> unit
(** Remove a sink previously added (physical equality). *)

module Span : sig
  val with_ : string -> (unit -> 'a) -> 'a
  (** [with_ name f] runs [f], recording one {!span} around it to every
      installed sink — also when [f] raises.  While telemetry is
      disabled this is exactly [f ()] after one branch. *)
end
