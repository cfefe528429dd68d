(** Execute a {!Workload} against a live server or router and check the
    chaos safety invariant.

    The runner drives the precomputed schedule through
    {!Service.Client} connections (closed-loop worker threads, or
    open-loop pacing with bounded outstanding requests), records
    per-op latencies into the [load.op.*] {!Obs.Histogram}s, classifies
    every response into a typed error taxonomy, and collects the
    {e verdict map}: instance digest → verdict block bytes, the
    ground truth a chaos replay is compared against.

    {b Error taxonomy.}  Allowed failures — ones fault injection is
    permitted to cause — are backpressure ([overloaded] /
    [queue_full] / [draining]), typed shard unavailability, transport
    errors (connection reset, deadline expiry, integrity-rejected
    response bytes) and stale delta digests (an evicted or
    restart-lost parent).  Everything else — a malformed-request
    error, an unparseable response, or two different verdict blocks
    for one digest — is {e disallowed} and lands in
    [report.disallowed]: under the safety invariant a faulty run may
    fail loudly but must never answer wrongly.

    {b Delta chains.}  Per-entry chain state walks the entry's edit
    trace: a chain with no live digest first cold-decides the base
    instance, then each [delta] op advances one edit; any failed or
    completed chain resets to the base.  Chained digests are
    path-deterministic, so every run's chain digests are prefixes of
    the same sequence — the chaos run's verdict map keys are (chain
    resets aside) a subset of the clean run's. *)

type report = {
  seed : int;
  schedule_crc : string;
  requests : int;  (** wire requests sent *)
  ok : int;
  errors : (string * int) list;  (** taxonomy class -> count, sorted *)
  disallowed : string list;  (** invariant violations (capped at 64) *)
  verdicts : (string * string) list;
      (** digest -> verdict-block bytes (canonical render), sorted *)
  latency_us : (string * (int * int * int * int)) list;
      (** op -> (count, p50, p99, max) in microseconds *)
  wall_s : float;
}

val run :
  ?progress:(int -> unit) ->
  seed:int ->
  addr:Service.Wire.address ->
  Workload.t ->
  (report, string) result
(** Execute the schedule.  [Error] only when the server is unreachable
    at startup; per-request failures are classified into the report.
    [progress] is called with the number of completed ops, every 1000
    ops. *)

val report_to_string : report -> string
(** One-line JSON rendering (stable field order). *)

val report_of_string : string -> (report, string) result

val check : clean:report -> chaos:report -> (int, string list) result
(** The safety invariant, clean vs chaos: both reports must carry the
    same [schedule_crc]; every chaos verdict whose digest the clean run
    also answered must be byte-identical to the clean verdict; neither
    run may have [disallowed] events, and the clean run no errors of
    any class.  [Ok n] gives the
    number of digests compared; [Error] lists every violation. *)
