(** The process-wide failpoint registry: named sites compiled into the
    store and service hot paths, armed from a spec string at process
    start, firing on a {!Trigger} schedule derived purely from a seed.

    The registry exists to make the robustness claims testable:
    "corruption degrades to recompute, never a wrong answer" is only a
    promise until a harness can corrupt real appends, skip real fsyncs
    and shed real admissions on demand — reproducibly, so a failing
    run can be replayed from its seed.

    {b Zero cost when unarmed.}  Every compiled-in site guards on
    {!armed}, a single atomic load that is false in normal operation;
    the registry lookup, counters and trigger arithmetic are only ever
    reached inside a chaos run.

    {b Compiled-in sites:}
    - [store.append.corrupt] — flip one byte of the framed record
      before it reaches the file (position and mask hashed).
    - [store.append.torn] — write only a prefix of the frame (a torn
      write).  The log treats it like any short or failed write: it
      truncates the file back to the frame's start and fails the put
      with [Store.Log.Append_failed], so later appends stay aligned;
      the cache above keeps serving the verdict from memory and counts
      [store_write_failures].
    - [store.fsync.skip] — silently skip a requested fsync (a lying
      disk; only observable across a crash).
    - [server.admit.overload] — shed an admission as if the gate were
      full ([overloaded]/[queue_full] to the client). *)

val parse : string -> ((string * Trigger.t) list, string) result
(** Spec grammar: comma-separated [NAME=TRIGGER], e.g.
    ["store.append.corrupt=1-in:50,server.admit.overload=after:100"].
    The empty string is the empty list. *)

val arm : ?seed:int -> string -> (unit, string) result
(** Replace the registry with the spec's sites and set the seed.
    Arming an empty spec disarms. *)

val disarm : unit -> unit

val armed : unit -> bool
(** One atomic load; the guard every site checks first. *)

val fire : string -> bool
(** [fire site] — true when the armed registry says this call of
    [site] should fail.  Unknown or unarmed sites never fire.  Counts
    calls and fires per site. *)

val salt : string -> int
(** The site's hash salt (seed ⊕ name hash) — for sites that need
    extra deterministic choices (which byte to corrupt, how much of a
    frame to tear). *)

val stats : unit -> (string * int * int) list
(** [(site, calls, fires)] per armed site, in spec order. *)
