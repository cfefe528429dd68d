(** A domain pool for whole requests: one FIFO of tasks under one
    [Mutex], served by worker domains that sleep on one [Condition] while
    it is empty.  [run]/[map] and [submit] share one path — the caller
    appends its batch to the queue and waits for the batch's last task.
    A [run]/[map] caller helps meanwhile, popping and running queued
    tasks (its own or another batch's); a [submit] caller (a service
    handler thread) only waits.  Batches are served in arrival order.

    {b Pool size.}  The size counts the calling domain: size [p] asks for
    [p-1] workers for [run]/[map] and [p] for [submit], capped at
    [max 1 (Domain.recommended_domain_count ())] — more domains than
    cores cannot run at once, and each joins every minor-GC barrier.  The
    default is [PAR_DOMAINS], else [1]; size [1] spawns nothing and every
    combinator is its sequential equivalent on the calling domain.

    {b Determinism.}  All combinators return results in input order, so
    which domain ran which task is invisible in the result.  The pool
    parallelizes requests, never the inside of one search: its callers
    are [Registry.decide_batch] and the server's request bodies, and
    every kernel runs sequentially on whichever domain picks its task up.

    {b Nesting.}  A [run]/[map]/[submit] issued from inside a pool worker
    runs sequentially inline on that worker (counted by the
    [pool.nested_inline] obs counter) rather than queueing a nested
    batch, so a task that opens a batch cannot deadlock the workers. *)

module Pool : sig
  val size : unit -> int
  (** Configured pool size (≥ 1).  Initially the value of [PAR_DOMAINS]
      when set to a positive integer, else [1]. *)

  val set_size : int -> unit
  (** Set the pool size.  Values below [1] are clamped to [1].  Growing
      spawns the missing workers (up to the cap) on the next parallel
      call; shrinking joins nothing — spawned workers keep serving the
      queue and sleep on its condition while it is empty. *)

  val run : (unit -> 'a) array -> 'a array
  (** Run the thunks, possibly in parallel, and return their results in
      input order.  The calling domain queues all tasks, then pops and
      runs queued tasks until its whole batch has finished.  If any task
      raised, the exception of the lowest-indexed failing task is
      re-raised after the whole batch has completed (the pool is never
      left with stray tasks).  Tasks must not themselves block on the
      pool. *)

  val map : ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array
  (** Parallel [Array.map], chunked: the input is split into contiguous
      chunks ([chunk] elements each; default [n / (4·size)], at least 1)
      so per-task overhead amortizes over many small elements.  Results
      are in input order. *)

  val map_list : ?chunk:int -> ('a -> 'b) -> 'a list -> 'b list
  (** [map] over a list (converted through an array; order preserved). *)

  val submit : (unit -> 'a) array -> 'a array
  (** External submission path, used by the service layer: the batch is
      queued for the pool workers — the calling (system) thread does not
      participate, it only blocks until completion (a concurrent [run]
      caller may help with it).  The pool itself does not bound
      submissions: callers bound how much they submit at once (the
      server's admission gate, [Server.Admission], does so for the
      service).  At pool size 1 — no workers — the tasks run inline on
      the caller.  Results, exceptions and ordering follow the [run]
      contract.  Per-task queue wait (submit → execution start) is
      recorded in the [pool.queue_wait] histogram. *)

  val stats : unit -> (string * int) list
  (** Pool tallies, sorted by key: [size], [workers] (spawned worker
      domains), [nested_inline], [submitted] (tasks queued, by [run] and
      [submit] alike), [queue_wait_count], [queue_wait_us_total],
      [queue_wait_us_max].  The event counts are the [Obs] counters
      [pool.<key>] and the queue-wait count and total come from the
      [pool.queue_wait] histogram, so they read exactly what the
      Prometheus [metrics] exposition reports — and, like every [Obs]
      counter, they restart from zero at [Obs.enable].  Only
      [queue_wait_us_max] is kept beside the registry. *)

  val gauges : unit -> (string * int) list
  (** The entries of {!stats} that are not [Obs] counters: [size],
      [workers] and the three [queue_wait_*] readings. *)

  val shutdown : unit -> unit
  (** Stop and join all worker domains once the queue is empty.
      Registered [at_exit] when the first worker is spawned; safe to call
      multiple times, and the pool respawns on the next parallel call. *)
end
