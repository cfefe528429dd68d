(** A work-stealing domain pool for the decision procedures.

    The pool is the repo's one multicore primitive.  Since PR 9 it is
    built on per-batch Chase–Lev deques: the domain that opens a batch
    owns a deque, pushes its tasks at the bottom and pops them back LIFO,
    while worker domains steal FIFO from the top with a single CAS.
    Several batches may be in flight at once (each registered in a small
    victim table); idle workers scan the table from a randomized start
    and back off exponentially when repeated steals find nothing.
    Everything is stdlib-only ([Domain], [Atomic], [Mutex], [Condition],
    [Unix] for timestamps); there is no external dependency.

    {b Pool size.}  The size counts the calling domain, so size [p] runs
    at most [p-1] worker domains for [run]/[map] (the caller drains its
    own deque alongside the thieves) and [p] workers for [submit] (the
    submitting system thread only waits).  The default comes from the
    [PAR_DOMAINS] environment variable and falls back to [1]; size [1]
    never spawns anything and every combinator degenerates to its
    sequential equivalent on the calling domain — the byte-for-byte
    sequential code path of the pre-multicore engine.

    {b Determinism.}  All combinators return results in input order, so
    a parallel map is observationally a sequential map of a pure
    function — which tasks were stolen and in what order is invisible in
    the result.  Callers that need stronger guarantees (ordered effects,
    deterministic fuel accounting) merge the results sequentially in
    input order — see [Hom.search_violating].

    {b Nesting.}  A [run]/[map]/[submit] issued from inside a pool
    worker executes sequentially inline on that worker (counted by the
    [pool.nested_inline] obs counter) rather than publishing a nested
    batch, so nested parallelism (e.g. a parallel kernel inside
    [decide_batch]) degrades gracefully instead of deadlocking.  Kernels
    can ask [Pool.in_pool] to decline speculative fan-out up front.
    Batches opened by distinct non-worker threads are independent and
    genuinely concurrent. *)

module Deque : sig
  (** Single-owner Chase–Lev work-stealing deque.

      The owner pushes and pops at the {e bottom} (LIFO); any number of
      thieves steal from the {e top} (FIFO) racing each other and the
      owner through a CAS on the top index.  All cells and indices are
      [Atomic] so the implementation is sequentially consistent under
      the OCaml 5 memory model; the buffer grows (owner-side only) by
      doubling, and stale thieves that read a pre-growth buffer are
      safe because live cells are never moved, only copied. *)

  type 'a t

  val create : ?capacity:int -> unit -> 'a t
  (** Fresh empty deque.  [capacity] (default 64) is rounded up to a
      power of two; the deque grows on demand, so this is a hint. *)

  val push : 'a t -> 'a -> unit
  (** Owner only: push at the bottom. *)

  val pop : 'a t -> 'a option
  (** Owner only: pop the most recently pushed element (LIFO).  [None]
      when empty or when a thief won the race for the last element. *)

  val steal : 'a t -> [ `Stolen of 'a | `Empty | `Retry ]
  (** Thief: steal the oldest element (FIFO).  [`Retry] means the CAS
      was lost to the owner or another thief — the deque may still be
      non-empty, try again. *)

  val length : 'a t -> int
  (** Snapshot of [bottom - top] (clamped at 0); racy, advisory only. *)
end

module Pool : sig
  val size : unit -> int
  (** Configured pool size (≥ 1).  Initially the value of [PAR_DOMAINS]
      when set to a positive integer, else [1]. *)

  val set_size : int -> unit
  (** Set the pool size.  Values below [1] are clamped to [1].  Growing
      spawns the missing workers on the next parallel call; shrinking
      simply stops using the extras (idle workers cost nothing — they
      back off to a condition variable). *)

  val in_pool : unit -> bool
  (** [true] iff the calling domain is a pool worker, i.e. the current
      code is already executing a pool task.  Kernels use this to
      decline to sub-split: a nested [run] would inline anyway (see
      {e Nesting} above), so speculative parallel shapes — which trade
      redundant work for latency — should fall back to their sequential
      form when this returns [true]. *)

  val run : (unit -> 'a) array -> 'a array
  (** Run the thunks, possibly in parallel, and return their results in
      input order.  The calling domain pushes all tasks onto a fresh
      deque, drains it LIFO, and waits for stolen stragglers.  If any
      task raised, the exception of the lowest-indexed failing task is
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
      executed {e entirely by pool workers} — the calling (system)
      thread does not participate, it only blocks until completion, so
      every task of a submission is a steal.  The pool itself does not
      bound submissions: callers bound how much they submit at once (the
      server's admission gate, [Server.Admission], does so for the
      service).  At pool size 1 — no workers — the tasks run inline on
      the caller.  Results, exceptions and ordering follow the [run]
      contract.  Per-task queue wait (submit → execution start) is
      recorded in the [pool.queue_wait] histogram. *)

  val stats : unit -> (string * int) list
  (** Pool tallies, sorted by key: [size], [workers], [deque_push],
      [deque_pop] (owner-side LIFO pops), [steal_success], [steal_fail]
      (lost CAS races), [nested_inline], [submitted], [queue_wait_count],
      [queue_wait_us_total], [queue_wait_us_max].  The event counts are
      the [Obs] counters [pool.<key>] and the queue-wait count and total
      come from the [pool.queue_wait] histogram, so they read exactly
      what the Prometheus [metrics] exposition reports — and, like every [Obs]
      counter, they restart from zero at [Obs.enable].  Only
      [queue_wait_us_max] is kept beside the registry. *)

  val gauges : unit -> (string * int) list
  (** The entries of {!stats} that are not [Obs] counters: [size],
      [workers] and the three [queue_wait_*] readings. *)

  val shutdown : unit -> unit
  (** Stop and join all worker domains.  Registered [at_exit] when the
      first worker is spawned, so programs exit cleanly; safe to call
      multiple times, and the pool respawns on the next parallel call. *)
end
