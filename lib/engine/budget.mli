(** Resource budgets for the decision procedures.

    A budget combines {e step fuel} (a deterministic bound on the number of
    search steps — explored tuples, closure elements, backtracking nodes)
    with a {e wall-clock deadline}.  Searches consume the budget via
    {!take}; once either resource runs out the budget is {e sticky}: every
    further {!take} fails, so a search unwinds promptly and uniformly
    reports [Unknown Budget_exhausted] instead of a verdict.

    Fuel exhaustion is fully deterministic (the same instance and fuel
    always stop at the same step), which the budget tests rely on;
    deadlines are polled only every few steps to keep [take] off the
    clock-syscall path.

    Budgets are {e domain-safe}: the fuel counter and the sticky dead
    flag live in a single atomic state word, so concurrent {!take}s from
    several domains never lose steps, never resurrect a dead budget, and
    grant exactly [fuel] steps in total.  Parallel searches sharing one
    unbounded-fuel budget should take through a per-domain {!local} view,
    which claims steps in chunks to keep the shared word uncontended. *)

type t

val unlimited : unit -> t
(** No fuel bound, no deadline. *)

val create : ?fuel:int -> ?deadline_s:float -> unit -> t
(** [create ?fuel ?deadline_s ()] allows at most [fuel] steps (default
    unbounded) and expires [deadline_s] seconds from now (default never).
    A fresh budget must be created per [decide] call — budgets are
    mutable and not reusable.
    @raise Invalid_argument on negative [fuel] or [deadline_s]. *)

val take : t -> bool
(** Consume one step.  [false] once the budget is exhausted (and forever
    after). *)

val exhausted : t -> bool
(** Non-consuming check; probes the deadline immediately (not throttled). *)

val used : t -> int
(** Steps consumed so far (successful {!take}s). *)

val fuel_limit : t -> int option
(** The fuel bound, if any. *)

val has_fuel_limit : t -> bool
(** Whether the budget bounds steps at all.  [Hom]'s violating-
    homomorphism search, the one kernel with a parallel path, checks
    this to pick a strategy: finite fuel forces the deterministic
    sequential search order (so exhaustion hits the same step at any
    pool size), unbounded fuel admits its parallel root split. *)

(** {2 Per-domain views}

    A {!local} view amortizes contention on a budget shared by several
    domains: for unbounded-fuel budgets it claims {e chunks} of steps
    from the shared atomic word and hands them out locally, probing the
    deadline once per chunk (so a deadline is honoured within one chunk
    per domain).  With finite fuel, {!take_local} falls through to plain
    {!take} — chunk claiming would over-commit steps and break the
    deterministic exhaustion point.  A view belongs to one domain; make
    one per parallel task. *)

type local

val local : t -> local
val take_local : local -> bool

val flush_telemetry : t -> unit
(** Publish the budget's step and deadline-poll tallies to the
    [budget.takes] / [budget.deadline_polls] {!Obs.Counter}s (a no-op
    while telemetry is disabled).  Called by [Registry.decide] after the
    decider returns; budgets are fresh per dispatch, so the one flush
    counts each attempt exactly once.  The takes tally is read straight
    out of the atomic state word and the poll tally off the (throttled)
    probe path — [take] stays free of observation calls, keeping the
    hottest engine entry point at its uninstrumented cost. *)
