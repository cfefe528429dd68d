(* The whole hot-path state lives in one atomic word:

       state = (attempts lsl 1) lor dead_bit

   [take] is a single [Atomic.fetch_and_add] on that word — domain-safe
   by construction, and on the sequential path (pool size 1) still just
   one read-modify-write with no lock.  [attempts] counts every [take]
   call; while the budget is alive every attempt is a successful step, so
   the step count needs no second field.  The domain that kills the
   budget records the final step count in [final_used] before setting the
   dead bit's sticky state, so [used] stays exact after exhaustion even
   though racing attempts keep bumping [attempts].

   Telemetry stays out of the hot path exactly as in PR 3: the takes
   tally IS the attempts half of the state word, and deadline polls are
   tallied on the (1-in-32) probe path only; [flush_telemetry] publishes
   both once per dispatch. *)

type t = {
  fuel : int;  (** max steps; [max_int] = unbounded *)
  deadline : float;  (** absolute time; [infinity] = none *)
  state : int Atomic.t;
  (* Written once, by the CAS winner in [kill]; read only after the dead
     bit is visible. *)
  mutable final_used : int;
  (* Deadline-poll tally; only ever touched on the probe path, and only
     approximate under concurrent probing (telemetry, not semantics). *)
  mutable polls : int;
}

(* Steps between deadline probes: cheap enough that a 1ms deadline is
   honoured mid-search, rare enough that [take] stays syscall-free on the
   hot path.  The probe cadence is derived from the attempt count —
   attempt 0 probes (so an already-expired deadline kills the budget
   before any work), then every [poll_interval] attempts. *)
let poll_interval = 32

(* Fuel telemetry: how many steps the searches attempt to consume and
   how often the wall clock is actually read. *)
let c_takes = Obs.Counter.make "budget.takes"
let c_polls = Obs.Counter.make "budget.deadline_polls"

let unlimited () =
  { fuel = max_int; deadline = infinity; state = Atomic.make 0; final_used = 0; polls = 0 }

let create ?fuel ?deadline_s () =
  let fuel =
    match fuel with
    | None -> max_int
    | Some f when f < 0 -> invalid_arg "Engine.Budget.create: negative fuel"
    | Some f -> f
  in
  let deadline =
    match deadline_s with
    | None -> infinity
    | Some s when s < 0. -> invalid_arg "Engine.Budget.create: negative deadline"
    | Some s -> Unix.gettimeofday () +. s
  in
  { fuel; deadline; state = Atomic.make 0; final_used = 0; polls = 0 }

let is_dead b = Atomic.get b.state land 1 = 1

(* Sticky death: set the dead bit with a CAS loop; the winning domain
   records the exact step count at death.  [used] is the number of
   *successful* takes, which equals the attempt count observed by the
   killing call (racing attempts after the bit is set fail and do not
   count as steps). *)
let kill b ~used =
  let rec go () =
    let s = Atomic.get b.state in
    if s land 1 = 0 then
      if Atomic.compare_and_set b.state s (s lor 1) then b.final_used <- used
      else go ()
  in
  go ()

let probe_deadline b ~used =
  b.polls <- b.polls + 1;
  if b.deadline < infinity && Unix.gettimeofday () > b.deadline then
    kill b ~used

let take b =
  let s = Atomic.fetch_and_add b.state 2 in
  if s land 1 = 1 then false
  else
    let prior = s asr 1 in
    if prior >= b.fuel then begin
      kill b ~used:b.fuel;
      false
    end
    else if b.deadline < infinity && prior mod poll_interval = 0 then begin
      probe_deadline b ~used:prior;
      not (is_dead b)
    end
    else true

let used b =
  if is_dead b then b.final_used
  else min (Atomic.get b.state asr 1) b.fuel

let exhausted b =
  if not (is_dead b) then probe_deadline b ~used:(used b);
  is_dead b || Atomic.get b.state asr 1 >= b.fuel

let fuel_limit b = if b.fuel = max_int then None else Some b.fuel

(* Budgets are fresh per dispatch (see the interface), so publishing the
   whole tallies once — from [Registry.decide], after the decider
   returns — cannot double-count. *)
let flush_telemetry b =
  Obs.Counter.add c_takes (Atomic.get b.state asr 1);
  Obs.Counter.add c_polls b.polls
