(* Work-stealing domain pool.

   Each batch owns a Chase–Lev deque: the opening domain pushes tasks at
   the bottom and pops them LIFO; worker domains steal FIFO from the top
   via CAS.  Live batches register in a fixed victim table so several
   batches (from different system threads, or the service submission
   path) run concurrently; idle workers scan the table from a randomized
   start and back off exponentially — brief spinning first, then a
   condition variable — when repeated scans come up empty. *)

let now_s = Unix.gettimeofday

module Deque = struct
  (* All indices and cells are [Atomic]: OCaml 5 atomics are seq-cst, so
     the classic Chase–Lev fences are implied.  [top] only ever grows
     (no ABA); the buffer is grown owner-side by copying live cells into
     a fresh array and republishing — a thief holding the old buffer
     still reads valid cells because live logical indices are never
     moved within a buffer, and the owner never writes a retired one. *)
  type 'a buffer = { mask : int; cells : 'a option Atomic.t array }

  type 'a t = {
    top : int Atomic.t; (* next steal index; thieves CAS it forward *)
    bottom : int Atomic.t; (* next push index; owner-written *)
    buf : 'a buffer Atomic.t;
  }

  let make_buffer capacity =
    { mask = capacity - 1; cells = Array.init capacity (fun _ -> Atomic.make None) }

  let next_pow2 n =
    let rec go p = if p >= n then p else go (p * 2) in
    go 8

  let create ?(capacity = 64) () =
    let capacity = next_pow2 (max 1 capacity) in
    {
      top = Atomic.make 0;
      bottom = Atomic.make 0;
      buf = Atomic.make (make_buffer capacity);
    }

  let length q =
    let b = Atomic.get q.bottom and t = Atomic.get q.top in
    max 0 (b - t)

  (* Owner only. *)
  let grow q old t b =
    let nbuf = make_buffer (2 * (old.mask + 1)) in
    for i = t to b - 1 do
      Atomic.set nbuf.cells.(i land nbuf.mask) (Atomic.get old.cells.(i land old.mask))
    done;
    Atomic.set q.buf nbuf;
    nbuf

  let push q v =
    let b = Atomic.get q.bottom and t = Atomic.get q.top in
    let buf = Atomic.get q.buf in
    let buf = if b - t > buf.mask then grow q buf t b else buf in
    Atomic.set buf.cells.(b land buf.mask) (Some v);
    Atomic.set q.bottom (b + 1)

  let pop q =
    let b = Atomic.get q.bottom - 1 in
    (* Publish the claim on [b] before re-reading [top]: a thief that
       subsequently targets [b] will lose its CAS-vs-owner race below. *)
    Atomic.set q.bottom b;
    let t = Atomic.get q.top in
    if b < t then begin
      Atomic.set q.bottom t;
      None
    end
    else
      let buf = Atomic.get q.buf in
      let cell = buf.cells.(b land buf.mask) in
      if b > t then begin
        let v = Atomic.get cell in
        Atomic.set cell None;
        v
      end
      else begin
        (* Last element: race any thief for it through [top]. *)
        let won = Atomic.compare_and_set q.top t (t + 1) in
        Atomic.set q.bottom (t + 1);
        if won then begin
          let v = Atomic.get cell in
          Atomic.set cell None;
          v
        end
        else None
      end

  let steal q =
    let t = Atomic.get q.top in
    let b = Atomic.get q.bottom in
    if t >= b then `Empty
    else
      let buf = Atomic.get q.buf in
      let v = Atomic.get buf.cells.(t land buf.mask) in
      if Atomic.compare_and_set q.top t (t + 1) then
        match v with
        | Some v -> `Stolen v
        | None -> `Retry (* cell already recycled: treat as a lost race *)
      else `Retry
end

module Pool = struct
  (* A pool task is pre-wrapped: [run_t] stores its result or exception
     into the batch's arrays and never raises, so workers need no
     handler around stolen work. *)
  type task = { run_t : unit -> unit; batch : batch }

  and batch = {
    deque : task Deque.t;
    pending : int Atomic.t; (* tasks not yet finished *)
    bm : Mutex.t;
    bcv : Condition.t; (* signalled when [pending] hits 0 *)
    submitted_s : float; (* submit timestamp; 0. for owner-drained runs *)
  }

  (* ---- tallies: [Obs] counters (always counting), so [stats] and the
     Prometheus exposition read the same numbers.  Only the queue-wait
     maximum has no registry home and stays a local atomic. ---- *)

  let counters : (string * Obs.Counter.t) list ref = ref []

  let counter name =
    let c = Obs.Counter.make ("pool." ^ name) in
    counters := (name, c) :: !counters;
    c

  let c_push = counter "deque_push"
  let c_pop = counter "deque_pop"
  let c_steal_ok = counter "steal_success"
  let c_steal_fail = counter "steal_fail"
  let c_nested = counter "nested_inline"
  let c_submitted = counter "submitted"

  let h_qwait = Obs.Histogram.make "pool.queue_wait"
  let s_qwait_max_ns = Atomic.make 0

  let atomic_max a v =
    let rec go () =
      let cur = Atomic.get a in
      if v > cur && not (Atomic.compare_and_set a cur v) then go ()
    in
    go ()

  (* ---- victim table ---- *)

  let n_slots = 64
  let slots : batch option Atomic.t array = Array.init n_slots (fun _ -> Atomic.make None)
  let n_sources = Atomic.make 0

  let register b =
    let rec go i =
      if i >= n_slots then None
      else if Atomic.compare_and_set slots.(i) None (Some b) then begin
        Atomic.incr n_sources;
        Some i
      end
      else go (i + 1)
    in
    go 0

  let unregister i =
    Atomic.set slots.(i) None;
    Atomic.decr n_sources

  (* ---- worker lifecycle ---- *)

  let lock = Mutex.create ()
  let work_cv = Condition.create ()

  (* Bumped (under [lock]) whenever new work is published; sleeping
     workers wait for a bump so a batch published between their last
     scan and the wait is never missed. *)
  let generation = Atomic.make 0
  let stop = Atomic.make false
  let handles : unit Domain.t list ref = ref []
  let spawned = ref 0
  let at_exit_registered = ref false

  let default_size =
    match Sys.getenv_opt "PAR_DOMAINS" with
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some n when n >= 1 -> n
        | _ -> 1)
    | None -> 1

  let target = Atomic.make default_size
  let size () = Atomic.get target
  let set_size n = Atomic.set target (max 1 n)

  (* True in worker domains: a task that itself calls [run]/[submit]
     must execute inline rather than publish a nested batch. *)
  let in_pool_key = Domain.DLS.new_key (fun () -> false)
  let in_pool () = Domain.DLS.get in_pool_key

  (* ---- task execution ---- *)

  let finish_task (b : batch) =
    if Atomic.fetch_and_add b.pending (-1) = 1 then begin
      Mutex.lock b.bm;
      Condition.broadcast b.bcv;
      Mutex.unlock b.bm
    end

  let execute (t : task) =
    let b = t.batch in
    if b.submitted_s > 0. then begin
      (* External submission: record how long it waited. *)
      let wait_ns = max 0 (int_of_float ((now_s () -. b.submitted_s) *. 1e9)) in
      atomic_max s_qwait_max_ns wait_ns;
      Obs.Histogram.record_ns h_qwait wait_ns
    end;
    t.run_t ();
    finish_task b

  (* One randomized sweep over the victim table; [true] iff a task was
     stolen and executed. *)
  let try_steal rng =
    if Atomic.get n_sources = 0 then false
    else begin
      let x = !rng in
      let x = x lxor (x lsl 13) in
      let x = x lxor (x lsr 7) in
      let x = x lxor (x lsl 17) in
      rng := x;
      let start = x land (n_slots - 1) in
      let stolen = ref false in
      let i = ref 0 in
      while (not !stolen) && !i < n_slots do
        let s = (start + !i) land (n_slots - 1) in
        (match Atomic.get slots.(s) with
        | None -> ()
        | Some b -> (
            match Deque.steal b.deque with
            | `Stolen task ->
                Obs.Counter.incr c_steal_ok;
                execute task;
                stolen := true
            | `Retry -> Obs.Counter.incr c_steal_fail
            | `Empty -> ()));
        incr i
      done;
      !stolen
    end

  let worker wid =
    Domain.DLS.set in_pool_key true;
    let rng = ref (((wid + 1) * 0x9E3779B9) lor 1) in
    let fails = ref 0 in
    while not (Atomic.get stop) do
      let gen = Atomic.get generation in
      if try_steal rng then fails := 0
      else begin
        incr fails;
        if !fails <= 8 then
          (* Exponential backoff: spin a little longer after each empty
             sweep before paying for the condition variable. *)
          for _ = 1 to 1 lsl !fails do
            Domain.cpu_relax ()
          done
        else begin
          Mutex.lock lock;
          while Atomic.get generation = gen && not (Atomic.get stop) do
            Condition.wait work_cv lock
          done;
          Mutex.unlock lock;
          fails := 0
        end
      end
    done

  let shutdown () =
    Mutex.lock lock;
    Atomic.set stop true;
    Condition.broadcast work_cv;
    Mutex.unlock lock;
    List.iter Domain.join !handles;
    Mutex.lock lock;
    handles := [];
    spawned := 0;
    Atomic.set stop false;
    Mutex.unlock lock

  let ensure_workers wanted =
    if !spawned < wanted then begin
      Mutex.lock lock;
      if not !at_exit_registered then begin
        at_exit_registered := true;
        at_exit shutdown
      end;
      for wid = !spawned to wanted - 1 do
        handles := Domain.spawn (fun () -> worker wid) :: !handles
      done;
      spawned := max !spawned wanted;
      Mutex.unlock lock
    end

  let wake_all () =
    Mutex.lock lock;
    Atomic.incr generation;
    Condition.broadcast work_cv;
    Mutex.unlock lock

  (* ---- batch plumbing shared by [run] and [submit] ---- *)

  let run_seq tasks = Array.map (fun f -> f ()) tasks

  let make_batch ~submitted_s n =
    {
      deque = Deque.create ~capacity:n ();
      pending = Atomic.make n;
      bm = Mutex.create ();
      bcv = Condition.create ();
      submitted_s;
    }

  let push_tasks (type a) batch (tasks : (unit -> a) array) (results : a option array)
      (errors : exn option array) =
    let n = Array.length tasks in
    for i = 0 to n - 1 do
      let run_t () =
        match tasks.(i) () with
        | v -> results.(i) <- Some v
        | exception e -> errors.(i) <- Some e
      in
      Deque.push batch.deque { run_t; batch };
      Obs.Counter.incr c_push
    done

  let wait_done batch =
    Mutex.lock batch.bm;
    while Atomic.get batch.pending > 0 do
      Condition.wait batch.bcv batch.bm
    done;
    Mutex.unlock batch.bm

  let collect results errors =
    (* Lowest-indexed failure wins, after the whole batch completed. *)
    Array.iter (function Some e -> raise e | None -> ()) errors;
    Array.map (function Some v -> v | None -> assert false (* all tasks ran *)) results

  let nested_inline tasks =
    Obs.Counter.incr c_nested;
    run_seq tasks

  let run (type a) (tasks : (unit -> a) array) : a array =
    let n = Array.length tasks in
    if n = 0 then [||]
    else
      let p = size () in
      if p <= 1 || n = 1 then run_seq tasks
      else if in_pool () then nested_inline tasks
      else
        let batch = make_batch ~submitted_s:0. n in
        match register batch with
        | None -> run_seq tasks (* victim table full: degrade gracefully *)
        | Some slot ->
            let results : a option array = Array.make n None in
            let errors : exn option array = Array.make n None in
            push_tasks batch tasks results errors;
            ensure_workers (p - 1);
            wake_all ();
            (* The caller drains its own deque LIFO alongside thieves. *)
            let rec drain () =
              match Deque.pop batch.deque with
              | Some t ->
                  Obs.Counter.incr c_pop;
                  execute t;
                  drain ()
              | None -> ()
            in
            drain ();
            wait_done batch;
            unregister slot;
            collect results errors

  let submit (type a) (tasks : (unit -> a) array) : a array =
    let n = Array.length tasks in
    if n = 0 then [||]
    else
      let p = size () in
      if p <= 1 then run_seq tasks (* no workers: run on the caller *)
      else if in_pool () then nested_inline tasks
      else
        let batch = make_batch ~submitted_s:(now_s ()) n in
        match register batch with
        | None -> run_seq tasks
        | Some slot ->
            Obs.Counter.add c_submitted n;
            let results : a option array = Array.make n None in
            let errors : exn option array = Array.make n None in
            push_tasks batch tasks results errors;
            ensure_workers p;
            wake_all ();
            wait_done batch;
            unregister slot;
            collect results errors

  let map ?chunk f arr =
    let n = Array.length arr in
    if n = 0 then [||]
    else
      let p = size () in
      if p <= 1 || n = 1 then Array.map f arr
      else begin
        let c =
          match chunk with
          | Some c -> max 1 c
          | None -> max 1 (1 + ((n - 1) / (4 * p)))
        in
        let nchunks = (n + c - 1) / c in
        if nchunks <= 1 then Array.map f arr
        else
          let parts =
            run
              (Array.init nchunks (fun ci () ->
                   let lo = ci * c in
                   let hi = min n (lo + c) in
                   Array.init (hi - lo) (fun k -> f arr.(lo + k))))
          in
          Array.concat (Array.to_list parts)
      end

  let map_list ?chunk f l = Array.to_list (map ?chunk f (Array.of_list l))

  let gauges () =
    let q = Obs.Histogram.snapshot h_qwait in
    [
      ("size", size ());
      ("workers", !spawned);
      ("queue_wait_count", Obs.Histogram.total q);
      ("queue_wait_us_total", q.Obs.Histogram.sum_ns / 1000);
      ("queue_wait_us_max", Atomic.get s_qwait_max_ns / 1000);
    ]

  let stats () =
    List.sort compare
      (gauges () @ List.map (fun (k, c) -> (k, Obs.Counter.value c)) !counters)
end
