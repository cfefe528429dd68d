(* A domain pool over one locked FIFO of tasks.  Every batch appends its
   tasks to [queue] under [lock]; workers pop from its head and sleep on
   [work_cv] while it is empty.  The thread that queued a batch waits on
   the batch's own condition; a [run] caller pops and runs queued tasks
   meanwhile, a [submit] caller only waits. *)

let now_s = Unix.gettimeofday

module Pool = struct
  (* A queued task is pre-wrapped: [run_t] stores its result or
     exception into the batch's arrays and never raises, so workers need
     no handler around it. *)
  type task = { run_t : unit -> unit; batch : batch }

  and batch = {
    mutable pending : int; (* tasks not yet finished; guarded by [lock] *)
    done_cv : Condition.t; (* broadcast when [pending] hits 0 *)
    queued_s : float; (* submit timestamp; 0. for [run] batches *)
  }

  (* ---- tallies: [Obs] counters (always counting), so [stats] and the
     Prometheus exposition read the same numbers.  Only the queue-wait
     maximum has no registry home; it is written under [lock]. ---- *)

  let c_nested = Obs.Counter.make "pool.nested_inline"
  let c_submitted = Obs.Counter.make "pool.submitted"
  let h_qwait = Obs.Histogram.make "pool.queue_wait"
  let qwait_max_ns = Atomic.make 0

  (* ---- the queue and its workers, all guarded by [lock] ---- *)

  let lock = Mutex.create ()
  let work_cv = Condition.create () (* signalled when tasks are queued *)
  let queue : task Queue.t = Queue.create ()
  let stop = ref false
  let handles : unit Domain.t list ref = ref []
  let spawned = ref 0
  let at_exit_registered = ref false

  (* More worker domains than cores cannot run at once, and in OCaml 5
     each one joins every minor-GC barrier. *)
  let max_workers = max 1 (Domain.recommended_domain_count ())

  let target =
    let env = Option.map String.trim (Sys.getenv_opt "PAR_DOMAINS") in
    Atomic.make (max 1 (Option.value ~default:1 (Option.bind env int_of_string_opt)))

  let size () = Atomic.get target
  let set_size n = Atomic.set target (max 1 n)

  (* True in worker domains: a task that itself calls [run]/[submit]
     must execute inline rather than queue a nested batch. *)
  let in_pool_key = Domain.DLS.new_key (fun () -> false)
  let in_pool () = Domain.DLS.get in_pool_key

  (* Called and returns with [lock] held; runs [t] outside it. *)
  let execute t =
    let b = t.batch in
    if b.queued_s > 0. then begin
      let wait_ns = max 0 (int_of_float ((now_s () -. b.queued_s) *. 1e9)) in
      if wait_ns > Atomic.get qwait_max_ns then Atomic.set qwait_max_ns wait_ns;
      Obs.Histogram.record_ns h_qwait wait_ns
    end;
    Mutex.unlock lock;
    t.run_t ();
    Mutex.lock lock;
    b.pending <- b.pending - 1;
    if b.pending = 0 then Condition.broadcast b.done_cv

  (* Workers leave once [stop] is set and the queue is empty, so a
     shutdown never strands a queued task. *)
  let worker () =
    Domain.DLS.set in_pool_key true;
    Mutex.lock lock;
    let rec loop () =
      match Queue.take_opt queue with
      | Some t ->
          execute t;
          loop ()
      | None when !stop -> ()
      | None ->
          Condition.wait work_cv lock;
          loop ()
    in
    loop ();
    Mutex.unlock lock

  let shutdown () =
    Mutex.lock lock;
    stop := true;
    Condition.broadcast work_cv;
    let hs = !handles in
    Mutex.unlock lock;
    List.iter Domain.join hs;
    Mutex.lock lock;
    handles := [];
    spawned := 0;
    stop := false;
    Mutex.unlock lock

  (* With [lock] held. *)
  let ensure_workers wanted =
    let wanted = min wanted max_workers in
    if !spawned < wanted then begin
      if not !at_exit_registered then begin
        at_exit_registered := true;
        at_exit shutdown
      end;
      for _ = !spawned to wanted - 1 do
        handles := Domain.spawn worker :: !handles
      done;
      spawned := wanted
    end

  (* ---- the one enqueue-and-wait path behind [run] and [submit] ---- *)

  let run_seq tasks = Array.map (fun f -> f ()) tasks

  let nested_inline tasks =
    Obs.Counter.incr c_nested;
    run_seq tasks

  (* Queue [tasks] as one batch for up to [workers] workers and wait for
     it.  With [help] the caller pops and runs queued tasks, its own or
     not, while its batch is pending.  Results are in input order; the
     lowest-indexed exception is raised once the whole batch finished. *)
  let enqueue_and_wait (type a) ~help ~workers (tasks : (unit -> a) array) =
    let n = Array.length tasks in
    let results : a option array = Array.make n None in
    let errors : exn option array = Array.make n None in
    let queued_s = if help then 0. else now_s () in
    let batch = { pending = n; done_cv = Condition.create (); queued_s } in
    Obs.Counter.add c_submitted n;
    Mutex.lock lock;
    ensure_workers workers;
    Array.iteri
      (fun i f ->
        let run_t () =
          match f () with
          | v -> results.(i) <- Some v
          | exception e -> errors.(i) <- Some e
        in
        Queue.push { run_t; batch } queue)
      tasks;
    Condition.broadcast work_cv;
    while batch.pending > 0 do
      if help && not (Queue.is_empty queue) then execute (Queue.pop queue)
      else Condition.wait batch.done_cv lock
    done;
    Mutex.unlock lock;
    Array.iter (function Some e -> raise e | None -> ()) errors;
    Array.map (function Some v -> v | None -> assert false (* all tasks ran *)) results

  let run tasks =
    let n = Array.length tasks in
    let p = size () in
    if n = 0 then [||]
    else if p <= 1 || n = 1 then run_seq tasks
    else if in_pool () then nested_inline tasks
    else enqueue_and_wait ~help:true ~workers:(p - 1) tasks

  let submit tasks =
    let p = size () in
    if Array.length tasks = 0 then [||]
    else if p <= 1 then run_seq tasks (* no workers: run on the caller *)
    else if in_pool () then nested_inline tasks
    else enqueue_and_wait ~help:false ~workers:p tasks

  let map ?chunk f arr =
    let n = Array.length arr in
    let p = size () in
    if p <= 1 || n <= 1 then Array.map f arr
    else
      let c =
        match chunk with
        | Some c -> max 1 c
        | None -> max 1 (1 + ((n - 1) / (4 * p)))
      in
      let nchunks = (n + c - 1) / c in
      if nchunks <= 1 then Array.map f arr
      else
        run
          (Array.init nchunks (fun ci () ->
               let lo = ci * c in
               Array.init (min n (lo + c) - lo) (fun k -> f arr.(lo + k))))
        |> Array.to_list |> Array.concat

  let map_list ?chunk f l = Array.to_list (map ?chunk f (Array.of_list l))

  let gauges () =
    let q = Obs.Histogram.snapshot h_qwait in
    [
      ("size", size ());
      ("workers", !spawned);
      ("queue_wait_count", Obs.Histogram.total q);
      ("queue_wait_us_total", q.Obs.Histogram.sum_ns / 1000);
      ("queue_wait_us_max", Atomic.get qwait_max_ns / 1000);
    ]

  let stats () =
    List.sort compare
      (("nested_inline", Obs.Counter.value c_nested)
      :: ("submitted", Obs.Counter.value c_submitted)
      :: gauges ())
end
