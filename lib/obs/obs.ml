(* One global on/off flag guards spans and sink dispatch; counters and
   histograms always count (see the overhead policy in the interface).
   The flag is atomic so domains that race an [enable]/[disable] read a
   well-defined value; the read is a single load either way. *)
let on = Atomic.make false

let now = Unix.gettimeofday

(* Domains are first-class in OCaml 5, but the service layer is
   thread-per-connection on one domain — [Domain.self] alone cannot tell
   two concurrent requests apart.  The identity of the "execution lane"
   is therefore (domain id, thread id), where the thread id comes from a
   settable hook: this library must not depend on the [threads] library,
   so whoever links it (the service) installs [Thread.id (Thread.self)].
   The default constant 0 keeps single-threaded users unchanged. *)
let thread_id_fn : (unit -> int) ref = ref (fun () -> 0)
let set_thread_id_fn f = thread_id_fn := f
let thread_id () = !thread_id_fn ()

(* [dom] is the recording domain's id: span trees from different domains
   interleave in wall time, so sinks that render nesting (the Chrome
   trace) key rows by domain — one thread track per (domain, thread)
   lane keeps every track properly nested and the trace Perfetto-valid.
   [trace] is the distributed-trace id the span was recorded under, if
   any (see {!Ctx}): it crosses process boundaries over the wire, so a
   request can be followed from router to shard. *)
type span = {
  name : string;
  start_s : float;
  stop_s : float;
  depth : int;
  dom : int;
  tid : int;
  trace : string option;
}

module Ctx = struct
  (* Trace context is keyed by execution lane, not stored in DLS: the
     service runs many request threads on one domain, and DLS would
     smear one request's trace id over its neighbours.  The table is
     touched only at span entry and at request start/end, never inside
     kernels, so one mutex is plenty. *)
  module Lanes = Hashtbl.Make (Int)

  let table : string Lanes.t = Lanes.create 16
  let lock = Mutex.create ()

  (* One int per lane: thread ids are far below 2^40. *)
  let key () = ((Domain.self () :> int) lsl 40) lor !thread_id_fn ()

  let current () =
    let k = key () in
    Mutex.protect lock (fun () -> Lanes.find_opt table k)

  let set k = function
    | Some id -> Lanes.replace table k id
    | None -> Lanes.remove table k

  let with_trace id f =
    let k = key () in
    let prev =
      Mutex.protect lock (fun () ->
          let prev = Lanes.find_opt table k in
          set k id;
          prev)
    in
    let restore () = Mutex.protect lock (fun () -> set k prev) in
    match f () with
    | v ->
        restore ();
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        restore ();
        Printexc.raise_with_backtrace e bt
end

module Counter = struct
  (* Counts are atomic: subsystems increment from worker domains (cache
     builds, budget flushes of batched dispatches), and a plain mutable
     field would lose updates.  They count whether or not telemetry is
     enabled, so every reader — [stats], [metrics], the bench — sees the
     same tally. *)
  type t = { name : string; n : int Atomic.t }

  let registry : t list ref = ref []

  let make name =
    let c = { name; n = Atomic.make 0 } in
    registry := c :: !registry;
    c

  let incr c = ignore (Atomic.fetch_and_add c.n 1)
  let add c k = ignore (Atomic.fetch_and_add c.n k)
  let value c = Atomic.get c.n
  let name c = c.name

  let all () =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (List.map (fun c -> (c.name, Atomic.get c.n)) !registry)

  let reset_all () = List.iter (fun c -> Atomic.set c.n 0) !registry
end

module Histogram = struct
  (* Log-bucketed latency histogram, HDR-style: 16 exact buckets for
     values below 16ns, then 4 sub-buckets per power of two up to 2^60,
     then one overflow bucket.  Every bucket is an [int Atomic.t], so
     recording from any domain is one index computation plus one
     fetch-and-add — no locks, no allocation, and bounded relative
     error (≤ 1/4 of the value) for percentile extraction. *)
  let sub_bits = 2
  let sub = 1 lsl sub_bits
  let linear = 16
  let min_octave = 4 (* 2^4 = first non-linear bucket *)
  let max_octave = 59
  let n_buckets = linear + ((max_octave - min_octave + 1) * sub) + 1

  type t = { name : string; counts : int Atomic.t array; sum_ns : int Atomic.t }

  let registry : t list ref = ref []

  let make name =
    let h =
      { name; counts = Array.init n_buckets (fun _ -> Atomic.make 0);
        sum_ns = Atomic.make 0 }
    in
    registry := h :: !registry;
    h

  let name h = h.name

  (* Index of the most significant set bit; v >= 1. *)
  let msb v =
    let r = ref 0 and x = ref v in
    List.iter
      (fun k ->
        if !x lsr k <> 0 then begin
          x := !x lsr k;
          r := !r + k
        end)
      [ 32; 16; 8; 4; 2; 1 ];
    !r

  let bucket_index v =
    if v < linear then if v < 0 then 0 else v
    else
      let o = msb v in
      if o > max_octave then n_buckets - 1
      else linear + ((o - min_octave) * sub) + ((v lsr (o - sub_bits)) land (sub - 1))

  (* Inclusive upper bound of bucket [i], in ns.  Percentiles report
     this bound, so they never under-state a latency. *)
  let bucket_upper_ns i =
    if i <= 0 then 0
    else if i < linear then i
    else if i >= n_buckets - 1 then max_int
    else
      let j = i - linear in
      let o = min_octave + (j / sub) and s = j mod sub in
      (1 lsl o) + ((s + 1) lsl (o - sub_bits)) - 1

  let record_ns h v =
    let v = if v < 0 then 0 else v in
    ignore (Atomic.fetch_and_add h.counts.(bucket_index v) 1);
    ignore (Atomic.fetch_and_add h.sum_ns v)

  let record_s h s = record_ns h (int_of_float ((s *. 1e9) +. 0.5))

  let time h f =
    let t0 = now () in
    match f () with
    | v ->
        record_s h (now () -. t0);
        v
    | exception e ->
        record_s h (now () -. t0);
        raise e

  type snapshot = { counts : int array; sum_ns : int }

  let snapshot (h : t) =
    { counts = Array.map Atomic.get h.counts; sum_ns = Atomic.get h.sum_ns }

  let zero_snapshot () = { counts = Array.make n_buckets 0; sum_ns = 0 }

  let merge a b =
    let counts =
      Array.init n_buckets (fun i ->
          let ca = if i < Array.length a.counts then a.counts.(i) else 0 in
          let cb = if i < Array.length b.counts then b.counts.(i) else 0 in
          ca + cb)
    in
    { counts; sum_ns = a.sum_ns + b.sum_ns }

  let total s = Array.fold_left ( + ) 0 s.counts

  (* Exact-count percentile: the value returned is the upper bound of
     the bucket holding the ceil(p/100 * n)-th smallest sample, i.e.
     exactly what a sorted reference array would report, rounded up to
     the bucket boundary. *)
  let percentile_of s p =
    let n = total s in
    if n = 0 then 0
    else begin
      let rank = max 1 (int_of_float (ceil (p /. 100. *. float_of_int n))) in
      let rank = min rank n in
      let i = ref 0 and cum = ref 0 in
      while !cum < rank && !i < Array.length s.counts do
        cum := !cum + s.counts.(!i);
        incr i
      done;
      bucket_upper_ns (!i - 1)
    end

  let percentile_ns h p = percentile_of (snapshot h) p
  let count h = total (snapshot h)
  let sum_ns (h : t) = Atomic.get h.sum_ns

  let reset (h : t) =
    Array.iter (fun c -> Atomic.set c 0) h.counts;
    Atomic.set h.sum_ns 0

  let reset_all () = List.iter reset !registry

  let all () =
    List.sort (fun a b -> String.compare a.name b.name) !registry
end

module Sink = struct
  (* [enter] fires at span entry (with [stop_s = start_s], the duration
     not yet known); [record] at exit with the completed span.  Most
     sinks only care about completed spans, so [make] leaves [enter] a
     no-op; the streaming-progress sink uses both. *)
  type t = { record : span -> unit; enter : span -> unit }

  let make record = { record; enter = (fun _ -> ()) }
  let make_full ~enter record = { record; enter }
  let null = { record = (fun _ -> ()); enter = (fun _ -> ()) }

  module Agg = struct
    type cell = { mutable calls : int; mutable total_s : float }
    type agg = (string, cell) Hashtbl.t

    let create () : agg = Hashtbl.create 16

    let sink (t : agg) =
      make (fun s ->
          let cell =
            match Hashtbl.find_opt t s.name with
            | Some c -> c
            | None ->
                let c = { calls = 0; total_s = 0. } in
                Hashtbl.add t s.name c;
                c
          in
          cell.calls <- cell.calls + 1;
          cell.total_s <- cell.total_s +. (s.stop_s -. s.start_s))

    let phases (t : agg) =
      Hashtbl.fold (fun name c acc -> (name, c.calls, c.total_s) :: acc) t []
      |> List.sort compare
  end

  module Trace = struct
    type trace = { mutable spans : span list (* reverse record order *) }

    let create () = { spans = [] }
    let sink t = make (fun s -> t.spans <- s :: t.spans)

    let escape s =
      let b = Buffer.create (String.length s + 2) in
      String.iter
        (fun c ->
          match c with
          | '"' -> Buffer.add_string b "\\\""
          | '\\' -> Buffer.add_string b "\\\\"
          | '\n' -> Buffer.add_string b "\\n"
          | c when Char.code c < 0x20 ->
              Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char b c)
        s;
      Buffer.contents b

    (* Chrome trace-event JSON ("JSON Array Format"): complete events
       carry ts+dur so begin/end pairing is never needed; counters are
       emitted once, at the trace's end timestamp.  Each recording
       (domain, thread) lane gets its own tid, so spans recorded
       concurrently render as parallel tracks instead of
       impossibly-overlapping slices.  Spans recorded under a trace
       context carry the trace_id in args, which is what [trace-merge]
       and Perfetto queries key on. *)
    let lane_tid s = (s.dom * 4096) + s.tid + 1

    let span_event ~t0 s =
      let trace_arg =
        match s.trace with
        | None -> ""
        | Some id -> Printf.sprintf ",\"trace_id\":\"%s\"" (escape id)
      in
      Printf.sprintf
        "{\"name\":\"%s\",\"cat\":\"engine\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"depth\":%d%s}}"
        (escape s.name)
        ((s.start_s -. t0) *. 1e6)
        ((s.stop_s -. s.start_s) *. 1e6)
        (lane_tid s) s.depth trace_arg

    let counter_event ~ts name v =
      Printf.sprintf
        "{\"name\":\"%s\",\"cat\":\"counters\",\"ph\":\"C\",\"ts\":%.3f,\"pid\":1,\"args\":{\"value\":%d}}"
        (escape name) ts v

    (* Metadata (ph "M") events.  [clock_sync] carries the stream's
       absolute time origin as unix epoch microseconds: each process
       traces relative to its own origin, and [trace-merge] uses these
       to shift every file onto one shared timeline. *)
    let clock_sync_event ~epoch_us =
      Printf.sprintf
        "{\"name\":\"clock_sync\",\"cat\":\"__metadata\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":0,\"args\":{\"unix_epoch_us\":%.0f}}"
        epoch_us

    let process_name_event name =
      Printf.sprintf
        "{\"name\":\"process_name\",\"cat\":\"__metadata\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":0,\"args\":{\"name\":\"%s\"}}"
        (escape name)

    let to_string ?(counters = []) t =
      let spans = List.rev t.spans in
      let t0 =
        List.fold_left (fun acc s -> Float.min acc s.start_s) infinity spans
      in
      let t1 =
        List.fold_left (fun acc s -> Float.max acc s.stop_s) 0. spans
      in
      let b = Buffer.create 4096 in
      let sep = ref "" in
      Buffer.add_string b "[";
      List.iter
        (fun s ->
          Buffer.add_string b !sep;
          Buffer.add_char b '\n';
          Buffer.add_string b (span_event ~t0 s);
          sep := ",")
        spans;
      let counter_ts = if spans = [] then 0. else (t1 -. t0) *. 1e6 in
      List.iter
        (fun (name, v) ->
          Buffer.add_string b !sep;
          Buffer.add_char b '\n';
          Buffer.add_string b (counter_event ~ts:counter_ts name v);
          sep := ",")
        counters;
      Buffer.add_string b "\n]\n";
      Buffer.contents b

    let write ?counters t oc = output_string oc (to_string ?counters t)

    (* Streaming variant: events go to the channel as they complete, one
       flush per event, so a trace is loadable even when the traced
       computation raises or the process dies — Perfetto tolerates a
       missing closing bracket, and [close_stream] (typically registered
       with [at_exit]) writes it on every exit path anyway.  The time
       origin is fixed at stream creation since the earliest span is not
       known up front. *)
    type stream = {
      soc : out_channel;
      st0 : float;
      mutable first : bool;
      mutable closed : bool;
      slock : Mutex.t;
    }

    let stream_emit t event =
      output_string t.soc (if t.first then "\n" else ",\n");
      t.first <- false;
      output_string t.soc event

    let stream ?process oc =
      output_string oc "[";
      let t =
        { soc = oc; st0 = now (); first = true; closed = false;
          slock = Mutex.create () }
      in
      stream_emit t (clock_sync_event ~epoch_us:(t.st0 *. 1e6));
      (match process with
      | Some name -> stream_emit t (process_name_event name)
      | None -> ());
      flush oc;
      t

    let stream_locked t f =
      Mutex.lock t.slock;
      Fun.protect ~finally:(fun () -> Mutex.unlock t.slock) f

    let stream_sink t =
      make (fun s ->
          stream_locked t (fun () ->
              if not t.closed then begin
                stream_emit t (span_event ~t0:t.st0 s);
                flush t.soc
              end))

    let close_stream ?(counters = []) t =
      stream_locked t (fun () ->
          if not t.closed then begin
            t.closed <- true;
            let ts = (now () -. t.st0) *. 1e6 in
            List.iter (fun (name, v) -> stream_emit t (counter_event ~ts name v))
              counters;
            output_string t.soc "\n]\n";
            flush t.soc
          end)
  end
end

(* The installed sinks.  Writers replace the list under [sink_lock];
   readers load it without the lock, so a plane that is enabled with no
   sink (a server without [--trace] or [--slow-ms]) never touches it. *)
let sinks : Sink.t list Atomic.t = Atomic.make []

(* Sink implementations are plain mutable structures (hashtable cells,
   a cons list); one lock around dispatch makes them domain-safe.  Span
   ends are per-phase, not per-step, so the lock is far off the hot
   path — and it is only ever touched while some sink is installed.
   Dispatch is exception-safe: a raising sink must not leave the lock
   held (it would deadlock every later span in the process), so the
   exception propagates only after the unlock. *)
let sink_lock = Mutex.create ()

let dispatch f =
  if Atomic.get sinks != [] then
    Mutex.protect sink_lock (fun () -> List.iter f (Atomic.get sinks))

let enabled () = Atomic.get on

let enable ss =
  Counter.reset_all ();
  Histogram.reset_all ();
  Mutex.protect sink_lock (fun () -> Atomic.set sinks ss);
  Atomic.set on true

let disable () =
  Atomic.set on false;
  Mutex.protect sink_lock (fun () -> Atomic.set sinks [])

let add_sink s =
  Mutex.protect sink_lock (fun () -> Atomic.set sinks (s :: Atomic.get sinks))

let remove_sink s =
  Mutex.protect sink_lock (fun () ->
      Atomic.set sinks (List.filter (fun x -> x != s) (Atomic.get sinks)))

module Span = struct
  (* Nesting depth is tracked per domain: concurrent spans from worker
     domains would otherwise corrupt each other's depth. *)
  let depth = Domain.DLS.new_key (fun () -> ref 0)

  (* With the plane on but no sink installed, a span keeps its depth
     and its start time and nothing else: no lane lookup, no trace
     context, no lock.  A sink installed inside the span still gets its
     exit, with the lane and the trace context read there, which is the
     lane and context the span was entered on. *)
  let with_ name f =
    if not (Atomic.get on) then f ()
    else begin
      let depth = Domain.DLS.get depth in
      let d = !depth in
      depth := d + 1;
      let start_s = now () in
      let entered =
        if Atomic.get sinks == [] then None
        else begin
          let dom = (Domain.self () :> int) in
          let tid = !thread_id_fn () in
          let trace = Ctx.current () in
          dispatch (fun (k : Sink.t) ->
              k.enter { name; start_s; stop_s = start_s; depth = d; dom; tid; trace });
          Some (dom, tid, trace)
        end
      in
      let finish () =
        let stop_s = now () in
        depth := d;
        if Atomic.get sinks != [] then begin
          let dom, tid, trace =
            match entered with
            | Some lane -> lane
            | None -> ((Domain.self () :> int), !thread_id_fn (), Ctx.current ())
          in
          let s = { name; start_s; stop_s; depth = d; dom; tid; trace } in
          dispatch (fun (k : Sink.t) -> k.record s)
        end
      in
      match f () with
      | v ->
          finish ();
          v
      | exception e ->
          finish ();
          raise e
    end
end
