
module Admission = struct
  (* A counting semaphore with a bounded wait queue and a draining
     state, multiplexed on one condition variable: waiters wake on
     [release] (a slot may have opened) and on [drain] (give up and
     report [`Draining]); the drainer waits for both counts to reach
     zero.  Broadcast everywhere — the wakeup sets are small (bounded by
     [queue_depth] + drainers) and correctness beats precision here. *)
  type gate = {
    max_inflight : int;
    queue_depth : int;
    m : Mutex.t;
    c : Condition.t;
    mutable running_ : int;
    mutable waiting_ : int;
    mutable draining : bool;
  }

  let make ~max_inflight ~queue_depth =
    if max_inflight < 1 then
      invalid_arg "Service.Server.Admission.make: max_inflight must be >= 1";
    if queue_depth < 0 then
      invalid_arg "Service.Server.Admission.make: queue_depth must be >= 0";
    {
      max_inflight;
      queue_depth;
      m = Mutex.create ();
      c = Condition.create ();
      running_ = 0;
      waiting_ = 0;
      draining = false;
    }

  let locked g f = Mutex.protect g.m f

  let admit g =
    locked g (fun () ->
        if g.draining then `Draining
        else if g.running_ < g.max_inflight then begin
          g.running_ <- g.running_ + 1;
          `Admitted
        end
        else if g.waiting_ >= g.queue_depth then `Overloaded
        else begin
          g.waiting_ <- g.waiting_ + 1;
          let rec wait () =
            Condition.wait g.c g.m;
            if g.draining then begin
              g.waiting_ <- g.waiting_ - 1;
              Condition.broadcast g.c;
              `Draining
            end
            else if g.running_ < g.max_inflight then begin
              g.waiting_ <- g.waiting_ - 1;
              g.running_ <- g.running_ + 1;
              `Admitted
            end
            else wait ()
          in
          wait ()
        end)

  let release g =
    locked g (fun () ->
        g.running_ <- g.running_ - 1;
        Condition.broadcast g.c)

  let drain g =
    locked g (fun () ->
        g.draining <- true;
        Condition.broadcast g.c;
        while g.running_ > 0 || g.waiting_ > 0 do
          Condition.wait g.c g.m
        done)

  let running g = locked g (fun () -> g.running_)
  let waiting g = locked g (fun () -> g.waiting_)
end

type config = {
  max_inflight : int;
  queue_depth : int;
  default_fuel : int option;
  default_deadline_s : float option;
  cache : Cache.config;
  store_dir : string option;
  fsync : Store.Log.fsync_policy;
  auto_compact_bytes : int;
  shard : (int * int) option;
  export_limit : int;
  slow_ms : float option;
  slow_log : string -> unit;
  idle_timeout_s : float option;
}

let default_config =
  {
    max_inflight = 4;
    queue_depth = 16;
    default_fuel = None;
    default_deadline_s = None;
    cache = Cache.default_config;
    store_dir = None;
    fsync = Store.Log.Every 64;
    auto_compact_bytes = 0;
    shard = None;
    export_limit = 64;
    slow_ms = None;
    slow_log = (fun line -> Printf.eprintf "%s\n%!" line);
    idle_timeout_s = None;
  }

type t = {
  config : config;
  cache_ : Cache.t;
  ep : Endpoint.t;
  gate : Admission.gate;
  started_s : float;
  n_decides : int Atomic.t;
  n_batches : int Atomic.t;
  n_deltas : int Atomic.t;
  n_pings : int Atomic.t;
  n_stats : int Atomic.t;
  n_sleeps : int Atomic.t;
  n_overloaded : int Atomic.t;
  n_metrics : int Atomic.t;
  req_ids : int Atomic.t;
  req_id_prefix : string;
}

(* Per-op request latency (admission wait included): the server-side
   view of what clients experience, which the offline bench can only
   approximate from outside the socket. *)
let h_decide = Obs.Histogram.make "op.decide"
let h_batch = Obs.Histogram.make "op.batch"
let h_delta = Obs.Histogram.make "op.delta"

let incr a = ignore (Atomic.fetch_and_add a 1)

(* The gate holds no resource, so it is checked first.  The store is
   opened before the socket is bound, so a bad store leaves no socket
   file behind; if anything after it fails, the store is closed. *)
let create ?(config = default_config) addr =
  let gate =
    Admission.make ~max_inflight:config.max_inflight
      ~queue_depth:config.queue_depth
  in
  let durable =
    Option.map
      (fun dir ->
        try
          Tier.open_ ~fsync:config.fsync
            ~auto_compact_bytes:config.auto_compact_bytes dir
        with Unix.Unix_error (e, fn, arg) ->
          failwith
            (Printf.sprintf "cannot open store %s: %s (%s %s)" dir
               (Unix.error_message e) fn arg))
      config.store_dir
  in
  let cache_, ep =
    try
      let cache_ = Cache.create ~config:config.cache ?durable () in
      (cache_, Endpoint.listen ?idle_timeout_s:config.idle_timeout_s addr)
    with e ->
      Option.iter (fun d -> try Tier.close d with _ -> ()) durable;
      raise e
  in
  {
    config;
    cache_;
    ep;
    gate;
    started_s = Unix.gettimeofday ();
    n_decides = Atomic.make 0;
    n_batches = Atomic.make 0;
    n_deltas = Atomic.make 0;
    n_pings = Atomic.make 0;
    n_stats = Atomic.make 0;
    n_sleeps = Atomic.make 0;
    n_overloaded = Atomic.make 0;
    n_metrics = Atomic.make 0;
    req_ids = Atomic.make 0;
    req_id_prefix = Printf.sprintf "req-%d-" (Unix.getpid ());
  }

let cache t = t.cache_
let config t = t.config
let address t = Endpoint.address t.ep

(* The one observation snapshot both [stats] and [metrics] render: the
   [Obs] registry (histograms and process-wide counters) plus this
   server's own counts, added as counters named [service.<key>] and
   [service.cache.<key>], and its current readings as gauges.  Each
   event is counted in exactly one place, so the two ops agree by
   construction. *)
let observe t =
  let obs = Metrics.capture () in
  let own =
    List.map
      (fun (k, n) -> ("service." ^ k, n))
      [
        ("requests", Endpoint.requests t.ep);
        ("decides", Atomic.get t.n_decides);
        ("batches", Atomic.get t.n_batches);
        ("deltas", Atomic.get t.n_deltas);
        ("pings", Atomic.get t.n_pings);
        ("stats_ops", Atomic.get t.n_stats);
        ("sleeps", Atomic.get t.n_sleeps);
        ("overloaded", Atomic.get t.n_overloaded);
        ("errors", Endpoint.errors t.ep);
        ("metrics_ops", Atomic.get t.n_metrics);
      ]
    @ List.map (fun (k, v) -> ("service.cache." ^ k, v)) (Cache.counters t.cache_)
    @
    if not (Fault.Failpoint.armed ()) then []
    else
      List.concat_map
        (fun (site, calls, fires) ->
          [ ("fault." ^ site ^ ".calls", calls); ("fault." ^ site ^ ".fires", fires) ])
        (Fault.Failpoint.stats ())
  in
  let ints prefix = List.map (fun (k, v) -> (prefix ^ k, float_of_int v)) in
  let gauges =
    [
      ("uptime_seconds", Unix.gettimeofday () -. t.started_s);
      ("started_at", Float.trunc t.started_s);
      ("inflight", float_of_int (Admission.running t.gate));
      ("queued", float_of_int (Admission.waiting t.gate));
    ]
    @ (match t.config.shard with
      | None -> []
      | Some (i, n) -> ints "" [ ("shard_index", i); ("shard_count", n) ])
    @ ints "service.cache." (Cache.gauges t.cache_)
    @ ints "pool." (Par.Pool.gauges ())
  in
  ({ obs with Metrics.counters = List.sort compare (own @ obs.Metrics.counters) }, gauges)

(* [stats] names: drop a leading [service.], then '.' becomes '_' —
   [service.cache.verdict_hits] is [cache_verdict_hits],
   [pool.submitted] is [pool_submitted]. *)
let stat_key name =
  let name =
    if String.starts_with ~prefix:"service." name then
      String.sub name 8 (String.length name - 8)
    else name
  in
  String.map (fun c -> if c = '.' then '_' else c) name

let stats t =
  let snap, gauges = observe t in
  List.sort compare
    (List.map (fun (k, v) -> (stat_key k, v)) snap.Metrics.counters
    @ List.map (fun (k, v) -> (stat_key k, int_of_float v)) gauges)

(* ------------------------------------------------------------------ *)
(* Responses.  Field values are pre-rendered JSON (Wire combinators),
   sealed by the endpoint. *)

let respond = Endpoint.respond
let ok = Endpoint.ok
let error_fields = Endpoint.error_fields

let overloaded_fields t op why =
  incr t.n_overloaded;
  [
    ("op", Wire.json_string op);
    ("status", Wire.json_string "overloaded");
    ( "detail",
      Wire.json_string
        (match why with `Overloaded -> "queue_full" | `Draining -> "draining") );
  ]

(* Request fuel/deadline override the server defaults. *)
let effective_budget t ~fuel ~timeout_s =
  ( (match fuel with Some _ -> fuel | None -> t.config.default_fuel),
    match timeout_s with Some _ -> timeout_s | None -> t.config.default_deadline_s
  )

let admit_timed t =
  (* Failpoint: shed this admission as if the gate were full — the
     chaos harness's way of exercising the overload path on demand. *)
  if Fault.Failpoint.armed () && Fault.Failpoint.fire "server.admit.overload" then
    (`Overloaded, 0.)
  else
    let t0 = Unix.gettimeofday () in
    let r =
      Obs.Span.with_ "service.queue_wait" (fun () -> Admission.admit t.gate)
    in
    (r, Unix.gettimeofday () -. t0)

let service_fields ~queue_wait_s ~wall_s =
  ( "service",
    Wire.json_obj
      [
        ("queue_wait_s", Wire.fixed6 queue_wait_s);
        ("wall_s", Wire.fixed6 wall_s);
      ] )

(* One instance through the cache, in two halves.  [decide_front] is
   what a [decide] runs on the handler thread: [Cache.probe_text], which
   digests the request text, and only when the text memo has not seen
   those bytes parses and hashes the instance; then a memory-tier
   lookup.  It answers a hit on an entry whose certificate is already
   checked, rendered with the graph parsed from this request's own text
   (its node names); anything else — the entry's first check, a
   durable-tier probe, a decide — comes back as a body for [pool_exec],
   which reuses the parsed instance and its keys.
   [decide_one] runs both halves in place, for a batch item, which is a
   pool task from the start.  Both yield pre-rendered response fields
   for the per-instance object, plus the instance digest for the
   slow-request log. *)
let render_one g ~lang (outcome, origin, key) =
  ( [
      ( "cache",
        Wire.json_string (match origin with `Hit -> "hit" | `Miss -> "miss") );
      ("digest", Wire.json_string key);
      ("result", Wire.verdict_to_string g ~lang outcome);
    ],
    key )

let decide_front t ~lang ~k ~fuel ~timeout_s text =
  match Cache.probe_text t.cache_ ?k ~lang text with
  | Error msg -> `Done (Error ("instance: " ^ msg))
  | Ok (g, `Hit (outcome, key)) -> `Done (Ok (render_one g ~lang (outcome, `Hit, key)))
  | Ok (g, `Pending p) ->
      `Pool
        (fun () ->
          let fuel, deadline_s = effective_budget t ~fuel ~timeout_s in
          Result.map (render_one g ~lang)
            (Cache.resolve t.cache_ ?fuel ?deadline_s p))

let decide_one t ~lang ~k ~fuel ~timeout_s text =
  match decide_front t ~lang ~k ~fuel ~timeout_s text with
  | `Done r -> r
  | `Pool body -> body ()

(* Execute the body (or bodies — one per batch item) of an admitted
   work op on the shared domain pool.  Handler threads keep doing socket
   I/O, admission and the cheap front half of a decide; the compute runs
   on worker domains, so concurrent requests and batch items fill idle
   domains instead of timeslicing one.  The admission gate is the only
   bound: at most [max_inflight] ops submit at once, one task per body.
   The request's trace context is captured here (on the handler thread)
   and re-established inside each task, so spans recorded by a worker
   domain still carry this request's trace id.  At pool size 1 [submit]
   runs the bodies inline right here. *)
let pool_exec bodies =
  let trace = Obs.Ctx.current () in
  Par.Pool.submit (Array.map (fun f () -> Obs.Ctx.with_trace trace f) bodies)

(* ---------------------------------------------------------------- *)
(* Request-scoped sinks.  Both filter on the request's trace id when one
   is live — work bodies execute on pool domains, so the recording lane
   no longer identifies the request, but the trace context travels into
   the submitted tasks ([pool_exec]) — and fall back to the recording
   lane (this handler thread on this domain) when no trace was minted.
   Concurrent requests thus never leak into each other's stream or phase
   breakdown, unless clients deliberately share a trace id.  Both
   swallow their own failures: sink callbacks run inside span dispatch,
   and a client that vanished mid-stream must not take the decide down
   with it. *)

let span_filter () =
  let trace = Obs.Ctx.current () in
  let dom = (Domain.self () :> int) in
  let tid = Obs.thread_id () in
  fun (s : Obs.span) ->
    match trace with
    | Some _ -> s.Obs.trace = trace
    | None -> s.Obs.dom = dom && s.Obs.tid = tid

(* Streaming progress: one newline-JSON frame per span enter/exit on
   this lane, counter deltas attached at exit.  Frames carry a
   ["progress"] field, which is how the client tells them from the
   final response line. *)
let progress_sink oc =
  let mine = span_filter () in
  let t0 = Unix.gettimeofday () in
  let dead = ref false in
  let last = ref (Obs.Counter.all ()) in
  let emit fields =
    if not !dead then (
      try
        output_string oc (Wire.json_obj fields);
        output_char oc '\n';
        flush oc
      with _ -> dead := true)
  in
  let base event (s : Obs.span) =
    [
      ("progress", Wire.json_string event);
      ("phase", Wire.json_string s.Obs.name);
      ("t_s", Wire.fixed6 (s.Obs.start_s -. t0));
      ("depth", string_of_int s.Obs.depth);
    ]
  in
  Obs.Sink.make_full
    ~enter:(fun s -> if mine s then emit (base "enter" s))
    (fun s ->
      if mine s then begin
        let now_c = Obs.Counter.all () in
        let deltas =
          List.filter_map
            (fun (name, v) ->
              let prev =
                match List.assoc_opt name !last with Some p -> p | None -> 0
              in
              if v > prev then Some (name, string_of_int (v - prev)) else None)
            now_c
        in
        last := now_c;
        emit
          (base "exit" s
          @ [ ("dur_s", Wire.fixed6 (s.Obs.stop_s -. s.Obs.start_s)) ]
          @ if deltas = [] then [] else [ ("counters", Wire.json_obj deltas) ])
      end)

(* Phase totals for the slow-request log: span name -> summed wall time
   on this lane. *)
let phase_collector () =
  let mine = span_filter () in
  (* [acc] is written from whichever lane records a matching span —
     handler thread or pool worker — so it takes a lock. *)
  let m = Mutex.create () in
  let acc : (string, float) Hashtbl.t = Hashtbl.create 8 in
  let sink =
    Obs.Sink.make (fun (s : Obs.span) ->
        if mine s then begin
          Mutex.lock m;
          let prev =
            Option.value ~default:0. (Hashtbl.find_opt acc s.Obs.name)
          in
          Hashtbl.replace acc s.Obs.name
            (prev +. (s.Obs.stop_s -. s.Obs.start_s));
          Mutex.unlock m
        end)
  in
  ( sink,
    fun () ->
      Mutex.lock m;
      let l = Hashtbl.fold (fun k v l -> (k, v) :: l) acc [] in
      Mutex.unlock m;
      List.sort compare l )

let note_slow t ~op ~digest ~queue_wait_s ~wall_s ~phases =
  match t.config.slow_ms with
  | Some ms when wall_s *. 1000. >= ms ->
      t.config.slow_log
        (Wire.json_obj
           [
             ("slow_request", Wire.json_string op);
             ("threshold_ms", Printf.sprintf "%g" ms);
             ( "trace_id",
               match Obs.Ctx.current () with
               | Some id -> Wire.json_string id
               | None -> "null" );
             ( "digest",
               match digest with Some d -> Wire.json_string d | None -> "null"
             );
             ("wall_s", Wire.fixed6 wall_s);
             ( "phases",
               Wire.json_obj
                 (( ("queue_wait_s", Wire.fixed6 queue_wait_s)
                  :: ("work_s", Wire.fixed6 (wall_s -. queue_wait_s))
                  :: List.map
                       (fun (name, total_s) -> (name, Wire.fixed6 total_s))
                       (phases ()) )) );
           ])
  | _ -> ()

(* The request-scoped sinks a work op needs, given its envelope: the
   streaming sink when asked for, the phase collector when a slow-log
   threshold is armed.  [with_request_sinks] installs them, runs the
   work, and removes them again on every exit path — a sink must never
   outlive its request. *)
let with_request_sinks t oc ~(env : Wire.envelope) f =
  if not (Obs.enabled ()) || (not env.Wire.stream && t.config.slow_ms = None)
  then f (fun () -> [])
  else begin
    let sinks = if env.Wire.stream then [ progress_sink oc ] else [] in
    let sinks, phases =
      match t.config.slow_ms with
      | None -> (sinks, fun () -> [])
      | Some _ ->
          let sink, phases = phase_collector () in
          (sink :: sinks, phases)
    in
    List.iter Obs.add_sink sinks;
    Fun.protect
      ~finally:(fun () -> List.iter Obs.remove_sink sinks)
      (fun () -> f phases)
  end

let handle_decide t oc ~env ~lang ~k ~fuel ~timeout_s text =
  incr t.n_decides;
  let t0 = Unix.gettimeofday () in
  match admit_timed t with
  | (`Overloaded | `Draining) as why, _ ->
      respond oc (overloaded_fields t "decide" why)
  | `Admitted, queue_wait_s ->
      Fun.protect
        ~finally:(fun () -> Admission.release t.gate)
        (fun () ->
          with_request_sinks t oc ~env (fun phases ->
              let result =
                match decide_front t ~lang ~k ~fuel ~timeout_s text with
                | `Done r -> r
                | `Pool body -> (pool_exec [| body |]).(0)
              in
              match result with
              | Error msg ->
                  Endpoint.count_error t.ep;
                  respond oc (error_fields "decide" msg)
              | Ok (fields, digest) ->
                  let wall_s = Unix.gettimeofday () -. t0 in
                  Obs.Histogram.record_s h_decide wall_s;
                  note_slow t ~op:"decide" ~digest:(Some digest) ~queue_wait_s
                    ~wall_s ~phases;
                  respond oc
                    (ok "decide"
                       (fields @ [ service_fields ~queue_wait_s ~wall_s ]))))

let handle_batch t oc ~env ~lang ~k ~fuel ~timeout_s texts =
  incr t.n_batches;
  let t0 = Unix.gettimeofday () in
  match admit_timed t with
  | (`Overloaded | `Draining) as why, _ ->
      respond oc (overloaded_fields t "batch" why)
  | `Admitted, queue_wait_s ->
      Fun.protect
        ~finally:(fun () -> Admission.release t.gate)
        (fun () ->
          with_request_sinks t oc ~env (fun phases ->
              (* One pool task per instance, each running the whole of
                 its decide there, parse and hash included (on this
                 thread they would run item after item before any task
                 was submitted, which measured slower on batches of
                 misses): batch items fill idle domains, and each
                 decide is one sequential search.  A failed instance
                 yields a per-item error object instead of failing the
                 batch; results come back in input order, so the
                 response is byte-identical to the sequential form. *)
              let bodies =
                Array.of_list
                  (List.map
                     (fun text () ->
                       match decide_one t ~lang ~k ~fuel ~timeout_s text with
                       | Ok (fields, _digest) -> Wire.json_obj fields
                       | Error msg ->
                           Endpoint.count_error t.ep;
                           Wire.json_obj [ ("error", Wire.json_string msg) ])
                     texts)
              in
              let items = pool_exec bodies in
              let wall_s = Unix.gettimeofday () -. t0 in
              Obs.Histogram.record_s h_batch wall_s;
              note_slow t ~op:"batch" ~digest:None ~queue_wait_s ~wall_s ~phases;
              respond oc
                (ok "batch"
                   [
                     ("results", Wire.json_list (Array.to_list items));
                     service_fields ~queue_wait_s ~wall_s;
                   ])))

let handle_delta t oc ~env ~lang ~k ~fuel ~timeout_s ~digest edit =
  incr t.n_deltas;
  let t0 = Unix.gettimeofday () in
  match admit_timed t with
  | (`Overloaded | `Draining) as why, _ ->
      respond oc (overloaded_fields t "delta" why)
  | `Admitted, queue_wait_s ->
      Fun.protect
        ~finally:(fun () -> Admission.release t.gate)
        (fun () ->
          with_request_sinks t oc ~env @@ fun phases ->
          let body () =
            match Cache.find_instance t.cache_ digest with
            | None ->
                Error
                  (Printf.sprintf
                     "unknown instance digest %s (cold-decide it first; it may \
                      also have been evicted)"
                     digest)
            | Some inst -> (
                match
                  Wire.resolve_edit (Engine.Instance.graph inst) edit
                with
                | Error _ as e -> e
                | Ok edit ->
                    let fuel, deadline_s = effective_budget t ~fuel ~timeout_s in
                    Cache.apply_edit t.cache_ ?fuel ?deadline_s ?k ~lang
                      ~key:digest edit)
          in
          match (pool_exec [| body |]).(0) with
          | Error msg ->
              Endpoint.count_error t.ep;
              respond oc (error_fields "delta" msg)
          | Ok { Cache.outcome; inst; key; repaired } ->
              let wall_s = Unix.gettimeofday () -. t0 in
              Obs.Histogram.record_s h_delta wall_s;
              note_slow t ~op:"delta" ~digest:key ~queue_wait_s ~wall_s ~phases;
              (* No digest for an outcome the cache did not store: a
                 follow-up delta on it could only be refused. *)
              respond oc
                (ok "delta"
                   ([ ("repair", Wire.json_string (if repaired then "hit" else "miss")) ]
                   @ Option.fold ~none:[]
                       ~some:(fun key -> [ ("digest", Wire.json_string key) ])
                       key
                   @ [
                       ( "result",
                         Wire.verdict_to_string (Engine.Instance.graph inst) ~lang
                           outcome );
                       service_fields ~queue_wait_s ~wall_s;
                     ])))

let handle_sleep t oc ~ms =
  incr t.n_sleeps;
  match admit_timed t with
  | (`Overloaded | `Draining) as why, _ ->
      respond oc (overloaded_fields t "sleep" why)
  | `Admitted, queue_wait_s ->
      Fun.protect
        ~finally:(fun () -> Admission.release t.gate)
        (fun () ->
          Thread.delay (float_of_int ms /. 1000.);
          respond oc
            (ok "sleep"
               [
                 ("slept_ms", string_of_int ms);
                 service_fields ~queue_wait_s ~wall_s:(float_of_int ms /. 1000.);
               ]))

(* Tiered-storage control ops.  Cheap relative to decides (compaction
   rewrites the live set, import certificate-checks each entry), so they
   bypass admission like the other control ops. *)
let handle_compact t oc =
  match Cache.durable t.cache_ with
  | None ->
      Endpoint.count_error t.ep;
      respond oc (error_fields "compact" "no durable store configured")
  | Some d ->
      Tier.compact d;
      respond oc
        (ok "compact"
           [
             ( "store",
               Wire.json_obj
                 (List.map
                    (fun (k, v) -> (k, string_of_int v))
                    (Tier.stats d)) );
           ])

let handle_export t oc ~limit =
  let limit = Option.value limit ~default:t.config.export_limit in
  let entries = Cache.export_hot t.cache_ ~limit in
  respond oc
    (ok "export"
       [
         ( "entries",
           Wire.json_list
             (List.map
                (fun (digest, raw) ->
                  Wire.json_obj
                    [
                      ("digest", Wire.json_string digest);
                      ("payload", Wire.json_string (Tier.to_hex raw));
                    ])
                entries) );
       ])

let handle_import t oc entries =
  let imported = ref 0 and rejected = ref 0 in
  List.iter
    (fun (digest, hex) ->
      match
        Result.bind (Tier.of_hex hex) (fun raw ->
            Cache.import t.cache_ ~key:digest raw)
      with
      | Ok () -> Stdlib.incr imported
      | Error _ -> Stdlib.incr rejected)
    entries;
  respond oc
    (ok "import"
       [
         ("imported", string_of_int !imported);
         ("rejected", string_of_int !rejected);
       ])

let shutdown t =
  Admission.drain t.gate;
  Endpoint.stop t.ep

let handle_metrics t oc =
  incr t.n_metrics;
  let snap, gauges = observe t in
  respond oc
    (ok "metrics"
       [
         ("metrics", Wire.json_string (Metrics.render ~gauges snap));
         ("data", Metrics.to_json snap);
         ("version", Wire.json_string Metrics.build_string);
       ])

let dispatch_request t oc ~env req =
  match req with
  | Wire.Ping ->
      incr t.n_pings;
      respond oc (ok "ping" [])
  | Wire.Stats ->
      incr t.n_stats;
      respond oc
        (ok "stats"
           [
             ( "stats",
               Wire.json_obj
                 (List.map (fun (k, v) -> (k, string_of_int v)) (stats t)) );
             ("version", Wire.json_string Metrics.build_string);
           ])
  | Wire.Shutdown ->
      (* Drain first — every admitted and queued work op completes and is
         answered — then answer the requester, then stop the acceptor. *)
      Admission.drain t.gate;
      respond oc (ok "shutdown" [ ("drained", "true") ]);
      Endpoint.stop t.ep
  | Wire.Sleep { ms } -> handle_sleep t oc ~ms
  | Wire.Decide { lang; k; fuel; timeout_s; instance } ->
      handle_decide t oc ~env ~lang ~k ~fuel ~timeout_s instance
  | Wire.Batch { lang; k; fuel; timeout_s; instances } ->
      handle_batch t oc ~env ~lang ~k ~fuel ~timeout_s instances
  | Wire.Delta { lang; k; fuel; timeout_s; digest; edit } ->
      handle_delta t oc ~env ~lang ~k ~fuel ~timeout_s ~digest edit
  | Wire.Compact -> handle_compact t oc
  | Wire.Export { limit } -> handle_export t oc ~limit
  | Wire.Import { entries } -> handle_import t oc entries
  | Wire.Metrics -> handle_metrics t oc

(* The root span is tagged with the request's trace id; when the plane
   is live but the client sent none, the server mints one so the slow
   log and trace events still correlate within this process. *)
let trace_id t (env : Wire.envelope) =
  match env.Wire.trace_id with
  | Some _ as id -> id
  | None ->
      if Obs.enabled () || t.config.slow_ms <> None then
        Some (t.req_id_prefix ^ string_of_int (Atomic.fetch_and_add t.req_ids 1))
      else None

let run t =
  Endpoint.run t.ep ~span:"service.request" ~trace_id:(trace_id t)
    ~open_conn:ignore ~close_conn:ignore
    ~dispatch:(fun () oc _line env req -> dispatch_request t oc ~env req);
  (* Sync and close the durable tier only after the drain: every
     admitted decide has written through by now. *)
  try Cache.close t.cache_ with _ -> ()
