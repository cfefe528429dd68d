(* Traced sections of the two service workloads: the per-layer metrics,
   from spans the benchmark records around its own calls into each
   layer's public functions and from the cluster's [stats] and
   [metrics] ops, diffed over the traced window. *)

module W = Load.Workload
module Wire = Service.Wire
module Json = Service.Json
module Client = Service.Client
module Outcome = Engine.Outcome
module Samples = Measure.Samples
module Trace = Measure.Trace
module S = Service_run

let now = Measure.now
let us x = x *. 1e6
let median_us samples = us (Measure.median_of (Samples.sorted samples))
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Per-call time of [f] in µs: the median over [inputs] of spans around
   [reps] back-to-back calls (clock resolution is 1 µs). *)
let probe ?(reps = 16) name inputs f =
  let span = "probe." ^ name in
  Array.iter
    (fun x ->
      Trace.with_ span (fun _ ->
          for _ = 1 to reps do
            ignore (Sys.opaque_identity (f x))
          done))
    inputs;
  us (Measure.median_of (Trace.self_times span)) /. float_of_int reps

let ok_fields op rest = ("op", Wire.json_string op) :: ("status", Wire.json_string "ok") :: rest

(* The warm path as a flat list of layer self-times: (metric, calls per
   routed request).  The router and the owning shard each verify the
   request seal, parse the line, parse the instance and hash it; the
   router and the client each verify the response seal; the shard does
   everything else once. *)
let path =
  [
    ("client.encode_us", 1);
    ("wire.seal_verify_us", 2);
    ("wire.parse_us", 2);
    ("datagraph.instance_parse_us", 2);
    ("cache.hash_us", 2);
    ("router.ring_lookup_us", 1);
    ("cache.hit_us", 1);
    ("cache.revalidate_us", 1);
    ("par.submit_roundtrip_us", 1);
    ("wire.render_us", 1);
  ]

type result = {
  metrics : Measure.metric list;
  attempted : int;
  failed : int;
  mismatches : int;
  first_mismatch : string option;
  lines : string list;  (* human-readable report *)
}

let count name v = Measure.metric name "count" (float_of_int v)
let usec name v = Measure.metric name "us" v

(* ------------------------------------------------------------------ *)
(* warm-hot: blocks of 64 requests cycle through untraced, traced, and
   routed/shard-direct pairs for each shard in turn.  One routed
   connection, plus one direct connection during a pair block. *)

let warm ~cli ~dir ~seed ~seconds =
  let st, _, _ = S.prepare ~seed ~chain:false S.warm_profile in
  S.rm_rf dir;
  Unix.mkdir dir 0o755;
  let cl, _ = S.start_filled ~cli ~dir st in
  Fun.protect ~finally:(fun () -> Cluster.stop cl) @@ fun () ->
  let entries = st.wl.W.entries and ops = st.wl.W.ops in
  let nops = Array.length ops in
  let s0 = Cluster.stats cl and m0 = Cluster.metrics cl in
  let tally = S.new_tally () in
  let routed = { S.addr = cl.router; c = None } in
  let hops = Samples.create () and direct = Samples.create () in
  let deadline = now () +. seconds in
  let i = ref 0 and blk = ref 0 in
  let exchange span conn line =
    Trace.with_ span (fun _ ->
        match Client.request_raw (S.connection conn) line with
        | Ok l -> Some l
        | Error _ | (exception (Unix.Unix_error _ | Sys_error _ | End_of_file)) ->
            S.drop conn;
            None)
  in
  let checked e = function
    | Some l -> S.record tally (S.check ~op:"decide" l [ st.refs.(e).expect ])
    | None -> S.record tally (S.Failed "transport")
  in
  while now () < deadline do
    (match !blk land 3 with
    | (0 | 1) as kind ->
        for _ = 1 to 64 do
          S.exec st ~traced:(kind = 1) ~tally routed ops.(!i mod nops);
          incr i
        done
    | kind ->
        let shard = kind - 2 in
        let d = { S.addr = cl.shards.(shard); c = None } in
        ignore (Client.request_raw (S.connection d) Cluster.ping_line);
        let pairs = ref 0 and scanned = ref 0 in
        while !pairs < 64 && !scanned < nops do
          incr scanned;
          (match ops.(!i mod nops) with
          | W.Decide e when st.refs.(e).owner = shard ->
              let line = S.decide_line entries.(e) in
              let timed span conn =
                let t0 = now () in
                let r = exchange span conn line in
                (r, now () -. t0)
              in
              (* Alternate which side goes first. *)
              let (r1, dr), (r2, dd) =
                if !pairs land 1 = 0 then
                  let a = timed "client.exchange_routed" routed in
                  (a, timed "client.exchange_direct" d)
                else
                  let b = timed "client.exchange_direct" d in
                  (timed "client.exchange_routed" routed, b)
              in
              tally.attempted <- tally.attempted + 2;
              if checked e r1 && checked e r2 then begin
                Samples.add hops (dr -. dd);
                Samples.add direct dd
              end;
              incr pairs
          | _ -> ());
          incr i
        done;
        S.drop d);
    incr blk
  done;
  S.drop routed;
  let s1 = Cluster.stats cl and m1 = Cluster.metrics cl in
  (* In-process probes over the first 512 scheduled requests (Zipf-
     weighted like the timed loop), on the same inputs. *)
  let sample = Array.init (min 512 nops) (fun j ->
    match ops.(j) with W.Decide e -> e | W.Batch a -> a.(0) | W.Delta e -> e) in
  let req_line e = S.decide_line entries.(e) in
  let reqs = Array.map (fun e -> (req_line e, st.last_response.(e))) sample in
  let lru = Service.Lru.create ~capacity:1024 in
  Array.iter (fun (r : S.entry_ref) -> Service.Lru.put lru r.digest r.outcome) st.refs;
  let probes =
    [
      ( "wire.seal_verify_us",
        probe "seal_verify" reqs (fun (q, r) -> (Wire.crc_status q, Wire.crc_status r)) );
      ( "wire.parse_us",
        probe "parse" reqs (fun (q, _) ->
            match Json.parse q with
            | Ok j -> ignore (Wire.request_of_json j, Wire.envelope_of_json j)
            | Error msg -> failwith msg) );
      ( "datagraph.instance_parse_us",
        probe "instance_parse" sample (fun e ->
            Datagraph.Graph_io.instance_of_string entries.(e).text) );
      ( "cache.hash_us",
        probe "hash" sample (fun e ->
            let r = st.refs.(e) in
            Service.Content_hash.keys ~lang:entries.(e).lang ~k:entries.(e).k r.graph r.relation) );
      ( "router.ring_lookup_us",
        probe "ring_lookup" sample (fun e -> Service.Ring.shard S.ring st.refs.(e).digest) );
      ("cache.hit_us", probe "hit" sample (fun e -> Service.Lru.find lru st.refs.(e).digest));
      ( "cache.revalidate_us",
        probe ~reps:4 "revalidate" sample (fun e ->
            let r = st.refs.(e) in
            match Outcome.certificate r.outcome with
            | Some c -> Outcome.check_certificate r.inst c
            | None -> Ok ()) );
      ( "par.submit_roundtrip_us",
        probe "submit" sample (fun _ -> Par.Pool.submit [| (fun () -> ()) |]) );
      ( "wire.render_us",
        probe "render" sample (fun e ->
            let r = st.refs.(e) in
            Wire.seal
              (ok_fields "decide"
                 [
                   ("cache", Wire.json_string "hit");
                   ("digest", Wire.json_string r.digest);
                   ("result", Wire.verdict_to_string r.graph ~lang:entries.(e).lang r.outcome);
                   ( "service",
                     Wire.json_obj [ ("queue_wait_s", "0.000012"); ("wall_s", "0.000034") ] );
                 ])) );
    ]
  in
  let encode_us = us (Measure.median_of (Trace.self_times "client.encode")) in
  let layer = ("client.encode_us", encode_us) :: probes in
  let client_p50 = median_us tally.traced in
  let plain_p50 = median_us tally.plain in
  let accounted =
    List.fold_left (fun acc (name, mult) -> acc +. (float_of_int mult *. List.assoc name layer)) 0. path
  in
  let unattributed = client_p50 -. accounted in
  let decide_h = Cluster.hist_delta ~before:m0 ~after:m1 "op.decide" in
  let delta k = Cluster.stats_delta ~before:s0 ~after:s1 k ~router:false in
  let lines =
    Printf.sprintf "waterfall warm-hot: traced client p50 %.1f us (%d traced samples)" client_p50
      (Samples.count tally.traced)
    :: List.map
         (fun (name, mult) ->
           let v = List.assoc name layer in
           Printf.sprintf "  %-30s x%d %9.2f us = %9.2f us" name mult v (float_of_int mult *. v))
         path
    @ [
        Printf.sprintf "  %-30s    %9s    = %9.2f us  (sockets, threads, admission, relay)"
          "warm.unattributed_us" "" unattributed;
        Printf.sprintf "  sum %.2f us; untraced p50 %.1f us; tracing overhead %.2f us"
          (accounted +. unattributed) plain_p50 (client_p50 -. plain_p50);
      ]
  in
  {
    metrics =
      List.map (fun (n, v) -> usec n v) layer
      @ [
          usec "client.exchange_direct_us" (median_us direct);
          usec "router.hop_us" (median_us hops);
          usec "server.op_decide_p50_us" (Cluster.hist_percentile_us decide_h 50.);
          usec "server.op_decide_p99_us" (Cluster.hist_percentile_us decide_h 99.);
          Measure.metric "cache.revalidations_per_hit" "ratio"
            (ratio (delta "cache_revalidation_ok") (delta "cache_verdict_hits"));
          usec "warm.client_p50_us" client_p50;
          usec "warm.unattributed_us" unattributed;
          usec "trace.overhead_warm_us" (client_p50 -. plain_p50);
        ];
    attempted = tally.attempted;
    failed = tally.failed;
    mismatches = tally.mismatches;
    first_mismatch = tally.first_mismatch;
    lines;
  }

(* ------------------------------------------------------------------ *)
(* edit-chain: the same closed loop as the untraced run, alternating
   untraced and traced blocks of 32 requests per connection. *)

let edit ~cli ~dir ~seed ~seconds =
  let st, repairs, fallbacks = S.prepare ~seed ~chain:true S.edit_profile in
  S.rm_rf dir;
  Unix.mkdir dir 0o755;
  let cl, _ = S.start_filled ~cli ~dir st in
  Fun.protect ~finally:(fun () -> Cluster.stop cl) @@ fun () ->
  let s0 = Cluster.stats cl and m0 = Cluster.metrics cl in
  let tally, _, _ = S.closed_loop st ~connections:2 ~seconds ~block:32 cl.router in
  let s1 = Cluster.stats cl and m1 = Cluster.metrics cl in
  let d ?(router = false) k = Cluster.stats_delta ~before:s0 ~after:s1 k ~router in
  let after k = Cluster.field s1.shard_sum k in
  let h name p = Cluster.hist_percentile_us (Cluster.hist_delta ~before:m0 ~after:m1 name) p in
  let median_list xs = us (Measure.median xs) in
  let hits = d "cache_verdict_hits" and misses = d "cache_verdict_misses" in
  let repaired = d "cache_delta_repair_hits" and fell_back = d "cache_delta_repair_misses" in
  let overhead = median_us tally.traced -. median_us tally.plain in
  {
    metrics =
      [
        count "router.chain_hits" (d ~router:true "chain_hits");
        count "router.chain_misses" (d ~router:true "chain_misses");
        Measure.metric "cache.hit_rate" "ratio" (ratio hits (hits + misses));
        count "cache.evictions" (d "cache_verdict_evictions");
        count "cache.store_hits" (d "cache_store_hits");
        usec "server.op_delta_p50_us" (h "op.delta" 50.);
        count "server.overloaded" (d "overloaded");
        usec "par.queue_wait_p50_us" (h "pool.queue_wait" 50.);
        count "par.steal_success" (d "pool_steal_success");
        count "par.submit_rejected" (d "pool_submit_rejected");
        Measure.metric "engine.delta_repair_rate" "ratio" (ratio repaired (repaired + fell_back));
        usec "engine.delta_repair_us" (median_list repairs);
        usec "engine.delta_fallback_us" (median_list fallbacks);
        usec "store.append_p50_us" (h "store.append" 50.);
        usec "store.fsync_p50_us" (h "store.fsync" 50.);
        Measure.metric "store.bytes_per_verdict" "B"
          (ratio
             (after "cache_store_log_bytes" + after "cache_store_snapshot_bytes")
             (after "cache_store_live_records"));
        usec "trace.overhead_edit_us" overhead;
      ];
    attempted = tally.attempted;
    failed = tally.failed;
    mismatches = tally.mismatches;
    first_mismatch = tally.first_mismatch;
    lines =
      [
        Printf.sprintf
          "edit-chain traced: %d requests, %d failed; delta repair %d / fallback %d; tracing overhead %.2f us"
          tally.attempted tally.failed repaired fell_back overhead;
      ];
  }
