(* perfbench: the repository's benchmark.

     main.exe --workload (warm-hot|cold-solve|edit-chain) --seed N
              --seconds S --trace (0|1) [--cli PATH] [--state DIR]

   With --trace 0 it measures one workload end to end and prints every
   end-to-end metric; with --trace 1 it runs the traced sections of all
   three workloads (the named one for the full time) and prints every
   per-layer metric.  The last line of standard output is the result
   object; the lines before it are the human-readable report.  See
   README.md for the workloads, the metrics and the layer they
   belong to. *)

module S = Service_run
module Samples = Measure.Samples

let workloads = [ "warm-hot"; "cold-solve"; "edit-chain" ]

let say fmt = Printf.ksprintf (fun s -> print_endline ("perfbench: " ^ s)) fmt

let latency_report name (sorted : float array) =
  let n = Array.length sorted in
  say "%s: %d samples, p50 %.1f us, p99 %.1f us, highest supported percentile p%.2f" name n
    (Measure.percentile sorted 50. *. 1e6)
    (Measure.percentile sorted 99. *. 1e6)
    (Measure.max_supported_percentile n)

(* Throughput is completed operations over the timed region's wall
   time; the p50 is the median of every sample and the p99 the median
   of block p99s ([Measure.block_p99]). *)
let e2e ~throughput ~sorted ~p99 ~setups ~rss =
  Measure.
    [
      metric "throughput_ops_s" "1/s" throughput;
      metric "latency_p50_us" "us" (percentile sorted 50. *. 1e6);
      metric "latency_p99_us" "us" (p99 *. 1e6);
      metric "setup_s" "s" (median setups);
      metric "peak_rss_mb" "MB" rss;
    ]

(* Every metric by name with its unit, then the result line. *)
let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun (m : Measure.metric) -> say "%-36s %14.4f %s" m.name m.value m.unit) metrics;
  print_endline (Measure.result_line ~correct ~attempted ~failed metrics)

(* ------------------------------------------------------------------ *)
(* Untraced runs. *)

(* Set-ups per run: the first (untimed) writes the stores with cold
   decides; each timed one starts the cluster over those stores, so it
   covers process start, store recovery (every record's certificate is
   re-checked) and refilling the memory tier.  The last stays up for the
   measurement. *)
let setups_per_run = 3

let service ~cli ~dir ~seed ~seconds ~profile ~chain ~connections =
  let st, _, _ = S.prepare ~seed ~chain profile in
  say "seed %d schedule_crc %s: %d entries, %d scheduled ops, %d connection(s)" seed
    st.wl.Load.Workload.schedule_crc
    (Array.length st.wl.entries) (Array.length st.wl.ops) connections;
  S.rm_rf dir;
  Unix.mkdir dir 0o755;
  Cluster.stop (fst (S.start_filled ~cli ~dir st));
  let rec setups k acc =
    let cl, dt = S.start_filled ~cli ~dir st in
    if k = setups_per_run then (cl, dt :: acc)
    else begin
      Cluster.stop cl;
      setups (k + 1) (dt :: acc)
    end
  in
  let cl, setup_times = setups 1 [] in
  let tally, t0, elapsed, rss =
    Fun.protect ~finally:(fun () -> Cluster.stop cl) @@ fun () ->
    S.reset_chains st;
    (* The generator's own pool only served the references: stop its
       worker domain so the timed loop runs single-domain. *)
    Par.Pool.shutdown ();
    Gc.compact ();
    let tally, t0, elapsed = S.closed_loop st ~connections ~seconds ~block:0 cl.router in
    (tally, t0, elapsed, Cluster.peak_rss_mb cl)
  in
  let sorted = Samples.sorted tally.plain in
  latency_report "request latency" sorted;
  say "set-up times %s s; peak RSS %.1f MB (max VmHWM of router and shards)"
    (String.concat ", " (List.rev_map (Printf.sprintf "%.3f") setup_times)) rss;
  say "error_rate %.6f (%d of %d failed)%s" (Waterfall.ratio tally.failed tally.attempted)
    tally.failed tally.attempted
    (String.concat ""
       (Hashtbl.fold (fun k v acc -> Printf.sprintf " %s=%d" k v :: acc) tally.errors []));
  Option.iter (say "WRONG RESPONSE: %s") tally.first_mismatch;
  print_result ~correct:(tally.mismatches = 0) ~attempted:tally.attempted ~failed:tally.failed
    (e2e
       ~throughput:(float_of_int (tally.attempted - tally.failed) /. elapsed)
       ~sorted
       ~p99:(Measure.block_p99 ~block_s:2. ~t0 ~seconds tally.plain tally.ends)
       ~setups:setup_times ~rss)

let cold_setups = 5

let cold ~seed ~seconds =
  let setups = List.init cold_setups (fun _ -> snd (Cold.setup seed)) in
  let set = Cold.interleave (Cold.select (fst (Cold.setup seed))) in
  let crc =
    Printf.sprintf "%08x"
      (Store.Crc32.digest_string
         (String.concat "\x00" (Array.to_list (Array.map (fun (s : Cold.selected) -> s.cand.text) set))))
  in
  say "seed %d schedule_crc %s: %d instances, pool size %d" seed crc (Array.length set)
    Cold.pool_size;
  Gc.compact ();
  let tally, t0, elapsed = Cold.run ~seconds set in
  let sorted = Samples.sorted tally.plain in
  let rss = Measure.vm_hwm_mb "self" in
  latency_report "decide latency" sorted;
  say "set-up times %s s; peak RSS %.1f MB (VmHWM of this process)"
    (String.concat ", " (List.map (Printf.sprintf "%.3f") setups)) rss;
  Option.iter (say "WRONG VERDICT: %s") tally.first_mismatch;
  print_result ~correct:(tally.mismatches = 0) ~attempted:tally.attempted ~failed:0
    (e2e
       ~throughput:(float_of_int tally.attempted /. elapsed)
       ~sorted
       ~p99:(Measure.block_p99 ~block_s:4. ~t0 ~seconds tally.plain tally.ends)
       ~setups ~rss)

(* ------------------------------------------------------------------ *)
(* Traced runs. *)

let traced ~cli ~state ~seed ~seconds ~workload =
  Measure.Trace.on := true;
  (* The named workload gets the full time.  The edit-chain section gets
     half of it even when it is not named: its cache needs that long to
     outgrow the shards' LRUs and start evicting. *)
  let share w =
    if w = workload then seconds
    else if w = "edit-chain" then seconds /. 2.
    else Float.max 2. (seconds /. 4.)
  in
  let warm =
    Waterfall.warm ~cli ~dir:(Filename.concat state "warm-hot") ~seed ~seconds:(share "warm-hot")
  in
  let edit =
    Waterfall.edit ~cli ~dir:(Filename.concat state "edit-chain") ~seed
      ~seconds:(share "edit-chain")
  in
  let generated, _ = Cold.setup seed in
  let set = Cold.interleave (Cold.select generated) in
  let c = Cold.traced ~seconds:(share "cold-solve") set in
  let cold_overhead =
    Waterfall.median_us c.tally.traced -. Waterfall.median_us c.tally.plain
  in
  let cold_metrics =
    Measure.
      [
        metric "engine.validate_us" "us" c.validate_us;
        metric "engine.steps" "count" (float_of_int c.steps);
        metric "engine.unknown" "count" (float_of_int c.unknown);
        metric "engine.cert_check_us" "us" c.cert_check_us;
        metric "definability.witness.tuples" "count" (float_of_int c.witness_tuples);
        metric "definability.ree.closure_size" "count" (float_of_int c.ree_closure);
        metric "trace.overhead_cold_us" "us" cold_overhead;
      ]
    @ List.map (fun (lang, s) -> Measure.metric (Printf.sprintf "definability.%s.busy_s" lang) "s" s) c.busy
    @ List.map (fun (k, x) -> Measure.metric ("par.kernel_speedup_d2." ^ k) "x" x) c.speedups
  in
  let trace_file = Filename.concat state "trace.json" in
  Measure.Trace.write trace_file;
  List.iter print_endline (warm.lines @ edit.lines);
  say "cold-solve traced: %d instances per pass, %d decides; tracing overhead %.2f us"
    (Array.length set) c.tally.attempted cold_overhead;
  say "%d spans written to %s" (Measure.Trace.count ()) trace_file;
  let metrics = warm.metrics @ edit.metrics @ cold_metrics in
  (* A layer that saw no samples in this window reports 0 (and says so)
     rather than an unrepresentable value. *)
  let metrics =
    List.map
      (fun (m : Measure.metric) ->
        if Float.is_finite m.value then m
        else begin
          say "%s: no samples in this run, reported as 0" m.name;
          { m with value = 0. }
        end)
      metrics
  in
  Option.iter (say "WRONG RESPONSE: %s") warm.first_mismatch;
  Option.iter (say "WRONG RESPONSE: %s") edit.first_mismatch;
  Option.iter (say "WRONG VERDICT: %s") c.tally.first_mismatch;
  print_result
    ~correct:(warm.mismatches + edit.mismatches + c.tally.mismatches = 0)
    ~attempted:(warm.attempted + edit.attempted + c.tally.attempted)
    ~failed:(warm.failed + edit.failed) metrics

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let cli = ref "_build/default/bin/definability_cli.exe" and state = ref ".perfbench_state" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N workload seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S measured seconds (>= 1)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--cli", Arg.Set_string cli, "PATH the defcheck executable");
      ("--state", Arg.Set_string state, "DIR scratch directory for sockets, stores and traces");
    ]
  in
  let usage = "main.exe --workload W --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if not (List.mem !workload workloads && !seed >= 0 && !seconds >= 1 && (!trace = 0 || !trace = 1))
  then begin
    prerr_endline ("perfbench: bad arguments\n" ^ Arg.usage_string spec usage);
    exit 2
  end;
  if not (Sys.file_exists !cli) then begin
    prerr_endline ("perfbench: no defcheck executable at " ^ !cli);
    exit 2
  end;
  if not (Sys.file_exists !state) then Unix.mkdir !state 0o755;
  Definability.Deciders.init ();
  (* The generator computes its references on every core. *)
  Par.Pool.set_size (Domain.recommended_domain_count ());
  say "workload %s, seed %d, %d s, trace %d" !workload !seed !seconds !trace;
  let seconds = float_of_int !seconds in
  let dir = Filename.concat !state !workload in
  if !trace = 1 then traced ~cli:!cli ~state:!state ~seed:!seed ~seconds ~workload:!workload
  else
    match !workload with
    | "warm-hot" ->
        service ~cli:!cli ~dir ~seed:!seed ~seconds ~profile:S.warm_profile ~chain:false
          ~connections:1
    | "edit-chain" ->
        service ~cli:!cli ~dir ~seed:!seed ~seconds ~profile:S.edit_profile ~chain:true
          ~connections:2
    | _ -> cold ~seed:!seed ~seconds
