(* The metrics plane's data model: the log-bucketed histogram (bucket
   geometry, the index/upper-bound inverse, exact-count percentiles
   against a sorted reference, merge, concurrent recording from
   domains), the snapshot JSON codec, and the Prometheus text
   exposition's grammar. *)

module H = Obs.Histogram
module Json = Service.Json
module Metrics = Service.Metrics

let observed f =
  Obs.enable [ Obs.Sink.null ];
  Fun.protect ~finally:Obs.disable f

(* ---------- bucket geometry ---------- *)

(* Every bucket's upper bound must index back into that bucket, the
   bound after it into the next — the property percentile reporting
   rests on ([percentile_of] answers an upper bound, and the answer
   must be the tightest one). *)
let test_bucket_inverse () =
  for i = 0 to H.n_buckets - 2 do
    let upper = H.bucket_upper_ns i in
    Alcotest.(check int)
      (Printf.sprintf "upper of bucket %d (%d ns) maps back" i upper)
      i (H.bucket_index upper);
    if i < H.n_buckets - 2 then
      Alcotest.(check int)
        (Printf.sprintf "first value past bucket %d maps forward" i)
        (i + 1)
        (H.bucket_index (upper + 1))
  done;
  Alcotest.(check int) "negative values clamp to bucket 0" 0 (H.bucket_index (-5));
  Alcotest.(check int) "zero is bucket 0" 0 (H.bucket_index 0);
  Alcotest.(check int) "max_int lands in the overflow bucket"
    (H.n_buckets - 1) (H.bucket_index max_int)

let test_bucket_monotone () =
  (* Bounds strictly increase: the cumulative rendering and the
     percentile scan both assume it. *)
  let prev = ref (-1) in
  for i = 0 to H.n_buckets - 2 do
    let u = H.bucket_upper_ns i in
    Alcotest.(check bool) (Printf.sprintf "bound %d grows" i) true (u > !prev);
    prev := u
  done;
  (* Sub-bucket resolution: with 4 sub-buckets per octave each bound
     exceeds the previous by at most a quarter of it — so a reported
     percentile is at most 25% above the true value.  Integer
     arithmetic: bounds reach 2^60, past float precision. *)
  for i = 17 to H.n_buckets - 2 do
    let lo = H.bucket_upper_ns (i - 1) and hi = H.bucket_upper_ns i in
    Alcotest.(check bool)
      (Printf.sprintf "bucket %d within 25%% of its neighbour" i)
      true
      (hi - lo <= (lo + 1) / 4)
  done

(* ---------- recording and percentiles ---------- *)

let fresh_histogram =
  let n = ref 0 in
  fun () ->
    incr n;
    H.make (Printf.sprintf "test.h%d" !n)

let test_record_disabled_noop () =
  let h = fresh_histogram () in
  H.record_ns h 100;
  Alcotest.(check int) "disabled record lands" 1 (H.count h);
  observed (fun () -> H.record_ns h 100);
  Alcotest.(check int) "enabled record lands" 1 (H.count h)

(* Percentiles against a sorted reference: for every requested p the
   histogram must answer exactly the upper bound of the bucket holding
   the reference sample — the discretization is the bucket, nothing
   else. *)
let test_percentile_exact () =
  let h = fresh_histogram () in
  let samples =
    (* A skewed spread crossing several octaves, with duplicates. *)
    [ 3; 3; 7; 12; 18; 45; 45; 120; 700; 3_000; 12_000; 90_000; 90_000;
      500_000; 4_000_000 ]
  in
  observed (fun () -> List.iter (H.record_ns h) samples);
  let sorted = List.sort compare samples in
  let n = List.length sorted in
  let s = H.snapshot h in
  List.iter
    (fun p ->
      let rank =
        max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int n)))
      in
      let reference = List.nth sorted (rank - 1) in
      let expected = H.bucket_upper_ns (H.bucket_index reference) in
      Alcotest.(check int)
        (Printf.sprintf "p%.0f = upper bound of reference bucket" p)
        expected (H.percentile_of s p))
    [ 1.; 25.; 50.; 75.; 90.; 95.; 99.; 100. ];
  Alcotest.(check int) "empty histogram reports 0" 0
    (H.percentile_of (H.zero_snapshot ()) 50.);
  Alcotest.(check int) "count" n (H.total s);
  Alcotest.(check int) "sum" (List.fold_left ( + ) 0 samples) s.H.sum_ns

let test_merge () =
  let a = fresh_histogram () and b = fresh_histogram () in
  observed (fun () ->
      List.iter (H.record_ns a) [ 10; 100; 1_000 ];
      List.iter (H.record_ns b) [ 10; 50_000 ]);
  let m = H.merge (H.snapshot a) (H.snapshot b) in
  Alcotest.(check int) "merged count" 5 (H.total m);
  Alcotest.(check int) "merged sum" 51_120 m.H.sum_ns;
  (* Merge must agree with recording everything into one histogram. *)
  let c = fresh_histogram () in
  observed (fun () ->
      List.iter (H.record_ns c) [ 10; 100; 1_000; 10; 50_000 ]);
  Alcotest.(check bool) "merge = union of recordings" true
    (m = H.snapshot c);
  Alcotest.(check bool) "merge with zero is identity" true
    (H.merge (H.zero_snapshot ()) (H.snapshot a) = H.snapshot a)

(* Four domains hammering one histogram concurrently: every record must
   land (atomic buckets, no lost updates). *)
let test_concurrent_recording () =
  let h = fresh_histogram () in
  let per_domain = 25_000 in
  observed (fun () ->
      let workers =
        List.init 4 (fun d ->
            Domain.spawn (fun () ->
                for i = 1 to per_domain do
                  H.record_ns h ((d * 1_000) + (i mod 97))
                done))
      in
      List.iter Domain.join workers);
  Alcotest.(check int) "no lost updates" (4 * per_domain) (H.count h)

let test_time_measures () =
  let h = fresh_histogram () in
  observed (fun () ->
      let v = H.time h (fun () -> Thread.delay 0.01; 42) in
      Alcotest.(check int) "value through" 42 v);
  Alcotest.(check int) "one sample" 1 (H.count h);
  Alcotest.(check bool) "at least the slept time" true
    (H.sum_ns h >= 9_000_000)

(* ---------- snapshot codec ---------- *)

let test_snapshot_roundtrip () =
  let h = fresh_histogram () in
  let c = Obs.Counter.make "test.codec_counter" in
  observed (fun () ->
      List.iter (H.record_ns h) [ 5; 5_000; 77_000_000 ];
      Obs.Counter.add c 9);
  let snap = Metrics.capture () in
  Alcotest.(check bool) "capture sees the counter" true
    (List.mem_assoc "test.codec_counter" snap.Metrics.counters);
  match Metrics.of_string (Metrics.to_json snap) with
  | Error msg -> Alcotest.failf "codec roundtrip failed: %s" msg
  | Ok back ->
      Alcotest.(check bool) "roundtrip preserves the snapshot" true
        (back = snap)

let test_merge_snapshots () =
  let mk name counts =
    {
      Metrics.histograms = [ (name, { H.counts; sum_ns = 0 }) ];
      counters = [ ("c", 1) ];
    }
  in
  let a = mk "h" (Array.init H.n_buckets (fun i -> if i = 3 then 2 else 0)) in
  let b = mk "h" (Array.init H.n_buckets (fun i -> if i = 3 then 1 else 0)) in
  let m = Metrics.merge a b in
  (match m.Metrics.histograms with
  | [ ("h", s) ] -> Alcotest.(check int) "bucket summed" 3 s.H.counts.(3)
  | _ -> Alcotest.fail "one histogram expected");
  Alcotest.(check (list (pair string int))) "counters summed" [ ("c", 2) ]
    m.Metrics.counters

(* ---------- Prometheus exposition ---------- *)

(* A small validator for the text format: every sample line must be
   NAME{labels} VALUE with a legal metric name, every metric mentioned
   by a sample needs a preceding TYPE line, histogram buckets must be
   cumulative and end in +Inf, and _count must equal the +Inf bucket. *)
let validate_prometheus text =
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text)
  in
  let legal_name n =
    n <> ""
    && String.for_all
         (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
         n
    && not (match n.[0] with '0' .. '9' -> true | _ -> false)
  in
  let typed = Hashtbl.create 16 in
  let bucket_state = Hashtbl.create 16 in
  List.iter
    (fun line ->
      if String.length line > 0 && line.[0] = '#' then begin
        match String.split_on_char ' ' line with
        | "#" :: ("HELP" | "TYPE") :: name :: _ when legal_name name ->
            if String.sub line 2 4 = "TYPE" then Hashtbl.replace typed name ()
        | _ -> Alcotest.failf "malformed comment line: %s" line
      end
      else begin
        let name_part, value_part =
          match String.index_opt line ' ' with
          | Some i ->
              ( String.sub line 0 i,
                String.sub line (i + 1) (String.length line - i - 1) )
          | None -> Alcotest.failf "sample line without a value: %s" line
        in
        (match float_of_string_opt (String.trim value_part) with
        | Some _ -> ()
        | None -> Alcotest.failf "unparsable sample value: %s" line);
        let metric, labels =
          match String.index_opt name_part '{' with
          | Some i ->
              let m = String.sub name_part 0 i in
              let rest = String.sub name_part i (String.length name_part - i) in
              if rest.[String.length rest - 1] <> '}' then
                Alcotest.failf "unterminated label set: %s" line;
              (m, Some (String.sub rest 1 (String.length rest - 2)))
          | None -> (name_part, None)
        in
        if not (legal_name metric) then
          Alcotest.failf "illegal metric name: %s" metric;
        let base =
          List.find_map
            (fun suffix ->
              let ls = String.length suffix and lm = String.length metric in
              if lm > ls && String.sub metric (lm - ls) ls = suffix then
                Some (String.sub metric 0 (lm - ls))
              else None)
            [ "_bucket"; "_sum"; "_count" ]
        in
        let family = Option.value base ~default:metric in
        if not (Hashtbl.mem typed family || Hashtbl.mem typed metric) then
          Alcotest.failf "sample without a TYPE line: %s" metric;
        (* Track bucket cumulativeness per histogram family. *)
        match (base, labels) with
        | Some fam, Some l
          when String.length metric > 7
               && String.sub metric (String.length metric - 7) 7 = "_bucket"
          ->
            let v = float_of_string (String.trim value_part) in
            let prev =
              Option.value (Hashtbl.find_opt bucket_state fam) ~default:(0., false)
            in
            if snd prev then
              Alcotest.failf "%s: bucket after +Inf" fam;
            if v < fst prev then
              Alcotest.failf "%s: non-cumulative buckets" fam;
            let is_inf =
              let needle = "le=\"+Inf\"" in
              let ln = String.length needle and ll = String.length l in
              let rec go i =
                i + ln <= ll && (String.sub l i ln = needle || go (i + 1))
              in
              go 0
            in
            Hashtbl.replace bucket_state fam (v, is_inf)
        | _ -> ()
      end)
    lines;
  Hashtbl.iter
    (fun fam (_, saw_inf) ->
      if not saw_inf then Alcotest.failf "%s: missing +Inf bucket" fam)
    bucket_state

let test_prometheus_exposition () =
  let h = fresh_histogram () in
  let c = Obs.Counter.make "test.prom_counter" in
  observed (fun () ->
      List.iter (H.record_ns h) [ 40; 40; 90_000; 2_000_000 ];
      Obs.Counter.add c 3);
  let snap = Metrics.capture () in
  let text = Metrics.render ~gauges:[ ("uptime_seconds", 12.5) ] snap in
  validate_prometheus text;
  let has needle =
    let ln = String.length needle and lt = String.length text in
    let rec go i = i + ln <= lt && (String.sub text i ln = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "counter rendered as _total" true
    (has "defcheck_test_prom_counter_total 3");
  Alcotest.(check bool) "gauge rendered" true (has "defcheck_uptime_seconds 12.5");
  Alcotest.(check bool) "build info present" true (has "defcheck_build_info{");
  Alcotest.(check bool) "histogram family present" true
    (has "_seconds_bucket{le=");
  (* The mandatory histogram triplet for our histogram. *)
  let fam = Metrics.prom_name "test.h" in
  Alcotest.(check bool) "prom_name sanitizes" true
    (String.for_all
       (function 'a' .. 'z' | '0' .. '9' | '_' -> true | _ -> false)
       fam)

let test_percentile_us () =
  let h = fresh_histogram () in
  observed (fun () -> List.iter (H.record_ns h) [ 1_000; 2_000; 3_000 ]);
  let snap = Metrics.capture () in
  match Metrics.percentile_us snap ~histogram:(H.name h) 50. with
  | Some us ->
      Alcotest.(check bool) "p50 in the right octave" true
        (us >= 1. && us <= 4.)
  | None -> Alcotest.fail "percentile of recorded histogram"

let () =
  Alcotest.run "metrics"
    [
      ( "histogram",
        [
          Alcotest.test_case "bucket index/bound inverse" `Quick
            test_bucket_inverse;
          Alcotest.test_case "bounds monotone, <=25% apart" `Quick
            test_bucket_monotone;
          Alcotest.test_case "disabled recording no-op" `Quick
            test_record_disabled_noop;
          Alcotest.test_case "percentiles vs sorted reference" `Quick
            test_percentile_exact;
          Alcotest.test_case "merge" `Quick test_merge;
          Alcotest.test_case "concurrent recording (4 domains)" `Quick
            test_concurrent_recording;
          Alcotest.test_case "time wraps and records" `Quick test_time_measures;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "JSON codec roundtrip" `Quick
            test_snapshot_roundtrip;
          Alcotest.test_case "merge sums" `Quick test_merge_snapshots;
        ] );
      ( "prometheus",
        [
          Alcotest.test_case "exposition validates" `Quick
            test_prometheus_exposition;
          Alcotest.test_case "percentile_us" `Quick test_percentile_us;
        ] );
    ]
