(* The load generator: schedule synthesis must be a pure function of
   (seed, profile); the runner must execute it against a real server
   with a clean taxonomy; the clean-vs-chaos check must catch a wrong
   answer.  The e2e tests spawn an in-process [Service.Server] on a
   Unix socket — the same idiom as test_service. *)

module Workload = Load.Workload
module Runner = Load.Runner

let () = Definability.Deciders.init ()

let build_ok ~seed profile =
  match Workload.build ~seed profile with
  | Ok wl -> wl
  | Error e -> Alcotest.failf "build: %s" e

(* A small, cheap profile: enough entries and ops to exercise every op
   kind, nothing that takes more than milliseconds to decide. *)
let small_profile =
  {
    Workload.default_profile with
    Workload.requests = 60;
    mode = Workload.Closed 3;
    fuel = 1_000;
    deadline_s = Some 10.;
    families = [ ("random", 3); ("fig1", 1) ];
    size = 5;
    edits_per_entry = 4;
  }

(* ---------- schedule synthesis ---------- *)

let test_schedule_deterministic () =
  let a = build_ok ~seed:7 small_profile in
  let b = build_ok ~seed:7 small_profile in
  let c = build_ok ~seed:8 small_profile in
  Alcotest.(check string) "same seed, same schedule" a.Workload.schedule_crc
    b.Workload.schedule_crc;
  Alcotest.(check bool) "different seed, different schedule" true
    (a.Workload.schedule_crc <> c.Workload.schedule_crc);
  Alcotest.(check int) "one op per request slot" small_profile.Workload.requests
    (Array.length a.Workload.ops);
  Alcotest.(check int) "entry pool sized by families" 4
    (Array.length a.Workload.entries);
  (* Every op kind appears in a 60-op schedule with 6/1/3 weights. *)
  let d = ref 0 and b' = ref 0 and dl = ref 0 in
  Array.iter
    (function
      | Workload.Decide _ -> incr d
      | Workload.Batch _ -> incr b'
      | Workload.Delta _ -> incr dl)
    a.Workload.ops;
  Alcotest.(check bool)
    (Printf.sprintf "op mix covered (%d/%d/%d)" !d !b' !dl)
    true
    (!d > 0 && !b' > 0 && !dl > 0)

let test_families () =
  List.iter
    (fun fam ->
      let p =
        { small_profile with Workload.families = [ (fam, 2) ]; requests = 4 }
      in
      let wl = build_ok ~seed:3 p in
      Array.iter
        (fun e ->
          Alcotest.(check bool)
            (fam ^ " entry renders")
            true
            (String.length e.Workload.text > 0))
        wl.Workload.entries)
    [ "random"; "fig1"; "tiling"; "sat" ];
  (match
     Workload.build ~seed:0
       { small_profile with Workload.families = [ ("nope", 1) ] }
   with
  | Ok _ -> Alcotest.fail "unknown family accepted"
  | Error _ -> ());
  match Workload.build ~seed:0 { small_profile with Workload.ops = (0, 0, 0) } with
  | Ok _ -> Alcotest.fail "all-zero op weights accepted"
  | Error _ -> ()

let test_profile_parsing () =
  (match Workload.profile_of_string "{}" with
  | Ok p ->
      Alcotest.(check int) "defaults fill in"
        Workload.default_profile.Workload.requests p.Workload.requests
  | Error e -> Alcotest.fail e);
  (match
     Workload.profile_of_string
       {|{"requests":5,"mode":"open","rate":50,"max_outstanding":8,
          "popularity":"hot","hot_fraction":0.25,"hot_period":64,
          "families":{"fig1":2},"ops":{"decide":1,"batch":0,"delta":0}}|}
   with
  | Ok p ->
      Alcotest.(check int) "requests" 5 p.Workload.requests;
      (match p.Workload.mode with
      | Workload.Open { rate; max_outstanding } ->
          Alcotest.(check (float 0.001)) "rate" 50. rate;
          Alcotest.(check int) "outstanding" 8 max_outstanding
      | _ -> Alcotest.fail "mode not open");
      (match p.Workload.popularity with
      | Workload.Hot { fraction; period } ->
          Alcotest.(check (float 0.001)) "fraction" 0.25 fraction;
          Alcotest.(check int) "period" 64 period
      | _ -> Alcotest.fail "popularity not hot")
  | Error e -> Alcotest.fail e);
  List.iter
    (fun s ->
      match Workload.profile_of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ "nonsense"; {|{"mode":"sometimes"}|}; {|{"requests":"many"}|} ]

(* ---------- runner end to end ---------- *)

let with_server f =
  let path = Filename.temp_file "loadsvc" ".sock" in
  let addr = Service.Wire.Unix_sock path in
  let srv = Service.Server.create ~config:Service.Server.default_config addr in
  let th = Thread.create Service.Server.run srv in
  Fun.protect
    ~finally:(fun () ->
      Service.Server.shutdown srv;
      Thread.join th)
    (fun () -> f addr)

let run_ok ~seed addr wl =
  match Runner.run ~seed ~addr wl with
  | Ok r -> r
  | Error e -> Alcotest.failf "run: %s" e

let test_runner_clean () =
  with_server (fun addr ->
      let wl = build_ok ~seed:11 small_profile in
      let r = run_ok ~seed:11 addr wl in
      Alcotest.(check string) "report carries the schedule crc"
        wl.Workload.schedule_crc r.Runner.schedule_crc;
      Alcotest.(check (list string)) "no disallowed events" []
        r.Runner.disallowed;
      Alcotest.(check bool) "answers recorded" true (r.Runner.ok > 0);
      Alcotest.(check bool) "verdict map populated" true
        (List.length r.Runner.verdicts > 0);
      Alcotest.(check bool) "latencies recorded" true
        (List.exists
           (fun (_, (count, _, _, _)) -> count > 0)
           r.Runner.latency_us);
      (* A clean run against itself satisfies the invariant. *)
      match Runner.check ~clean:r ~chaos:r with
      | Ok n -> Alcotest.(check bool) "digests compared" true (n > 0)
      | Error vs -> Alcotest.failf "violations: %s" (String.concat "; " (List.map (fun v -> v) vs)))

let test_runner_replay_verdicts_agree () =
  (* Two runs of the same seed must produce byte-identical verdicts for
     every shared digest — the foundation of the chaos harness. *)
  with_server (fun addr ->
      let wl = build_ok ~seed:19 small_profile in
      let r1 = run_ok ~seed:19 addr wl in
      let r2 = run_ok ~seed:19 addr wl in
      match Runner.check ~clean:r1 ~chaos:r2 with
      | Ok _ -> ()
      | Error vs -> Alcotest.failf "violations: %s" (String.concat "; " vs))

let test_report_roundtrip () =
  with_server (fun addr ->
      let wl =
        build_ok ~seed:5 { small_profile with Workload.requests = 20 }
      in
      let r = run_ok ~seed:5 addr wl in
      match Runner.report_of_string (Runner.report_to_string r) with
      | Error e -> Alcotest.fail e
      | Ok r' ->
          Alcotest.(check string) "crc" r.Runner.schedule_crc r'.Runner.schedule_crc;
          Alcotest.(check int) "requests" r.Runner.requests r'.Runner.requests;
          Alcotest.(check int) "ok" r.Runner.ok r'.Runner.ok;
          Alcotest.(check bool) "verdicts survive" true
            (r.Runner.verdicts = r'.Runner.verdicts);
          Alcotest.(check bool) "errors survive" true
            (r.Runner.errors = r'.Runner.errors))

let test_check_catches_wrong_answer () =
  with_server (fun addr ->
      let wl =
        build_ok ~seed:23 { small_profile with Workload.requests = 20 }
      in
      let clean = run_ok ~seed:23 addr wl in
      (match clean.Runner.verdicts with
      | [] -> Alcotest.fail "no verdicts to corrupt"
      | (digest, verdict) :: rest ->
          let forged =
            { clean with Runner.verdicts = (digest, verdict ^ "X") :: rest }
          in
          (match Runner.check ~clean ~chaos:forged with
          | Ok _ -> Alcotest.fail "byte-different verdict passed the check"
          | Error _ -> ()));
      (* A disallowed event is a violation even with equal verdicts. *)
      let noisy = { clean with Runner.disallowed = [ "worker exception: X" ] } in
      (match Runner.check ~clean ~chaos:noisy with
      | Ok _ -> Alcotest.fail "disallowed event passed the check"
      | Error _ -> ());
      (* Reports from different schedules refuse to compare. *)
      let other = { clean with Runner.schedule_crc = "00000000" } in
      match Runner.check ~clean ~chaos:other with
      | Ok _ -> Alcotest.fail "schedule mismatch passed the check"
      | Error _ -> ())

(* The runner's [load.op.*] histograms record without the telemetry
   plane, so a run must leave the rest of the process's telemetry alone:
   a counter bumped before the run keeps its value, and the plane stays
   in whatever state it was. *)
let test_runner_leaves_telemetry_alone () =
  let c = Obs.Counter.make "test.load.before_run" in
  Obs.Counter.add c 3;
  let was_on = Obs.enabled () in
  with_server (fun addr ->
      let wl =
        build_ok ~seed:29 { small_profile with Workload.requests = 20 }
      in
      let r = run_ok ~seed:29 addr wl in
      Alcotest.(check bool) "latencies recorded" true
        (List.exists (fun (_, (count, _, _, _)) -> count > 0) r.Runner.latency_us));
  Alcotest.(check int) "counter survives the run" 3 (Obs.Counter.value c);
  Alcotest.(check bool) "plane state unchanged" was_on (Obs.enabled ())

let () =
  Alcotest.run "load"
    [
      ( "workload",
        [
          Alcotest.test_case "deterministic schedule" `Quick
            test_schedule_deterministic;
          Alcotest.test_case "families" `Quick test_families;
          Alcotest.test_case "profile parsing" `Quick test_profile_parsing;
        ] );
      ( "runner",
        [
          Alcotest.test_case "clean run" `Quick test_runner_clean;
          Alcotest.test_case "replay verdicts agree" `Quick
            test_runner_replay_verdicts_agree;
          Alcotest.test_case "report roundtrip" `Quick test_report_roundtrip;
          Alcotest.test_case "check catches wrong answers" `Quick
            test_check_catches_wrong_answer;
          Alcotest.test_case "leaves process telemetry alone" `Quick
            test_runner_leaves_telemetry_alone;
        ] );
    ]
