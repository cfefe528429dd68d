(* The fault plane: trigger schedules, the failpoint registry, the
   store corruption sites end to end, and the chaos proxy as a real
   socket-level man in the middle.  Everything here must be
   deterministic from seeds — a failing chaos run is only useful if it
   replays. *)

let trigger_of s =
  match Fault.Trigger.of_string s with
  | Ok t -> t
  | Error e -> Alcotest.failf "trigger %S: %s" s e

(* ---------- triggers ---------- *)

let test_trigger_parse () =
  List.iter
    (fun (s, expect) ->
      Alcotest.(check string) s expect (Fault.Trigger.to_string (trigger_of s)))
    [ ("once", "once"); ("after:7", "after:7"); ("1-in:50", "1-in:50") ];
  List.iter
    (fun s ->
      match Fault.Trigger.of_string s with
      | Ok _ -> Alcotest.failf "accepted bad trigger %S" s
      | Error _ -> ())
    [ ""; "always"; "after:"; "after:-1"; "1-in:0"; "1-in:x" ]

let test_trigger_semantics () =
  let fires t salt n =
    List.filter (Fault.Trigger.hits t ~salt) (List.init n Fun.id)
  in
  Alcotest.(check (list int)) "once = call 0" [ 0 ] (fires Fault.Trigger.Once 1 10);
  Alcotest.(check (list int))
    "after:3 = call 3 only" [ 3 ]
    (fires (Fault.Trigger.After 3) 1 10);
  Alcotest.(check (list int)) "1-in:1 = every call" (List.init 10 Fun.id)
    (fires (Fault.Trigger.One_in 1) 1 10);
  (* 1-in:8 over 4000 calls: deterministic per salt, roughly 1/8, and a
     different salt gives a different schedule. *)
  let a = fires (Fault.Trigger.One_in 8) 17 4000 in
  let b = fires (Fault.Trigger.One_in 8) 17 4000 in
  let c = fires (Fault.Trigger.One_in 8) 18 4000 in
  Alcotest.(check (list int)) "deterministic per salt" a b;
  Alcotest.(check bool) "salt changes the schedule" true (a <> c);
  let n = List.length a in
  Alcotest.(check bool)
    (Printf.sprintf "rate plausible (%d/4000)" n)
    true
    (n > 4000 / 16 && n < 4000 / 4)

(* ---------- failpoint registry ---------- *)

let test_failpoint_spec () =
  (match Fault.Failpoint.parse "a=once, b.c=1-in:9,d=after:2" with
  | Ok [ ("a", _); ("b.c", _); ("d", _) ] -> ()
  | Ok _ -> Alcotest.fail "wrong sites"
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "empty spec = empty list" true
    (Fault.Failpoint.parse "" = Ok []);
  List.iter
    (fun s ->
      match Fault.Failpoint.parse s with
      | Ok _ -> Alcotest.failf "accepted bad spec %S" s
      | Error _ -> ())
    [ "a"; "=once"; "a=nope" ]

let test_failpoint_fire () =
  Fun.protect ~finally:Fault.Failpoint.disarm (fun () ->
      Alcotest.(check bool) "unarmed never fires" false
        (Fault.Failpoint.fire "x");
      (match Fault.Failpoint.arm ~seed:3 "x=after:1" with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      Alcotest.(check bool) "armed" true (Fault.Failpoint.armed ());
      let a = Fault.Failpoint.fire "x" in
      let b = Fault.Failpoint.fire "x" in
      let c = Fault.Failpoint.fire "x" in
      Alcotest.(check (list bool))
        "after:1 fires on the second call only" [ false; true; false ]
        [ a; b; c ];
      Alcotest.(check bool) "unknown site never fires" false
        (Fault.Failpoint.fire "y");
      (match Fault.Failpoint.stats () with
      | [ ("x", 3, 1) ] -> ()
      | l ->
          Alcotest.failf "stats: %s"
            (String.concat ";"
               (List.map (fun (n, c, f) -> Printf.sprintf "%s/%d/%d" n c f) l)));
      (match Fault.Failpoint.arm "" with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      Alcotest.(check bool) "empty spec disarms" false (Fault.Failpoint.armed ()))

(* ---------- store corruption end to end ---------- *)

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let test_store_corrupt_recovery () =
  let dir = temp_dir "faultlog" in
  Fun.protect ~finally:Fault.Failpoint.disarm (fun () ->
      (match Fault.Failpoint.arm ~seed:11 "store.append.corrupt=after:1" with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      let s = Store.Log.open_ ~fsync:Store.Log.Always dir in
      Store.Log.put s "good" "kept";
      Store.Log.put s "bad" "corrupted-on-disk";
      Store.Log.put s "after" "behind the torn frame";
      Store.Log.close s;
      Fault.Failpoint.disarm ();
      (* Recovery stops at the first bad frame and truncates: the record
         before the corruption survives, everything at and after it is
         gone — but never served corrupt. *)
      let s = Store.Log.open_ dir in
      Alcotest.(check (option string)) "prefix survives" (Some "kept")
        (Store.Log.find s "good");
      Alcotest.(check (option string)) "corrupt record dropped" None
        (Store.Log.find s "bad");
      Alcotest.(check (option string)) "suffix unreachable" None
        (Store.Log.find s "after");
      let truncated =
        List.assoc "recovery_truncated_bytes" (Store.Log.stats s)
      in
      Alcotest.(check bool) "truncation counted" true (truncated > 0);
      (* The store is writable again after recovery. *)
      Store.Log.put s "bad" "recomputed";
      Alcotest.(check (option string)) "recompute lands" (Some "recomputed")
        (Store.Log.find s "bad");
      Store.Log.close s)

(* The same failpoint under a live store, over many seeds: the damage
   lands in the value, the key or the header, and reads run before any
   recovery does.  A live [find] or [iter], a [compact] and the reopen
   after it may lose a damaged record, but never serve one. *)
let test_store_corrupt_live_reads () =
  let written = [ ("a", "first"); ("b", "corrupted-on-disk"); ("c", "later") ] in
  let served_ok s =
    List.for_all
      (fun (k, v) ->
        match Store.Log.find s k with None -> true | Some v' -> v' = v)
      written
    &&
    let ok = ref true in
    Store.Log.iter s (fun k v ->
        if List.assoc_opt k written <> Some v then ok := false);
    !ok
  in
  Fun.protect ~finally:Fault.Failpoint.disarm (fun () ->
      for seed = 1 to 200 do
        let dir = temp_dir "faultlive" in
        (match Fault.Failpoint.arm ~seed "store.append.corrupt=after:1" with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        let s = Store.Log.open_ ~fsync:Store.Log.Never dir in
        List.iter (fun (k, v) -> Store.Log.put s k v) written;
        Fault.Failpoint.disarm ();
        let live = served_ok s in
        Store.Log.compact s;
        let compacted = served_ok s in
        Store.Log.close s;
        let s = Store.Log.open_ dir in
        let reopened = served_ok s in
        Store.Log.close s;
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Unix.rmdir dir;
        if not (live && compacted && reopened) then
          Alcotest.failf "seed %d: a damaged value was served (live %b, \
                          compacted %b, reopened %b)"
            seed live compacted reopened
      done)

let test_store_fsync_skip () =
  let dir = temp_dir "faultsync" in
  Fun.protect ~finally:Fault.Failpoint.disarm (fun () ->
      (match Fault.Failpoint.arm "store.fsync.skip=once" with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      let s = Store.Log.open_ ~fsync:Store.Log.Always dir in
      Store.Log.put s "k1" "v1";
      Store.Log.put s "k2" "v2";
      (match Fault.Failpoint.stats () with
      | [ ("store.fsync.skip", calls, 1) ] when calls >= 2 -> ()
      | l ->
          Alcotest.failf "stats: %s"
            (String.concat ";"
               (List.map (fun (n, c, f) -> Printf.sprintf "%s/%d/%d" n c f) l)));
      (* The lying disk is only observable across a crash; in-process the
         data is intact. *)
      Alcotest.(check (option string)) "data intact" (Some "v1")
        (Store.Log.find s "k1");
      Store.Log.close s)

(* One torn append must not misalign the rest of the log.  The log cuts
   the partial frame back off, so the index keeps naming the offsets
   where frames really start: every later put reads back, live and
   after a reopen.  (Whether the torn put itself reports failure is
   pinned by the next test; this one only watches what follows it.) *)
let test_store_torn_append () =
  let dir = temp_dir "faulttorn" in
  Fun.protect ~finally:Fault.Failpoint.disarm (fun () ->
      (match Fault.Failpoint.arm "store.append.torn=after:1" with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      let s = Store.Log.open_ ~fsync:Store.Log.Never dir in
      Store.Log.put s "before" "kept";
      (try Store.Log.put s "torn" "only half of this frame reaches the file"
       with _ -> ());
      Fault.Failpoint.disarm ();
      let later = List.init 5 (fun i -> (Printf.sprintf "later%d" i, String.make (i + 3) 'v')) in
      List.iter (fun (k, v) -> Store.Log.put s k v) later;
      let read_back s =
        List.length (List.filter (fun (k, v) -> Store.Log.find s k = Some v) later)
      in
      Alcotest.(check int) "later puts read back live" 5 (read_back s);
      Alcotest.(check (option string)) "earlier put intact" (Some "kept")
        (Store.Log.find s "before");
      Alcotest.(check (option string)) "torn put not stored" None
        (Store.Log.find s "torn");
      Store.Log.close s;
      let s = Store.Log.open_ dir in
      Alcotest.(check int) "later puts read back after reopen" 5 (read_back s);
      Alcotest.(check (option int)) "nothing left to truncate" (Some 0)
        (List.assoc_opt "recovery_truncated_bytes" (Store.Log.stats s));
      Store.Log.close s)

(* The torn put fails with the typed error and leaves the log exactly as
   it was; the cache above it still serves the verdict from memory and
   counts the failed write-through. *)
let test_store_torn_append_typed () =
  let dir = temp_dir "faulttyped" in
  Fun.protect ~finally:Fault.Failpoint.disarm (fun () ->
      let s = Store.Log.open_ ~fsync:Store.Log.Never dir in
      Store.Log.put s "a" "1";
      let before = Store.Log.stats s in
      (match Fault.Failpoint.arm "store.append.torn=once" with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      (match Store.Log.put s "b" "2" with
      | () -> Alcotest.fail "a torn put reported success"
      | exception Store.Log.Append_failed _ -> ());
      Fault.Failpoint.disarm ();
      Alcotest.(check (list (pair string int))) "stats unchanged" before
        (Store.Log.stats s);
      Alcotest.(check int) "file holds whole frames only"
        (List.assoc "log_bytes" before)
        (Unix.stat (Filename.concat dir "log.bin")).Unix.st_size;
      Store.Log.close s);
  Definability.Deciders.init ();
  let module Gen = Datagraph.Graph_gen in
  let fig1 = Gen.fig1 () in
  let s2 = Datagraph.Tuple_relation.of_binary (Gen.fig1_s2 fig1) in
  let tier = Service.Tier.open_ ~fsync:Store.Log.Never (temp_dir "faulttier") in
  let cache = Service.Cache.create ~durable:tier () in
  let decide () =
    match Service.Cache.decide cache ~lang:"rem" fig1 s2 with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  Fun.protect ~finally:Fault.Failpoint.disarm (fun () ->
      (match Fault.Failpoint.arm "store.append.torn=once" with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      let cold, origin = decide () in
      Alcotest.(check bool) "cold miss" true (origin = `Miss);
      Fault.Failpoint.disarm ();
      let warm, origin = decide () in
      Alcotest.(check bool) "served from memory" true (origin = `Hit);
      Alcotest.(check string) "same verdict block"
        (Service.Wire.verdict_to_string fig1 ~lang:"rem" cold)
        (Service.Wire.verdict_to_string fig1 ~lang:"rem" warm);
      Alcotest.(check (option int)) "failed write-through counted" (Some 1)
        (List.assoc_opt "store_write_failures" (Service.Cache.counters cache));
      Alcotest.(check int) "nothing stored" 0 (Service.Tier.length tier);
      Service.Cache.close cache)

(* ---------- chaos proxy ---------- *)

let test_proxy_rules_roundtrip () =
  let spec = "delay-ms:50@1-in:20,reset@once,truncate@after:3,corrupt@1-in:61" in
  (match Fault.Proxy.rules_of_string spec with
  | Ok rules ->
      Alcotest.(check string) "roundtrip" spec (Fault.Proxy.rules_to_string rules)
  | Error e -> Alcotest.fail e);
  List.iter
    (fun s ->
      match Fault.Proxy.rules_of_string s with
      | Ok _ -> Alcotest.failf "accepted bad rules %S" s
      | Error _ -> ())
    [ "reset"; "nuke@once"; "delay-ms:x@once"; "corrupt@sometimes" ]

(* A line-echo upstream: accepts connections and echoes every line
   back, so what the client receives is exactly what survived both
   proxy directions. *)
let with_echo_upstream f =
  let path = Filename.temp_file "faultecho" ".sock" in
  Sys.remove path;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 8;
  let stop = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        try
          while not (Atomic.get stop) do
            let c, _ = Unix.accept fd in
            ignore
              (Thread.create
                 (fun () ->
                   let ic = Unix.in_channel_of_descr c in
                   let oc = Unix.out_channel_of_descr c in
                   try
                     while true do
                       let l = input_line ic in
                       output_string oc l;
                       output_char oc '\n';
                       flush oc
                     done
                   with _ -> ( try Unix.close c with _ -> ()))
                 ())
          done
        with _ -> ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ());
      (try Unix.close fd with _ -> ());
      Thread.join th;
      try Sys.remove path with _ -> ())
    (fun () -> f (Unix.ADDR_UNIX path))

let with_proxy ?seed upstream rules f =
  let path = Filename.temp_file "faultproxy" ".sock" in
  Sys.remove path;
  let listen = Unix.ADDR_UNIX path in
  let p = Fault.Proxy.create ?seed ~listen ~upstream rules in
  let th = Thread.create Fault.Proxy.run p in
  Fun.protect
    ~finally:(fun () ->
      Fault.Proxy.shutdown p;
      Thread.join th;
      try Sys.remove path with _ -> ())
    (fun () -> f listen p)

let dial addr =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd addr;
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let send_line oc l =
  output_string oc l;
  output_char oc '\n';
  flush oc

let test_proxy_transparent () =
  with_echo_upstream (fun upstream ->
      with_proxy upstream [] (fun listen p ->
          let fd, ic, oc = dial listen in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with _ -> ())
            (fun () ->
              for i = 1 to 20 do
                let l = Printf.sprintf "{\"n\":%d,\"pad\":\"abcdef\"}" i in
                send_line oc l;
                Alcotest.(check string) "echoed verbatim" l (input_line ic)
              done;
              let s = Fault.Proxy.stats p in
              Alcotest.(check int) "20 lines up" 20 (List.assoc "lines_up" s);
              Alcotest.(check int) "nothing corrupted" 0
                (List.assoc "corrupted" s))))

(* Connections closing while new ones open: the pumps of a finished
   connection must never touch a later one, even when the kernel hands
   the later one the same fd numbers.  Every fresh connection echoes
   exactly its own line. *)
let test_proxy_connection_churn () =
  with_echo_upstream (fun upstream ->
      with_proxy upstream [] (fun listen _p ->
          for i = 1 to 300 do
            let fd, ic, oc = dial listen in
            Fun.protect
              ~finally:(fun () -> try Unix.close fd with _ -> ())
              (fun () ->
                let l = Printf.sprintf "{\"n\":%d}" i in
                send_line oc l;
                match input_line ic with
                | back -> Alcotest.(check string) "own line echoed" l back
                | exception (End_of_file | Sys_error _) ->
                    Alcotest.failf "connection %d dropped by the proxy" i)
          done))

let test_proxy_corrupt () =
  with_echo_upstream (fun upstream ->
      let rules =
        match Fault.Proxy.rules_of_string "corrupt@1-in:1" with
        | Ok r -> r
        | Error e -> Alcotest.fail e
      in
      with_proxy ~seed:5 upstream rules (fun listen p ->
          let fd, ic, oc = dial listen in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with _ -> ())
            (fun () ->
              let l = "{\"op\":\"ping\",\"payload\":\"0123456789abcdef\"}" in
              send_line oc l;
              let back = input_line ic in
              Alcotest.(check int) "length preserved" (String.length l)
                (String.length back);
              Alcotest.(check bool) "bytes flipped" true (back <> l);
              Alcotest.(check bool) "corruption counted" true
                (List.assoc "corrupted" (Fault.Proxy.stats p) > 0))))

let test_proxy_reset () =
  with_echo_upstream (fun upstream ->
      let rules =
        match Fault.Proxy.rules_of_string "reset@once" with
        | Ok r -> r
        | Error e -> Alcotest.fail e
      in
      with_proxy upstream rules (fun listen p ->
          let fd, ic, oc = dial listen in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with _ -> ())
            (fun () ->
              send_line oc "{\"op\":\"ping\"}";
              (match input_line ic with
              | exception End_of_file -> ()
              | exception Sys_error _ -> ()
              | l -> Alcotest.failf "line after reset: %S" l);
              Alcotest.(check int) "reset counted" 1
                (List.assoc "reset" (Fault.Proxy.stats p)))))

let test_proxy_determinism () =
  (* The same seed must corrupt the same byte positions: run the same
     3-line exchange twice and compare what comes back. *)
  let run () =
    with_echo_upstream (fun upstream ->
        let rules =
          match Fault.Proxy.rules_of_string "corrupt@1-in:2" with
          | Ok r -> r
          | Error e -> Alcotest.fail e
        in
        with_proxy ~seed:42 upstream rules (fun listen _p ->
            let fd, ic, oc = dial listen in
            Fun.protect
              ~finally:(fun () -> try Unix.close fd with _ -> ())
              (fun () ->
                List.map
                  (fun i ->
                    send_line oc (Printf.sprintf "{\"n\":%d,\"pad\":\"xyzw\"}" i);
                    input_line ic)
                  [ 1; 2; 3 ])))
  in
  Alcotest.(check (list string)) "same seed, same damage" (run ()) (run ())

let () =
  Alcotest.run "fault"
    [
      ( "trigger",
        [
          Alcotest.test_case "parse" `Quick test_trigger_parse;
          Alcotest.test_case "semantics" `Quick test_trigger_semantics;
        ] );
      ( "failpoint",
        [
          Alcotest.test_case "spec" `Quick test_failpoint_spec;
          Alcotest.test_case "fire/stats" `Quick test_failpoint_fire;
          Alcotest.test_case "store corrupt recovery" `Quick
            test_store_corrupt_recovery;
          Alcotest.test_case "store corrupt live reads" `Quick
            test_store_corrupt_live_reads;
          Alcotest.test_case "store fsync skip" `Quick test_store_fsync_skip;
          Alcotest.test_case "store torn append" `Quick test_store_torn_append;
          Alcotest.test_case "store torn append typed" `Quick
            test_store_torn_append_typed;
        ] );
      ( "proxy",
        [
          Alcotest.test_case "rules roundtrip" `Quick test_proxy_rules_roundtrip;
          Alcotest.test_case "transparent" `Quick test_proxy_transparent;
          Alcotest.test_case "connection churn" `Quick
            test_proxy_connection_churn;
          Alcotest.test_case "corrupt" `Quick test_proxy_corrupt;
          Alcotest.test_case "reset" `Quick test_proxy_reset;
          Alcotest.test_case "determinism" `Quick test_proxy_determinism;
        ] );
    ]
