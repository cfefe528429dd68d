(* The telemetry layer: span nesting and ordering, counter semantics,
   the observation-free guarantee (identical decider results with
   telemetry on and off), the shape of the Chrome trace-event output,
   and the bounded CSP cache's hit/miss accounting. *)

module Gen = Datagraph.Graph_gen
module Instance = Engine.Instance
module Registry = Engine.Registry

let () = Definability.Deciders.init ()

let fig1 = Gen.fig1 ()
let s2 = Gen.fig1_s2 fig1
let all_langs = [ "krem"; "ree"; "rem"; "rpq"; "ucrdpq" ]

let decide lang =
  let inst = Instance.of_binary fig1 s2 in
  let budget = Engine.Budget.create ~fuel:200_000 () in
  match Registry.decide ~budget ~params:{ Registry.k = 2 } ~lang inst with
  | Ok o -> o
  | Error msg -> Alcotest.fail msg

(* Run [f] with [sinks] installed, restoring the disabled state even if
   [f] raises — keeps one failing test from leaking observation into the
   rest of the suite. *)
let observed sinks f =
  Obs.enable sinks;
  Fun.protect ~finally:Obs.disable f

(* ---------- spans ---------- *)

let test_span_passthrough () =
  Alcotest.(check int) "value through disabled span" 42
    (Obs.Span.with_ "x" (fun () -> 42));
  Alcotest.(check int) "value through enabled span" 42
    (observed [ Obs.Sink.null ] (fun () -> Obs.Span.with_ "x" (fun () -> 42)))

let test_span_nesting () =
  let seen = ref [] in
  let sink = Obs.Sink.make (fun s -> seen := s :: !seen) in
  observed [ sink ] (fun () ->
      Obs.Span.with_ "outer" (fun () ->
          Obs.Span.with_ "inner" (fun () -> ());
          Obs.Span.with_ "inner2" (fun () -> ())));
  (* Sinks see spans at exit, innermost first. *)
  let order = List.rev_map (fun (s : Obs.span) -> s.name) !seen in
  Alcotest.(check (list string))
    "exit order" [ "inner"; "inner2"; "outer" ] order;
  let find name = List.find (fun (s : Obs.span) -> s.name = name) !seen in
  let outer = find "outer" and inner = find "inner" in
  Alcotest.(check int) "outer depth" 0 outer.depth;
  Alcotest.(check int) "inner depth" 1 inner.depth;
  Alcotest.(check bool) "inner within outer" true
    (inner.start_s >= outer.start_s && inner.stop_s <= outer.stop_s);
  List.iter
    (fun (s : Obs.span) ->
      Alcotest.(check bool) (s.name ^ " non-negative") true
        (s.stop_s >= s.start_s))
    !seen

let test_span_exception () =
  let seen = ref [] in
  let sink = Obs.Sink.make (fun s -> seen := s :: !seen) in
  (try
     observed [ sink ] (fun () ->
         Obs.Span.with_ "boom" (fun () -> failwith "no"))
   with Failure _ -> ());
  Alcotest.(check (list string))
    "span recorded on raise" [ "boom" ]
    (List.map (fun (s : Obs.span) -> s.name) !seen);
  let depth_after =
    let d = ref (-1) in
    let probe = Obs.Sink.make (fun s -> d := s.depth) in
    observed [ probe ] (fun () -> Obs.Span.with_ "probe" (fun () -> ()));
    !d
  in
  Alcotest.(check int) "depth restored after raise" 0 depth_after

let test_agg_phases () =
  let agg = Obs.Sink.Agg.create () in
  observed [ Obs.Sink.Agg.sink agg ] (fun () ->
      Obs.Span.with_ "a" (fun () -> ());
      Obs.Span.with_ "a" (fun () -> ());
      Obs.Span.with_ "b" (fun () -> ()));
  match Obs.Sink.Agg.phases agg with
  | [ ("a", 2, ta); ("b", 1, tb) ] ->
      Alcotest.(check bool) "totals non-negative" true (ta >= 0. && tb >= 0.)
  | other ->
      Alcotest.failf "unexpected phases: %s"
        (String.concat ";"
           (List.map (fun (n, c, _) -> Printf.sprintf "%s/%d" n c) other))

(* ---------- counters ---------- *)

let test_counter_semantics () =
  let c = Obs.Counter.make "test.counter" in
  Obs.Counter.incr c;
  Alcotest.(check int) "disabled incr counts" 1 (Obs.Counter.value c);
  observed [] (fun () ->
      Obs.Counter.incr c;
      Obs.Counter.incr c;
      Obs.Counter.add c 3);
  Alcotest.(check int) "monotone while enabled" 5 (Obs.Counter.value c);
  Alcotest.(check int) "value survives disable" 5 (Obs.Counter.value c);
  Alcotest.(check bool) "catalogued" true
    (List.mem_assoc "test.counter" (Obs.Counter.all ()));
  observed [] (fun () -> ());
  Alcotest.(check int) "enable resets" 0 (Obs.Counter.value c)

let test_budget_counters_flushed () =
  observed [] (fun () -> ignore (decide "rpq"));
  let v name = List.assoc name (Obs.Counter.all ()) in
  Alcotest.(check bool) "takes published" true (v "budget.takes" > 0);
  Alcotest.(check bool) "polls published" true (v "budget.deadline_polls" > 0)

(* ---------- observation-freedom ---------- *)

(* Telemetry must not change any decision: run every decider with
   telemetry off, then again under an aggregator + trace sink, and
   require byte-identical verdicts (Marshal catches any drift in
   certificates or counterexamples, not just the constructor). *)
let test_observation_free () =
  List.iter
    (fun lang ->
      Obs.disable ();
      let off = decide lang in
      let agg = Obs.Sink.Agg.create () and tr = Obs.Sink.Trace.create () in
      let on =
        observed
          [ Obs.Sink.Agg.sink agg; Obs.Sink.Trace.sink tr ]
          (fun () -> decide lang)
      in
      Alcotest.(check string)
        (lang ^ ": verdict unchanged by observation")
        (Marshal.to_string off.Engine.Outcome.verdict [])
        (Marshal.to_string on.Engine.Outcome.verdict []);
      Alcotest.(check int)
        (lang ^ ": step count unchanged by observation")
        off.stats.steps on.stats.steps;
      (* And the observed run actually observed something. *)
      Alcotest.(check bool)
        (lang ^ ": root span recorded")
        true
        (List.exists
           (fun (n, _, _) -> n = "decide." ^ lang)
           (Obs.Sink.Agg.phases agg)))
    all_langs

(* ---------- trace shape ---------- *)

(* A minimal JSON reader — just enough grammar to check the trace's
   shape without adding a JSON dependency to the test suite. *)
type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if peek () = Some c then incr pos
    else failwith (Printf.sprintf "expected %c at %d" c !pos)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | Some '"' -> incr pos
      | Some '\\' ->
          incr pos;
          (match peek () with
          | Some 'u' ->
              pos := !pos + 5;
              Buffer.add_char b '?'
          | Some c ->
              incr pos;
              Buffer.add_char b
                (match c with
                | 'n' -> '\n'
                | 't' -> '\t'
                | 'r' -> '\r'
                | c -> c)
          | None -> failwith "eof in escape");
          go ()
      | Some c ->
          incr pos;
          Buffer.add_char b c;
          go ()
      | None -> failwith "eof in string"
    in
    go ();
    Buffer.contents b
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then (
          incr pos;
          Obj [])
        else
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                fields ((k, v) :: acc)
            | Some '}' ->
                incr pos;
                Obj (List.rev ((k, v) :: acc))
            | _ -> failwith "bad object"
          in
          fields []
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then (
          incr pos;
          Arr [])
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                items (v :: acc)
            | Some ']' ->
                incr pos;
                Arr (List.rev (v :: acc))
            | _ -> failwith "bad array"
          in
          items []
    | Some 't' ->
        pos := !pos + 4;
        Bool true
    | Some 'f' ->
        pos := !pos + 5;
        Bool false
    | Some 'n' ->
        pos := !pos + 4;
        Null
    | Some _ ->
        let start = !pos in
        while
          !pos < n
          &&
          match s.[!pos] with
          | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
          | _ -> false
        do
          incr pos
        done;
        Num (float_of_string (String.sub s start (!pos - start)))
    | None -> failwith "eof"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then failwith "trailing garbage";
  v

let test_trace_shape () =
  let tr = Obs.Sink.Trace.create () in
  observed [ Obs.Sink.Trace.sink tr ] (fun () -> ignore (decide "ucrdpq"));
  let counters = Obs.Counter.all () in
  let txt = Obs.Sink.Trace.to_string ~counters tr in
  match parse_json txt with
  | Arr events ->
      Alcotest.(check bool) "non-empty" true (events <> []);
      let field k = function
        | Obj fields -> List.assoc_opt k fields
        | _ -> None
      in
      List.iter
        (fun ev ->
          (match field "name" ev with
          | Some (Str _) -> ()
          | _ -> Alcotest.fail "event without a name");
          (match field "ts" ev with
          | Some (Num ts) ->
              Alcotest.(check bool) "ts non-negative" true (ts >= 0.)
          | _ -> Alcotest.fail "event without ts");
          match field "ph" ev with
          | Some (Str "X") -> (
              match field "dur" ev with
              | Some (Num d) ->
                  Alcotest.(check bool) "dur non-negative" true (d >= 0.)
              | _ -> Alcotest.fail "complete event without dur")
          | Some (Str "C") -> (
              match field "args" ev with
              | Some (Obj [ ("value", Num _) ]) -> ()
              | _ -> Alcotest.fail "counter event without args.value")
          | _ -> Alcotest.fail "event with unexpected ph")
        events;
      (* Every registered counter and the root span show up by name. *)
      let names =
        List.filter_map
          (fun ev ->
            match field "name" ev with Some (Str s) -> Some s | _ -> None)
          events
      in
      Alcotest.(check bool) "decide span present" true
        (List.mem "decide.ucrdpq" names);
      List.iter
        (fun (cname, _) ->
          Alcotest.(check bool) (cname ^ " counter present") true
            (List.mem cname names))
        counters
  | _ -> Alcotest.fail "trace is not a JSON array"

(* The streaming sink must leave a complete, loadable JSON array even
   when the traced computation raises — the in-memory collector's
   failure mode this replaces for the CLI's --trace. *)
let test_trace_stream_survives_exception () =
  let path = Filename.temp_file "obs_stream" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  let stream = Obs.Sink.Trace.stream oc in
  (try
     observed
       [ Obs.Sink.Trace.stream_sink stream ]
       (fun () ->
         Obs.Span.with_ "outer" (fun () ->
             Obs.Span.with_ "inner" (fun () -> ());
             failwith "boom"))
   with Failure _ -> ());
  Obs.Sink.Trace.close_stream ~counters:[ ("some.counter", 7) ] stream;
  (* Idempotent: a second close (e.g. at_exit after an explicit close)
     must not corrupt the file. *)
  Obs.Sink.Trace.close_stream stream;
  close_out oc;
  let txt = In_channel.with_open_text path In_channel.input_all in
  match parse_json txt with
  | Arr events ->
      let names =
        List.filter_map
          (fun ev ->
            match ev with
            | Obj fields -> (
                match List.assoc_opt "name" fields with
                | Some (Str s) -> Some s
                | _ -> None)
            | _ -> None)
          events
      in
      List.iter
        (fun n ->
          Alcotest.(check bool) (n ^ " present") true (List.mem n names))
        [ "inner"; "outer"; "some.counter" ]
  | _ -> Alcotest.fail "streamed trace is not a JSON array"

(* ---------- bounded CSP cache ---------- *)

(* Alternating searches over two distinct graphs must both stay resident
   (the old single-slot cache thrashed: every probe but the first was a
   miss). *)
let test_csp_cache_alternation () =
  let g1 = Gen.random ~seed:11 ~n:5 ~delta:2 ~labels:[ "a" ] ~density:0.4 ()
  and g2 = Gen.random ~seed:12 ~n:5 ~delta:2 ~labels:[ "a" ] ~density:0.4 () in
  observed [] (fun () ->
      for _ = 1 to 3 do
        ignore (Definability.Hom.count g1);
        ignore (Definability.Hom.count g2)
      done);
  let counters = Obs.Counter.all () in
  let v name = List.assoc name counters in
  Alcotest.(check int) "one build per distinct graph" 2
    (v "hom.csp_cache_misses");
  Alcotest.(check int) "remaining probes hit" 4 (v "hom.csp_cache_hits")

(* ---------- the zero-sink plane ---------- *)

(* A server enables the plane with no sink unless asked to trace; spans
   then skip the lane lookup, the trace context and the sink lock.  What
   they must still keep: the depth, and enough of the span that a sink
   installed inside it receives its exit whole. *)
let test_sink_added_inside_span () =
  let seen = ref [] in
  let sink = Obs.Sink.make (fun s -> seen := s :: !seen) in
  let before = Unix.gettimeofday () in
  let added = ref 0. in
  observed [] (fun () ->
      Obs.Ctx.with_trace (Some "late-sink") (fun () ->
          Obs.Span.with_ "outer" (fun () ->
              Obs.Span.with_ "inner" (fun () ->
                  added := Unix.gettimeofday ();
                  Obs.add_sink sink))));
  Obs.remove_sink sink;
  match List.rev !seen with
  | [ inner; outer ] ->
      Alcotest.(check (list string)) "names" [ "inner"; "outer" ]
        [ inner.Obs.name; outer.Obs.name ];
      Alcotest.(check (list int)) "depths" [ 1; 0 ] [ inner.depth; outer.depth ];
      Alcotest.(check bool) "start times from entry" true
        (before <= outer.start_s && outer.start_s <= inner.start_s
        && inner.start_s <= !added && !added <= inner.stop_s);
      Alcotest.(check (list (option string))) "trace context"
        [ Some "late-sink"; Some "late-sink" ] [ inner.trace; outer.trace ];
      Alcotest.(check (list int)) "recording lane"
        [ (Domain.self () :> int); (Domain.self () :> int) ]
        [ inner.dom; outer.dom ]
  | l -> Alcotest.failf "expected two exits, got %d" (List.length l)

let test_depth_without_sinks () =
  let depth_of_probe () =
    let d = ref (-1) in
    let probe = Obs.Sink.make (fun s -> if s.Obs.name = "probe" then d := s.depth) in
    Obs.add_sink probe;
    Obs.Span.with_ "probe" (fun () -> ());
    Obs.remove_sink probe;
    !d
  in
  let inside =
    observed [] (fun () ->
        Obs.Span.with_ "a" (fun () ->
            Obs.Span.with_ "b" (fun () -> ());
            Obs.Span.with_ "c" (fun () -> Obs.Span.with_ "d" depth_of_probe)))
  in
  Alcotest.(check int) "three spans open" 3 inside;
  let after_raise =
    observed [] (fun () ->
        (try Obs.Span.with_ "boom" (fun () -> Obs.Span.with_ "deeper" (fun () -> failwith "no"))
         with Failure _ -> ());
        depth_of_probe ())
  in
  Alcotest.(check int) "depth restored after a raise" 0 after_raise

(* A server on the zero-sink plane still counts every request in one
   registry: [stats] and [metrics] render the same [service.*] counts,
   and each served decide and batch lands once in its [op.*]
   histogram. *)
let test_zero_sink_server_counts () =
  let module Wire = Service.Wire in
  let module Json = Service.Json in
  let path = Filename.temp_file "obsplane" ".sock" in
  let addr = Wire.Unix_sock path in
  observed [] (fun () ->
      let srv = Service.Server.create addr in
      let th = Thread.create Service.Server.run srv in
      Fun.protect
        ~finally:(fun () ->
          Service.Server.shutdown srv;
          Thread.join th)
        (fun () ->
          Service.Client.with_connection addr (fun conn ->
              let request r =
                match Service.Client.request conn r with
                | Ok j -> j
                | Error e -> Alcotest.fail e
              in
              let text = Datagraph.Graph_io.instance_to_string fig1 (Datagraph.Tuple_relation.of_binary s2) in
              let decide =
                Wire.Decide { lang = "rem"; k = None; fuel = None; timeout_s = None; instance = text }
              in
              ignore (request decide);
              ignore (request decide);
              ignore (request Wire.Ping);
              ignore
                (request
                   (Wire.Batch
                      { lang = "rem"; k = None; fuel = None; timeout_s = None; instances = [ text; text ] }));
              let stats =
                match Json.member "stats" (request Wire.Stats) with
                | Some (Json.Obj kvs) ->
                    List.filter_map (fun (k, v) -> Option.map (fun n -> (k, n)) (Json.to_int v)) kvs
                | _ -> Alcotest.fail "no stats object"
              in
              let snap =
                match
                  Option.bind (Json.member "data" (request Wire.Metrics)) (fun d ->
                      Result.to_option (Service.Metrics.of_json d))
                with
                | Some s -> s
                | None -> Alcotest.fail "metrics snapshot unparsable"
              in
              List.iter
                (fun (name, v) ->
                  if String.starts_with ~prefix:"service." name then begin
                    let key =
                      String.map (fun c -> if c = '.' then '_' else c)
                        (String.sub name 8 (String.length name - 8))
                    in
                    if not (List.mem key [ "requests"; "stats_ops"; "metrics_ops" ]) then
                      Alcotest.(check (option int)) name (Some v) (List.assoc_opt key stats)
                  end)
                snap.Service.Metrics.counters;
              let recorded h =
                match List.assoc_opt h snap.Service.Metrics.histograms with
                | Some s -> Obs.Histogram.total s
                | None -> 0
              in
              Alcotest.(check (option int)) "decides counted" (Some 2) (List.assoc_opt "decides" stats);
              Alcotest.(check int) "op.decide recorded per decide" 2 (recorded "op.decide");
              Alcotest.(check (option int)) "batches counted" (Some 1) (List.assoc_opt "batches" stats);
              Alcotest.(check int) "op.batch recorded per batch" 1 (recorded "op.batch"))))

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "passthrough" `Quick test_span_passthrough;
          Alcotest.test_case "nesting and order" `Quick test_span_nesting;
          Alcotest.test_case "exceptional exit" `Quick test_span_exception;
          Alcotest.test_case "aggregation" `Quick test_agg_phases;
        ] );
      ( "counters",
        [
          Alcotest.test_case "semantics" `Quick test_counter_semantics;
          Alcotest.test_case "budget flush" `Quick test_budget_counters_flushed;
        ] );
      ( "observation-freedom",
        [
          Alcotest.test_case "all deciders identical" `Quick
            test_observation_free;
        ] );
      ( "trace",
        [
          Alcotest.test_case "chrome trace shape" `Quick test_trace_shape;
          Alcotest.test_case "stream survives exceptions" `Quick
            test_trace_stream_survives_exception;
        ] );
      ( "csp-cache",
        [
          Alcotest.test_case "alternating graphs" `Quick
            test_csp_cache_alternation;
        ] );
      ( "zero-sink",
        [
          Alcotest.test_case "sink added inside a span" `Quick
            test_sink_added_inside_span;
          Alcotest.test_case "depth without sinks" `Quick test_depth_without_sinks;
          Alcotest.test_case "server counts agree" `Quick
            test_zero_sink_server_counts;
        ] );
    ]
