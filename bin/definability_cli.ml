(* defcheck — definability checking on data graphs from the command line.

   Subcommands:
     info   <instance>                 graph statistics
     eval   <graph> -l LANG -e EXPR    evaluate a query
     check  <instance> -l LANG [...]   decide definability, synthesize
     batch  <instances...> -l LANG     decide many instances, one JSON
                                       line each (Registry.decide_batch)
     watch  <instance> --edits FILE    replay a JSON edit stream through
                                       the certificate-repair fast path
     fig1                              print the paper's running example

   [check] exit codes: 0 definable, 1 not definable, 2 usage/load errors,
   4 unknown (budget exhausted).

   [--domains N] sizes the worker-domain pool (Par.Pool), which decides
   the instances of [batch] and the requests of [serve] in parallel;
   verdicts, certificates and counterexamples are identical at any pool
   size. *)

module Data_graph = Datagraph.Data_graph
module Relation = Datagraph.Relation
module Tuple_relation = Datagraph.Tuple_relation
module Budget = Engine.Budget
module Instance = Engine.Instance
module Outcome = Engine.Outcome
module Registry = Engine.Registry

let () = Definability.Deciders.init ()

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_instance path =
  match Datagraph.Graph_io.instance_of_string (read_file path) with
  | Ok (g, s) -> (g, s)
  | Error msg ->
      Printf.eprintf "error: %s: %s\n" path msg;
      exit 2

let binary_of s =
  if Tuple_relation.arity s <> 2 then begin
    Printf.eprintf "error: relation must be binary for this language\n";
    exit 2
  end
  else Tuple_relation.to_binary s

(* JSON emission and the verdict block live in [Service.Wire] now,
   shared with the server so a service [decide] response, a cache hit,
   [check --json] and [batch] all render byte-identical verdicts. *)
let json_string = Service.Wire.json_string
let json_obj = Service.Wire.json_obj
let json_verdict_fields = Service.Wire.verdict_fields

let json_of_outcome g ~lang ~budget ~phases (o : Outcome.t) =
  let stats =
    (* Telemetry renders here: the budget's fuel accounting, per-phase
       wall time from the in-memory aggregator, and the full counter
       catalogue (zeros included, so the key set is stable across
       languages). *)
    let budget_json =
      json_obj
        [
          ("used", string_of_int (Budget.used budget));
          ( "fuel",
            match Budget.fuel_limit budget with
            | Some f -> string_of_int f
            | None -> "null" );
          ("exhausted", if Budget.exhausted budget then "true" else "false");
        ]
    in
    let phases_json =
      json_obj
        (List.map
           (fun (name, calls, total_s) ->
             ( name,
               json_obj
                 [
                   ("calls", string_of_int calls);
                   ("wall_s", Printf.sprintf "%.6f" total_s);
                 ] ))
           phases)
    in
    let counters_json =
      json_obj
        (List.map (fun (name, v) -> (name, string_of_int v)) (Obs.Counter.all ()))
    in
    json_obj
      (("steps", string_of_int o.stats.steps)
      :: ("elapsed_s", Printf.sprintf "%.6f" o.stats.elapsed_s)
      :: List.map (fun (k, v) -> (k, string_of_int v)) o.stats.extras
      @ [
          ("budget", budget_json);
          ("phases", phases_json);
          ("counters", counters_json);
        ])
  in
  json_obj (json_verdict_fields g ~lang o @ [ ("stats", stats) ])

open Cmdliner

let instance_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"INSTANCE" ~doc:"Instance file (node/edge/pair lines).")

let lang_arg =
  Arg.(
    value & opt string "rem"
    & info [ "l"; "lang" ] ~docv:"LANG"
        ~doc:
          "Query language: $(b,rpq) (regular expressions), $(b,ree) \
           (regular expressions with equality), $(b,rem) (regular \
           expressions with memory), $(b,krem) (REM with at most $(b,--k) \
           registers), $(b,ucrdpq) (unions of conjunctive queries).")

let k_arg =
  Arg.(
    value & opt int 1
    & info [ "k" ] ~docv:"K" ~doc:"Register bound for $(b,krem).")

let synth_arg =
  Arg.(
    value & flag
    & info [ "s"; "synthesize" ]
        ~doc:"Print a defining query when the relation is definable.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Print the outcome as a JSON object on one line.")

let fuel_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fuel" ] ~docv:"N"
        ~doc:
          "Abort with an unknown verdict after $(docv) search steps \
           (explored tuples / closure elements / CSP nodes).")

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:"Abort with an unknown verdict after $(docv) seconds.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON file of the decision's phases \
           and counters to $(docv), loadable in chrome://tracing or \
           Perfetto.")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Size of the worker-domain pool (default: the \
           $(b,PAR_DOMAINS) environment variable, else 1 = fully \
           sequential).  The pool decides the instances of $(b,batch) \
           and the requests of $(b,serve) in parallel; $(b,check) and \
           $(b,watch) decide on the calling domain at any size, since \
           every search is sequential.  Verdicts, certificates and \
           counterexamples are identical at any pool size.")

let set_domains = function
  | None -> ()
  | Some n ->
      if n < 1 then begin
        Printf.eprintf "error: --domains must be at least 1\n";
        exit 2
      end;
      Par.Pool.set_size n

let info_cmd =
  let run path =
    let g, s = load_instance path in
    Format.printf "nodes: %d@." (Data_graph.size g);
    Format.printf "edges: %d@." (Data_graph.edge_count g);
    Format.printf "alphabet: %s@." (String.concat " " (Data_graph.alphabet g));
    Format.printf "distinct data values (delta): %d@." (Data_graph.delta g);
    Format.printf "relation arity: %d, tuples: %d@."
      (Tuple_relation.arity s) (Tuple_relation.cardinal s)
  in
  Cmd.v (Cmd.info "info" ~doc:"Print statistics of an instance file.")
    Term.(const run $ instance_arg)

let expr_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "e"; "expr" ] ~docv:"EXPR" ~doc:"Query expression.")

let eval_cmd =
  let run path lang expr =
    let g, _ = load_instance path in
    let lang =
      match lang with
      | "rpq" -> `Rpq
      | "ree" -> `Ree
      | "rem" | "krem" -> `Rem
      | other ->
          Printf.eprintf
            "error: eval supports rpq/ree/rem expressions, not %s\n" other;
          exit 2
    in
    match Query_lang.Query.parse ~lang expr with
    | Error msg ->
        Printf.eprintf "parse error: %s\n" msg;
        exit 2
    | Ok q ->
        let r = Query_lang.Query.eval g q in
        Format.printf "%a@." (Relation.pp g) r
  in
  Cmd.v
    (Cmd.info "eval" ~doc:"Evaluate a query expression on a data graph.")
    Term.(const run $ instance_arg $ lang_arg $ expr_arg)

let check_cmd =
  let run path lang k synth json fuel timeout trace domains =
    set_domains domains;
    let g, s = load_instance path in
    (* Telemetry is always on for a check: the aggregator feeds the
       [stats] block of --json, and --trace additionally collects the
       raw spans.  One decision's worth of observation is far below the
       cost of the decision itself. *)
    let agg = Obs.Sink.Agg.create () in
    (* The trace streams to the file as spans complete, and closing the
       JSON array is registered with [at_exit] — which also runs on
       [exit 2] paths and uncaught exceptions — so an aborted check
       still leaves a Perfetto-loadable trace, never a truncated one. *)
    let tracer =
      Option.map
        (fun path ->
          let oc = open_out path in
          let stream = Obs.Sink.Trace.stream oc in
          at_exit (fun () ->
              Obs.Sink.Trace.close_stream ~counters:(Obs.Counter.all ()) stream;
              close_out_noerr oc);
          stream)
        trace
    in
    Obs.enable
      (Obs.Sink.Agg.sink agg
      ::
      (match tracer with
      | Some t -> [ Obs.Sink.Trace.stream_sink t ]
      | None -> []));
    let write_trace () =
      Obs.disable ();
      match tracer with
      | Some t -> Obs.Sink.Trace.close_stream ~counters:(Obs.Counter.all ()) t
      | None -> ()
    in
    let inst =
      match Instance.create g s with
      | Ok inst -> inst
      | Error msg ->
          Printf.eprintf "error: %s: %s\n" path msg;
          exit 2
    in
    (* Always run under a budget (unlimited when no flag is given) so
       fuel accounting is reportable in the stats block. *)
    let budget = Budget.create ?fuel ?deadline_s:timeout () in
    let outcome =
      match
        Registry.decide ~budget ~params:{ Registry.k } ~lang inst
      with
      | Ok o -> o
      | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          exit 2
    in
    (match outcome.verdict with
    | Outcome.Unknown (Outcome.Unsupported msg) when not json ->
        Printf.eprintf "error: %s\n" msg;
        exit 2
    | _ -> ());
    if json then
      print_endline
        (json_of_outcome g ~lang ~budget
           ~phases:(Obs.Sink.Agg.phases agg)
           outcome)
    else begin
      List.iter
        (fun (key, v) -> Format.printf "%s: %d@." key v)
        outcome.stats.extras;
      match outcome.verdict with
      | Outcome.Definable cert ->
          Format.printf "definable: yes@.";
          if synth then begin
            match Outcome.check_certificate inst cert with
            | Ok () ->
                Format.printf "query: %s@." (Outcome.certificate_to_string cert)
            | Error msg ->
                Printf.eprintf "error: synthesized query failed checking: %s\n"
                  msg;
                exit 2
          end
      | Outcome.Not_definable (Outcome.Missing_pairs pairs) ->
          Format.printf "definable: no@.";
          Format.printf "pairs with no witness:";
          List.iter
            (fun (u, v) ->
              Format.printf " (%s,%s)" (Data_graph.name g u)
                (Data_graph.name g v))
            pairs;
          Format.printf "@."
      | Outcome.Not_definable (Outcome.Violating_hom { hom; tuple }) ->
          Format.printf "definable: no@.";
          Format.printf "violating homomorphism: %a@."
            (Definability.Hom.pp g) hom;
          Format.printf "tuple leaving the relation: (%s)@."
            (String.concat "," (List.map (Data_graph.name g) tuple))
      | Outcome.Unknown Outcome.Budget_exhausted ->
          Format.printf "definable: unknown (budget exhausted after %d tuples)@."
            outcome.stats.steps
      | Outcome.Unknown (Outcome.Unsupported _) -> assert false
    end;
    write_trace ();
    match outcome.verdict with
    | Outcome.Definable _ -> exit 0
    | Outcome.Not_definable _ -> exit 1
    | Outcome.Unknown Outcome.Budget_exhausted -> exit 4
    | Outcome.Unknown (Outcome.Unsupported _) -> exit 2
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Decide whether the instance's relation is definable in a query \
          language.")
    Term.(
      const run $ instance_arg $ lang_arg $ k_arg $ synth_arg $ json_arg
      $ fuel_arg $ timeout_arg $ trace_arg $ domains_arg)

let batch_cmd =
  let run paths lang k fuel timeout domains =
    set_domains domains;
    (* A missing or unparsable instance file yields one JSON error line
       (and exit-code contribution 2) instead of aborting the batch: the
       other instances still get their verdicts, in input order. *)
    let loaded =
      List.map
        (fun path ->
          match (try Ok (read_file path) with Sys_error msg -> Error msg) with
          | Error msg -> (path, Error msg)
          | Ok text -> (
              match Datagraph.Graph_io.instance_of_string text with
              | Error msg -> (path, Error msg)
              | Ok (g, s) -> (
                  match Instance.create g s with
                  | Ok inst -> (path, Ok (g, inst))
                  | Error msg -> (path, Error msg))))
        paths
    in
    let make_budget () = Budget.create ?fuel ?deadline_s:timeout () in
    let results =
      Registry.decide_batch ~make_budget ~params:{ Registry.k } ~lang
        (List.filter_map
           (fun (_, r) -> Result.to_option (Result.map snd r))
           loaded)
    in
    (* One JSON line per instance, in input order (decide_batch
       preserves it regardless of pool size); decided results re-align
       with the loadable subset of the inputs. *)
    let worst = ref 0 in
    let error_line path msg =
      print_endline
        (json_obj [ ("file", json_string path); ("error", json_string msg) ]);
      worst := max !worst 2
    in
    let rec emit loaded results =
      match (loaded, results) with
      | [], [] -> ()
      | (path, Error msg) :: loaded, results ->
          error_line path msg;
          emit loaded results
      | (path, Ok (g, _)) :: loaded, result :: results ->
          (match result with
          | Error msg -> error_line path msg
          | Ok (o : Outcome.t) ->
              print_endline
                (json_obj
                   (("file", json_string path) :: json_verdict_fields g ~lang o));
              let code =
                match o.verdict with
                | Outcome.Definable _ -> 0
                | Outcome.Not_definable _ -> 1
                | Outcome.Unknown Outcome.Budget_exhausted -> 4
                | Outcome.Unknown (Outcome.Unsupported _) -> 2
              in
              worst := max !worst code);
          emit loaded results
      | (_, Ok _) :: _, [] | [], _ :: _ -> assert false
    in
    emit loaded results;
    exit !worst
  in
  let instances_arg =
    (* [string], not [file]: existence is checked at load time so a
       missing file becomes a per-line error object, not a usage error. *)
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"INSTANCE" ~doc:"Instance files to decide.")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Decide many instances in one run, fanned out over the domain \
          pool; prints one JSON verdict object per line, in input order. \
          Exit code is the worst per-instance check exit code.")
    Term.(
      const run $ instances_arg $ lang_arg $ k_arg $ fuel_arg $ timeout_arg
      $ domains_arg)

let census_cmd =
  let run path max_k sample =
    let g, _ = load_instance path in
    let c = Definability.Census.binary ~max_k ?sample g in
    Format.printf "%a@." Definability.Census.pp c
  in
  let max_k_arg =
    Arg.(value & opt int 1 & info [ "max-k" ] ~docv:"K"
           ~doc:"Largest register bound column.")
  in
  let sample_arg =
    Arg.(value & opt (some int) None
         & info [ "sample" ] ~docv:"N"
             ~doc:"Sample N random relations instead of enumerating all.")
  in
  Cmd.v
    (Cmd.info "census"
       ~doc:
         "Count how many binary relations of the graph each query language           can define.")
    Term.(const run $ instance_arg $ max_k_arg $ sample_arg)

let fit_cmd =
  let run path =
    let g, s = load_instance path in
    let s = binary_of s in
    let outcomes = Definability.Schema_mapping.fit g [ ("target", s) ] in
    List.iter
      (fun o ->
        Format.printf "%a@." (Definability.Schema_mapping.pp_outcome g) o)
      outcomes
  in
  Cmd.v
    (Cmd.info "fit"
       ~doc:
         "Fit the instance's relation with the least expressive language           that defines it and print the mapping rule.")
    Term.(const run $ instance_arg)

let dot_cmd =
  let run path =
    let g, s = load_instance path in
    print_string (Datagraph.Graph_io.to_dot ~relation:s g)
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Print the instance as a Graphviz digraph.")
    Term.(const run $ instance_arg)

let fig1_cmd =
  let run () =
    let g = Datagraph.Graph_gen.fig1 () in
    let s = Datagraph.Graph_gen.fig1_s2 g in
    print_string
      (Datagraph.Graph_io.instance_to_string g (Tuple_relation.of_binary s))
  in
  Cmd.v
    (Cmd.info "fig1"
       ~doc:
         "Print the paper's Figure 1 graph with relation S2 as an instance \
          file.")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* Incremental mode: [watch] replays a JSON edit stream against an
   instance, deciding each step through the certificate-repair fast
   path (Engine.Delta) and reporting per-step repair hits/misses. *)

let read_lines = function
  | "-" ->
      let rec go acc =
        match input_line stdin with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go []
  | path ->
      String.split_on_char '\n' (read_file path)

let watch_cmd =
  let run path edits_path lang k fuel timeout domains =
    set_domains domains;
    let g, s = load_instance path in
    let inst =
      match Instance.create g s with
      | Ok inst -> inst
      | Error msg ->
          Printf.eprintf "error: %s: %s\n" path msg;
          exit 2
    in
    (* Budgets are single-use; each step (and the cold start) gets a
       fresh one from the same flags. *)
    let budget () = Budget.create ?fuel ?deadline_s:timeout () in
    let prev =
      match
        Registry.decide ~budget:(budget ()) ~params:{ Registry.k } ~lang inst
      with
      | Ok o -> o
      | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          exit 2
    in
    let emit step ?edit ?repair (inst : Instance.t) (o : Outcome.t) =
      print_endline
        (json_obj
           ([ ("step", string_of_int step) ]
           @ (match edit with None -> [] | Some e -> [ ("edit", e) ])
           @ (match repair with
             | None -> []
             | Some r -> [ ("repair", json_string r) ])
           @ [
               ( "result",
                 Service.Wire.verdict_to_string (Instance.graph inst) ~lang o );
             ]))
    in
    emit 0 inst prev;
    let hits = ref 0 and misses = ref 0 in
    let rec go step prev inst = function
      | [] -> ()
      | line :: rest when String.trim line = "" -> go step prev inst rest
      | line :: rest -> (
          let fail msg =
            Printf.eprintf "error: edit %d: %s\n" step msg;
            exit 2
          in
          match Service.Wire.edit_of_string line with
          | Error msg -> fail msg
          | Ok edit -> (
              match Service.Wire.resolve_edit (Instance.graph inst) edit with
              | Error msg -> fail msg
              | Ok gedit -> (
                  match
                    Engine.Delta.decide_delta ~budget:(budget ())
                      ~params:{ Registry.k } ~lang ~prev inst gedit
                  with
                  | Error msg -> fail msg
                  | Ok { Engine.Delta.inst = inst'; outcome; repaired } ->
                      incr (if repaired then hits else misses);
                      emit step
                        ~edit:(Service.Wire.edit_to_json_string edit)
                        ~repair:(if repaired then "hit" else "miss")
                        inst' outcome;
                      go (step + 1) outcome inst' rest)))
    in
    go 1 prev inst (read_lines edits_path);
    print_endline
      (json_obj
         [
           ("edits", string_of_int (!hits + !misses));
           ("repair_hits", string_of_int !hits);
           ("repair_misses", string_of_int !misses);
         ])
  in
  let edits_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "edits" ] ~docv:"FILE"
          ~doc:
            "Edit stream: one JSON edit object per line (as in the wire \
             protocol's $(b,delta) op), e.g. \
             {\"edit\":\"add_edge\",\"u\":\"v0\",\"label\":\"a\",\"v\":\"v3\"}. \
             Use $(b,-) for stdin.")
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:
         "Replay a JSON edit stream against an instance: decide the \
          initial instance cold, then decide each edited instance through \
          the certificate-repair fast path, printing one JSON line per \
          step ($(b,repair) = hit/miss) and a trailing summary with the \
          repair hit counts.")
    Term.(
      const run $ instance_arg $ edits_arg $ lang_arg $ k_arg $ fuel_arg
      $ timeout_arg $ domains_arg)

(* ------------------------------------------------------------------ *)
(* Definability as a service: [serve] runs the long-lived server with
   the cross-request cache; [client] speaks the Wire protocol to it. *)

let parse_address s =
  let prefix p =
    String.length s > String.length p && String.sub s 0 (String.length p) = p
  in
  let after p = String.sub s (String.length p) (String.length s - String.length p) in
  if prefix "unix:" then Ok (Service.Wire.Unix_sock (after "unix:"))
  else if prefix "tcp:" then
    let rest = after "tcp:" in
    match String.rindex_opt rest ':' with
    | None -> Error "tcp address must be tcp:HOST:PORT"
    | Some i -> (
        let host = String.sub rest 0 i in
        let port = String.sub rest (i + 1) (String.length rest - i - 1) in
        match int_of_string_opt port with
        | Some p when p > 0 && p < 65536 -> Ok (Service.Wire.Tcp (host, p))
        | _ -> Error "tcp port must be in 1..65535")
  else Ok (Service.Wire.Unix_sock s)

let address_of s =
  match parse_address s with
  | Ok a -> a
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 2

let address_arg =
  Arg.(
    value
    & opt string "unix:/tmp/defcheck.sock"
    & info [ "a"; "address" ] ~docv:"ADDR"
        ~doc:
          "Server address: $(b,unix:PATH), $(b,tcp:HOST:PORT), or a bare \
           path (taken as a Unix-domain socket).")

let parse_shard s =
  match String.index_opt s '/' with
  | None -> Error "shard must be I/N (e.g. 0/2)"
  | Some i -> (
      match
        ( int_of_string_opt (String.sub s 0 i),
          int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) )
      with
      | Some idx, Some n when n >= 1 && idx >= 0 && idx < n -> Ok (idx, n)
      | _ -> Error "shard must be I/N with 0 <= I < N")

(* The long-running processes (serve, route) share one observability
   setup: the span plane is always on — request-scoped sinks (streaming
   progress, [--slow-ms] phase breakdowns) attach to it per request —
   and [--trace] installs a streaming Chrome trace tagged with the
   process name.  When tracing, SIGTERM/SIGINT are rerouted through
   [exit] so the at_exit close writes the closing bracket: a killed
   server still leaves a loadable trace. *)
let enable_service_plane ~process trace =
  let tracer =
    Option.map
      (fun path ->
        let oc = open_out path in
        let stream = Obs.Sink.Trace.stream ~process oc in
        at_exit (fun () ->
            Obs.Sink.Trace.close_stream ~counters:(Obs.Counter.all ()) stream;
            close_out_noerr oc);
        List.iter
          (fun s ->
            try Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 0))
            with Invalid_argument _ | Sys_error _ -> ())
          [ Sys.sigterm; Sys.sigint ];
        stream)
      trace
  in
  Obs.enable
    (match tracer with
    | Some t -> [ Obs.Sink.Trace.stream_sink t ]
    | None -> [])

let slow_ms_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "slow-ms" ] ~docv:"MS"
        ~doc:
          "Slow-request log: every work request whose wall time is at \
           least $(docv) milliseconds emits one JSON line on stderr with \
           its trace id, op, digest and phase breakdown.")

let serve_cmd =
  let run addr domains fuel timeout max_inflight queue_depth cache_size store
      fsync auto_compact shard trace slow_ms idle_timeout failpoints
      fault_seed =
    set_domains domains;
    let addr = address_of addr in
    (match Fault.Failpoint.arm ~seed:fault_seed failpoints with
    | Ok () -> ()
    | Error msg ->
        Printf.eprintf "error: --failpoints: %s\n" msg;
        exit 2);
    if max_inflight < 1 || queue_depth < 0 || cache_size < 1 then begin
      Printf.eprintf
        "error: need --max-inflight >= 1, --queue-depth >= 0, --cache-size >= 1\n";
      exit 2
    end;
    let fsync =
      match Store.Log.fsync_policy_of_string fsync with
      | Ok p -> p
      | Error msg ->
          Printf.eprintf "error: --fsync: %s\n" msg;
          exit 2
    in
    let shard =
      Option.map
        (fun s ->
          match parse_shard s with
          | Ok sh -> sh
          | Error msg ->
              Printf.eprintf "error: --shard: %s\n" msg;
              exit 2)
        shard
    in
    let config =
      {
        Service.Server.max_inflight;
        queue_depth;
        default_fuel = fuel;
        default_deadline_s = timeout;
        cache = { Service.Cache.verdict_capacity = cache_size };
        store_dir = store;
        fsync;
        auto_compact_bytes = auto_compact;
        shard;
        export_limit = Service.Server.default_config.export_limit;
        slow_ms;
        slow_log = Service.Server.default_config.slow_log;
        idle_timeout_s = idle_timeout;
      }
    in
    (* Enable telemetry for the server's lifetime so the service.*
       counters and op histograms accumulate (served back by the
       [metrics] op); --trace streams every span to a Chrome trace. *)
    enable_service_plane
      ~process:
        (match shard with
        | Some (i, n) -> Printf.sprintf "defcheck serve %d/%d" i n
        | None -> "defcheck serve")
      trace;
    match Service.Server.create ~config addr with
    | exception Failure msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 2
    | exception Unix.Unix_error (e, _, arg) ->
        Printf.eprintf "error: cannot listen on %s: %s (%s)\n"
          (Service.Wire.address_to_string addr)
          (Unix.error_message e) arg;
        exit 2
    | server ->
        Printf.eprintf
          "defcheck: serving on %s (domains %d, inflight <= %d, queue <= %d%s%s)\n%!"
          (Service.Wire.address_to_string addr)
          (Par.Pool.size ()) max_inflight queue_depth
          (match config.store_dir with
          | Some dir -> Printf.sprintf ", store %s" dir
          | None -> "")
          (match config.shard with
          | Some (i, n) -> Printf.sprintf ", shard %d/%d" i n
          | None -> "");
        Service.Server.run server
  in
  let max_inflight_arg =
    Arg.(
      value & opt int 4
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:"Concurrent work requests (decide/batch) executing at once.")
  in
  let queue_depth_arg =
    Arg.(
      value & opt int 16
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:
            "Work requests allowed to wait for a slot; beyond this the \
             server answers $(b,overloaded) immediately.")
  in
  let cache_size_arg =
    Arg.(
      value & opt int 1024
      & info [ "cache-size" ] ~docv:"N"
          ~doc:"Verdict-cache capacity (LRU entries); also bounds the request-text memo.")
  in
  let store_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Durable verdict store directory (created if missing).  The \
             store is recovered on startup and verdicts survive restarts; a \
             stored certificate is checked on its first hit, like any cached \
             one.")
  in
  let fsync_arg =
    Arg.(
      value & opt string "every:64"
      & info [ "fsync" ] ~docv:"POLICY"
          ~doc:
            "Store durability: $(b,never), $(b,always), or $(b,every:N) \
             (sync after every N appends).")
  in
  let auto_compact_arg =
    Arg.(
      value & opt int 0
      & info [ "auto-compact-bytes" ] ~docv:"BYTES"
          ~doc:
            "Compact the store automatically when its log outgrows this \
             many bytes (0 = only on the $(b,compact) op).")
  in
  let shard_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "shard" ] ~docv:"I/N"
          ~doc:
            "This process's shard identity in a sharded deployment (e.g. \
             $(b,0/2)); informational, reported in $(b,stats).")
  in
  let idle_timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "idle-timeout-s" ] ~docv:"SECONDS"
          ~doc:
            "Close a keep-alive connection whose next request does not \
             arrive within $(docv) seconds, so idle clients stop holding \
             a handler thread each (default: wait forever).")
  in
  let failpoints_arg =
    Arg.(
      value & opt string ""
      & info [ "failpoints" ] ~docv:"SPEC"
          ~doc:
            "Arm deterministic failpoints for chaos testing: \
             comma-separated $(i,NAME=TRIGGER) with triggers $(b,once), \
             $(b,after:K) or $(b,1-in:N) — e.g. \
             $(b,store.append.corrupt=1-in:50).  Sites: \
             $(b,store.append.corrupt), $(b,store.append.torn), \
             $(b,store.fsync.skip), $(b,server.admit.overload).")
  in
  let fault_seed_arg =
    Arg.(
      value & opt int 0
      & info [ "fault-seed" ] ~docv:"N"
          ~doc:"Seed for the failpoint trigger schedule (deterministic).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the definability server: newline-delimited JSON requests \
          over a Unix or TCP socket, verdicts answered from a \
          content-addressed cache when the same instance was decided \
          before.  $(b,--store) adds a durable tier under the in-memory \
          cache.  $(b,--fuel)/$(b,--timeout) set default budgets for \
          requests that carry none.")
    Term.(
      const run $ address_arg $ domains_arg $ fuel_arg $ timeout_arg
      $ max_inflight_arg $ queue_depth_arg $ cache_size_arg $ store_arg
      $ fsync_arg $ auto_compact_arg $ shard_arg $ trace_arg $ slow_ms_arg
      $ idle_timeout_arg $ failpoints_arg $ fault_seed_arg)

(* [client] defaults to no retries; [route] to the router's own
   default, since a router is often started just before its shards. *)
let retries_arg default =
  Arg.(
    value & opt int default
    & info [ "connect-retries" ] ~docv:"N"
        ~doc:
          "Retry a refused connect up to $(docv) times with exponential \
           backoff — covers a server that is milliseconds from binding.")

let backoff_arg =
  Arg.(
    value & opt float 0.05
    & info [ "retry-backoff" ] ~docv:"SECONDS"
        ~doc:"Initial backoff between connect retries (doubles each try).")

let client_cmd =
  let run addr op paths lang k fuel timeout ms digest edit retries backoff
      trace_id progress =
    let addr = address_of addr in
    let conn =
      match Service.Client.connect ~retries ~backoff_s:backoff addr with
      | conn -> conn
      | exception Unix.Unix_error (e, _, _) ->
          Printf.eprintf "error: cannot connect to %s: %s\n"
            (Service.Wire.address_to_string addr)
            (Unix.error_message e);
          exit 2
    in
    Fun.protect
      ~finally:(fun () -> Service.Client.close conn)
      (fun () ->
        let worst = ref 0 in
        (* The envelope rides on every request of the session: a trace
           id joins the server's spans to this invocation, [--progress]
           asks for interim frames (rendered on stderr so stdout stays
           one verbatim response line per request, as before). *)
        let envelope =
          { Service.Wire.trace_id; parent_span = None; stream = progress }
        in
        let exchange req =
          let line = Service.Wire.request_line ~envelope req in
          match
            if progress then
              Service.Client.request_stream conn
                ~on_progress:(fun frame -> Printf.eprintf "%s\n%!" frame)
                line
            else Service.Client.request_raw conn line
          with
          | Error msg ->
              Printf.eprintf "error: %s\n" msg;
              exit 2
          | Ok line -> (
              (* The response line is printed verbatim — scripts parse it
                 with jq; the exit code summarizes the status field. *)
              print_endline line;
              let status =
                Result.to_option (Service.Json.parse line)
                |> fun j ->
                Option.bind j (Service.Json.member "status")
                |> fun s -> Option.bind s Service.Json.to_str
              in
              match status with
              | Some "ok" -> ()
              (* Retryable conditions (back off and try again) share an
                 exit code distinct from hard errors. *)
              | Some "overloaded" | Some "unavailable" ->
                  worst := max !worst 3
              | Some _ | None -> worst := max !worst 2)
        in
        let need_files what =
          if paths = [] then begin
            Printf.eprintf "error: %s needs at least one instance file\n" what;
            exit 2
          end
        in
        let read path =
          match read_file path with
          | text -> Ok text
          | exception Sys_error msg -> Error msg
        in
        (match op with
        | "ping" -> exchange Service.Wire.Ping
        | "stats" -> exchange Service.Wire.Stats
        | "metrics" -> exchange Service.Wire.Metrics
        | "shutdown" -> exchange Service.Wire.Shutdown
        | "compact" -> exchange Service.Wire.Compact
        | "sleep" -> exchange (Service.Wire.Sleep { ms })
        | "decide" ->
            need_files "decide";
            List.iter
              (fun path ->
                match read path with
                | Error msg ->
                    Printf.eprintf "error: %s\n" msg;
                    worst := max !worst 2
                | Ok instance ->
                    exchange
                      (Service.Wire.Decide
                         { lang; k = Some k; fuel; timeout_s = timeout; instance }))
              paths
        | "batch" -> (
            need_files "batch";
            let instances =
              List.fold_right
                (fun path acc ->
                  Result.bind acc (fun acc ->
                      Result.map (fun text -> text :: acc) (read path)))
                paths (Ok [])
            in
            match instances with
            | Error msg ->
                Printf.eprintf "error: %s\n" msg;
                exit 2
            | Ok instances ->
                exchange
                  (Service.Wire.Batch
                     { lang; k = Some k; fuel; timeout_s = timeout; instances }))
        | "delta" -> (
            match (digest, edit) with
            | Some digest, Some edit_text -> (
                match Service.Wire.edit_of_string edit_text with
                | Error msg ->
                    Printf.eprintf "error: --edit: %s\n" msg;
                    exit 2
                | Ok edit ->
                    exchange
                      (Service.Wire.Delta
                         { lang; k = Some k; fuel; timeout_s = timeout; digest; edit }))
            | _ ->
                Printf.eprintf "error: delta needs --digest and --edit\n";
                exit 2)
        | other ->
            Printf.eprintf
              "error: unknown op %S \
               (ping|stats|metrics|shutdown|compact|sleep|decide|batch|delta)\n"
              other;
            exit 2);
        exit !worst)
  in
  let op_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"OP"
          ~doc:
            "One of $(b,ping), $(b,stats), $(b,metrics), $(b,shutdown), \
             $(b,compact), $(b,sleep), $(b,decide), $(b,batch), \
             $(b,delta).")
  in
  let trace_id_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-id" ] ~docv:"ID"
          ~doc:
            "Tag every request of this invocation with a distributed \
             trace id; the server's (and, through a router, the owning \
             shard's) spans carry it, so $(b,trace-merge) and Perfetto \
             queries can follow one request across processes.")
  in
  let progress_arg =
    Arg.(
      value & flag
      & info [ "progress" ]
          ~doc:
            "Ask the server to stream interim progress frames (phase \
             enter/exit, counter deltas) while it works; frames are \
             printed to stderr as they arrive, the final response to \
             stdout exactly as without the flag.")
  in
  let files_arg =
    Arg.(
      value & pos_right 0 string []
      & info [] ~docv:"INSTANCE"
          ~doc:"Instance files (for $(b,decide) and $(b,batch)).")
  in
  let ms_arg =
    Arg.(
      value & opt int 100
      & info [ "ms" ] ~docv:"MS"
          ~doc:"Duration for the $(b,sleep) diagnostic op.")
  in
  let digest_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "digest" ] ~docv:"HEX"
          ~doc:
            "For $(b,delta): the instance digest a previous $(b,decide) or \
             $(b,delta) response carried.")
  in
  let edit_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "edit" ] ~docv:"JSON"
          ~doc:
            "For $(b,delta): one JSON edit object, e.g. \
             {\"edit\":\"add_edge\",\"u\":\"v0\",\"label\":\"a\",\"v\":\"v3\"}.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send one operation to a running definability server and print \
          each response line verbatim.  Exit code: 0 ok, 2 error, 3 \
          overloaded.")
    Term.(
      const run $ address_arg $ op_arg $ files_arg $ lang_arg $ k_arg
      $ fuel_arg $ timeout_arg $ ms_arg $ digest_arg $ edit_arg $ retries_arg 0
      $ backoff_arg $ trace_id_arg $ progress_arg)

let route_cmd =
  let run addr shards vnodes warm retries backoff trace shard_timeout_ms
      unhealthy_after health_cooldown =
    let addr = address_of addr in
    if shards = [] then begin
      Printf.eprintf "error: route needs at least one shard address\n";
      exit 2
    end;
    (* Shard names are positional ([shard0], [shard1], …): what feeds
       the ring, so the order of the addresses is the placement. *)
    let shards =
      List.mapi (fun i a -> (Printf.sprintf "shard%d" i, address_of a)) shards
    in
    let config =
      {
        Service.Router.default_config with
        Service.Router.vnodes;
        connect_retries = retries;
        retry_backoff_s = backoff;
        shard_timeout_s =
          Option.map (fun ms -> float_of_int ms /. 1000.) shard_timeout_ms;
        unhealthy_after;
        health_cooldown_s = health_cooldown;
      }
    in
    enable_service_plane ~process:"defcheck route" trace;
    match Service.Router.create ~config ~shards addr with
    | exception Unix.Unix_error (e, _, arg) ->
        Printf.eprintf "error: cannot listen on %s: %s (%s)\n"
          (Service.Wire.address_to_string addr)
          (Unix.error_message e) arg;
        exit 2
    | router ->
        Printf.eprintf "defcheck: routing %s over %s\n%!"
          (Service.Wire.address_to_string addr)
          (String.concat ", "
             (List.map
                (fun (n, a) ->
                  Printf.sprintf "%s=%s" n (Service.Wire.address_to_string a))
                shards));
        if warm > 0 then
          (match Service.Router.rebalance router ~limit:warm () with
          | Ok moved ->
              Printf.eprintf "defcheck: warm transfer moved %d entries\n%!" moved
          | Error msg ->
              Printf.eprintf "warning: warm transfer failed: %s\n%!" msg);
        Service.Router.run router
  in
  let shards_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"SHARD_ADDR"
          ~doc:
            "Shard server addresses, in ring order (same syntax as \
             $(b,--address)).")
  in
  let vnodes_arg =
    Arg.(
      value & opt int 64
      & info [ "vnodes" ] ~docv:"N"
          ~doc:"Virtual ring points per shard.")
  in
  let warm_arg =
    Arg.(
      value & opt int 0
      & info [ "warm" ] ~docv:"N"
          ~doc:
            "On startup, warm-transfer up to $(docv) hot entries per shard \
             onto the shard the ring says owns them (0 = off) — the join \
             path for a shard that starts empty.")
  in
  let shard_timeout_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "shard-timeout-ms" ] ~docv:"MS"
          ~doc:
            "Per-request deadline on shard connections: a shard that does \
             not answer within $(docv) milliseconds yields a typed \
             $(b,shard_unavailable) response instead of stalling the \
             client forever (default: wait forever).")
  in
  let unhealthy_after_arg =
    Arg.(
      value & opt int 3
      & info [ "unhealthy-after" ] ~docv:"K"
          ~doc:
            "Mark a shard unhealthy after $(docv) consecutive forward \
             failures; requests to it then fail fast until the cooldown \
             lapses.")
  in
  let health_cooldown_arg =
    Arg.(
      value & opt float 1.0
      & info [ "health-cooldown-s" ] ~docv:"SECONDS"
          ~doc:
            "How long an unhealthy mark lasts before the next routed \
             request probes the shard again.")
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:
         "Run the shard router: consistent-hashes $(b,decide)/$(b,delta)/\
          $(b,batch) requests over N running $(b,serve --shard) processes \
          by instance digest, aggregates $(b,stats), fans out \
          $(b,compact) and $(b,shutdown).  Responses relay the owning \
          shard's bytes verbatim.  Client connections are served like a \
          shard's: sealed requests are checked and refused lines count \
          in the router's $(b,errors) stat.")
    Term.(
      const run $ address_arg $ shards_arg $ vnodes_arg $ warm_arg
      $ retries_arg Service.Router.default_config.connect_retries
      $ backoff_arg $ trace_arg $ shard_timeout_arg
      $ unhealthy_after_arg $ health_cooldown_arg)

(* Stitch per-process Chrome trace files (each traced relative to its
   own start) onto one shared timeline: every stream opens with a
   clock_sync metadata event carrying its absolute origin in unix epoch
   microseconds; shifting each file's timestamps by its origin minus
   the earliest origin lines all processes up, and giving each file its
   own pid renders them as separate process tracks in Perfetto.  Spans
   tagged with a shared trace_id then read as one distributed request
   crossing process lanes. *)
let trace_merge_cmd =
  let run inputs output =
    let module J = Service.Json in
    if inputs = [] then begin
      Printf.eprintf "error: trace-merge needs at least one trace file\n";
      exit 2
    end;
    let die fmt =
      Printf.ksprintf
        (fun m ->
          Printf.eprintf "error: %s\n" m;
          exit 2)
        fmt
    in
    let events_of path =
      match read_file path with
      | exception Sys_error msg -> die "%s" msg
      | text -> (
          match J.parse text with
          | Error msg -> die "%s: %s" path msg
          | Ok (J.List events) -> events
          | Ok _ -> die "%s: not a Chrome trace array" path)
    in
    let str_field name ev = Option.bind (J.member name ev) J.to_str in
    let epoch_of path events =
      match
        List.find_map
          (fun ev ->
            if str_field "name" ev = Some "clock_sync" then
              Option.bind (J.member "args" ev) (fun a ->
                  Option.bind (J.member "unix_epoch_us" a) J.to_float)
            else None)
          events
      with
      | Some e -> e
      | None ->
          die "%s: no clock_sync event (is this a --trace streamed file?)" path
    in
    let files = List.map (fun p -> (p, events_of p)) inputs in
    let epochs = List.map (fun (p, evs) -> epoch_of p evs) files in
    let origin = List.fold_left Float.min infinity epochs in
    let set k v fields =
      if List.mem_assoc k fields then
        List.map
          (fun (k', v') -> if String.equal k' k then (k, v) else (k', v'))
          fields
      else fields @ [ (k, v) ]
    in
    (* Per file: drop the clock_sync (consumed here), give every event
       the file's pid, shift non-metadata timestamps onto the shared
       origin, and make sure a process_name survives so Perfetto labels
       the track (synthesized from the filename when absent). *)
    let merge_file index ((path, events), epoch) =
      let pid = index + 1 in
      let shift_us = epoch -. origin in
      let named = ref false in
      let events =
        List.filter_map
          (fun ev ->
            match ev with
            | J.Obj fields -> (
                let name = str_field "name" ev in
                if name = Some "clock_sync" then None
                else begin
                  if name = Some "process_name" then named := true;
                  let is_meta = str_field "ph" ev = Some "M" in
                  let fields = set "pid" (J.Number (float_of_int pid)) fields in
                  let fields =
                    match
                      Option.bind (List.assoc_opt "ts" fields) J.to_float
                    with
                    | Some ts when not is_meta ->
                        set "ts" (J.Number (ts +. shift_us)) fields
                    | _ -> fields
                  in
                  Some (J.Obj fields)
                end)
            | _ -> die "%s: non-object trace event" path)
          events
      in
      if !named then events
      else
        J.Obj
          [
            ("name", J.String "process_name");
            ("cat", J.String "__metadata");
            ("ph", J.String "M");
            ("ts", J.Number 0.);
            ("pid", J.Number (float_of_int pid));
            ("tid", J.Number 0.);
            ("args", J.Obj [ ("name", J.String (Filename.basename path)) ]);
          ]
        :: events
    in
    let merged =
      List.concat (List.mapi merge_file (List.combine files epochs))
    in
    (* Metadata first, then slices/counters by shifted timestamp, so
       the merged file reads chronologically. *)
    let ts_of ev = Option.bind (J.member "ts" ev) J.to_float in
    let key ev =
      if str_field "ph" ev = Some "M" then neg_infinity
      else Option.value (ts_of ev) ~default:0.
    in
    let merged =
      List.stable_sort (fun a b -> Float.compare (key a) (key b)) merged
    in
    let oc = match output with None -> stdout | Some p -> open_out p in
    output_string oc "[";
    List.iteri
      (fun i ev ->
        output_string oc (if i = 0 then "\n" else ",\n");
        output_string oc (J.to_string ev))
      merged;
    output_string oc "\n]\n";
    if output <> None then close_out oc else flush oc;
    (match output with
    | Some p ->
        Printf.eprintf "defcheck: merged %d trace files (%d events) into %s\n%!"
          (List.length inputs) (List.length merged) p
    | None -> ())
  in
  let inputs_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"TRACE"
          ~doc:
            "Chrome trace-event files as written by $(b,--trace) \
             (router, shards, checks), one per process.")
  in
  let output_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Merged trace destination (default: stdout).")
  in
  Cmd.v
    (Cmd.info "trace-merge"
       ~doc:
         "Merge per-process Chrome trace files onto one timeline: each \
          file's $(b,clock_sync) origin aligns its timestamps, each file \
          becomes its own pid/track, and spans sharing a $(b,trace_id) \
          read as one distributed request across processes.  The output \
          loads in Perfetto or chrome://tracing.")
    Term.(const run $ inputs_arg $ output_arg)

let load_cmd =
  let run addr seed profile_file report_file compare_file requests quiet =
    let addr = address_of addr in
    let profile =
      match profile_file with
      | None -> Load.Workload.default_profile
      | Some path -> (
          match
            try Load.Workload.profile_of_string (read_file path)
            with Sys_error msg -> Error msg
          with
          | Ok p -> p
          | Error msg ->
              Printf.eprintf "error: %s: %s\n" path msg;
              exit 2)
    in
    let profile =
      match requests with
      | Some n -> { profile with Load.Workload.requests = n }
      | None -> profile
    in
    match Load.Workload.build ~seed profile with
    | Error msg ->
        Printf.eprintf "error: workload: %s\n" msg;
        exit 2
    | Ok wl -> (
        Printf.eprintf
          "defcheck: load seed=%d entries=%d ops=%d schedule_crc=%s -> %s\n%!"
          seed
          (Array.length wl.Load.Workload.entries)
          (Array.length wl.Load.Workload.ops)
          wl.Load.Workload.schedule_crc
          (Service.Wire.address_to_string addr);
        let progress =
          if quiet then fun _ -> ()
          else fun n ->
            Printf.eprintf "defcheck: %d/%d ops done\n%!" n
              profile.Load.Workload.requests
        in
        match Load.Runner.run ~progress ~seed ~addr wl with
        | Error msg ->
            Printf.eprintf "error: %s\n" msg;
            exit 2
        | Ok report -> (
            let text = Load.Runner.report_to_string report in
            (match report_file with
            | Some path ->
                let oc = open_out_bin path in
                output_string oc text;
                output_char oc '\n';
                close_out oc
            | None -> print_endline text);
            Printf.eprintf
              "defcheck: %d requests, %d ok, %d verdict digests, %.2fs\n%!"
              report.Load.Runner.requests report.Load.Runner.ok
              (List.length report.Load.Runner.verdicts)
              report.Load.Runner.wall_s;
            List.iter
              (fun (cls, n) -> Printf.eprintf "defcheck:   %s: %d\n%!" cls n)
              report.Load.Runner.errors;
            match compare_file with
            | None -> if report.Load.Runner.disallowed <> [] then exit 1
            | Some path -> (
                match
                  try Load.Runner.report_of_string (read_file path)
                  with Sys_error msg -> Error msg
                with
                | Error msg ->
                    Printf.eprintf "error: %s: %s\n" path msg;
                    exit 2
                | Ok clean -> (
                    match Load.Runner.check ~clean ~chaos:report with
                    | Ok compared ->
                        Printf.eprintf
                          "defcheck: safety invariant holds (%d digests \
                           compared against %s)\n\
                           %!"
                          compared path
                    | Error violations ->
                        List.iter
                          (fun v ->
                            Printf.eprintf "defcheck: VIOLATION: %s\n%!" v)
                          violations;
                        exit 1))))
  in
  let addr_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ADDR"
          ~doc:"Server or router address (same syntax as $(b,--address)).")
  in
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"S"
          ~doc:
            "Workload seed.  The whole schedule — instances, op mix, key \
             popularity, delta chains — is a pure function of \
             $(b,--seed) and the profile, so the same seed replays \
             byte-identical requests anywhere.")
  in
  let profile_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile" ] ~docv:"FILE"
          ~doc:
            "Workload profile (JSON); absent fields take their defaults. \
             Omit for the built-in default profile.")
  in
  let report_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:
            "Write the JSON report (latencies, error taxonomy, verdict \
             map) to $(docv) instead of stdout.")
  in
  let compare_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "compare" ] ~docv:"FILE"
          ~doc:
            "Check the safety invariant against a clean run's report: \
             same schedule CRC, byte-identical verdicts per digest, no \
             disallowed events.  Exit 1 on any violation.")
  in
  let requests_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "requests" ] ~docv:"N"
          ~doc:"Override the profile's request count.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet" ] ~doc:"No per-1000-ops progress lines.")
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Drive a deterministic adversarial workload (seeded instance \
          families, Zipf/uniform/shifting-hot key popularity, \
          decide/batch/delta op mix, closed- or open-loop arrival) \
          against a running $(b,serve) or $(b,route) process; record \
          latencies, a typed error taxonomy and the digest->verdict map; \
          optionally $(b,--compare) against a clean run to assert the \
          chaos safety invariant.")
    Term.(
      const run $ addr_pos $ seed_arg $ profile_arg $ report_arg
      $ compare_arg $ requests_arg $ quiet_arg)

let chaos_proxy_cmd =
  let run listen upstream faults seed =
    let listen = address_of listen and upstream = address_of upstream in
    match Fault.Proxy.rules_of_string faults with
    | Error msg ->
        Printf.eprintf "error: --faults: %s\n" msg;
        exit 2
    | Ok rules -> (
        match
          Fault.Proxy.create ~seed
            ~listen:(Service.Wire.sockaddr_of listen)
            ~upstream:(Service.Wire.sockaddr_of upstream)
            rules
        with
        | exception Unix.Unix_error (e, _, arg) ->
            Printf.eprintf "error: cannot listen on %s: %s (%s)\n"
              (Service.Wire.address_to_string listen)
              (Unix.error_message e) arg;
            exit 2
        | proxy ->
            Printf.eprintf
              "defcheck: chaos proxy %s -> %s, seed=%d, faults=%s\n%!"
              (Service.Wire.address_to_string listen)
              (Service.Wire.address_to_string upstream)
              seed
              (match rules with
              | [] -> "(none)"
              | rs -> Fault.Proxy.rules_to_string rs);
            at_exit (fun () ->
                List.iter
                  (fun (k, v) ->
                    Printf.eprintf "defcheck: proxy %s=%d\n%!" k v)
                  (Fault.Proxy.stats proxy));
            Fault.Proxy.run proxy)
  in
  let listen_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"LISTEN"
          ~doc:"Address to listen on (same syntax as $(b,--address)).")
  in
  let upstream_pos =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"UPSTREAM"
          ~doc:"Address of the real server/shard to forward to.")
  in
  let faults_arg =
    Arg.(
      value & opt string ""
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Comma-separated $(i,ACTION@TRIGGER) rules; actions \
             $(b,delay-ms:N), $(b,reset), $(b,truncate), $(b,corrupt); \
             triggers $(b,once), $(b,after:K), $(b,1-in:N).  Example: \
             $(b,delay-ms:20@1-in:11,reset@1-in:211,corrupt@1-in:97).  \
             Empty: a transparent proxy (the overhead baseline).")
  in
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"S"
          ~doc:"Fault-schedule seed (deterministic per line ordinal).")
  in
  Cmd.v
    (Cmd.info "chaos-proxy"
       ~doc:
         "Byte-level fault-injecting proxy for the newline-JSON \
          protocol: sit between a router and a shard (or a client and a \
          server) and inject delays, connection resets, line truncation \
          and byte corruption on a deterministic seeded schedule.  \
          Sealed responses make corruption downstream-detectable: the \
          receiver rejects the line, it never becomes a wrong verdict.")
    Term.(const run $ listen_pos $ upstream_pos $ faults_arg $ seed_arg)

let main =
  Cmd.group
    (Cmd.info "defcheck" ~version:"1.0.0"
       ~doc:"Definability of relations on data graphs (PODS 2015).")
    [
      info_cmd;
      eval_cmd;
      check_cmd;
      batch_cmd;
      watch_cmd;
      census_cmd;
      fit_cmd;
      dot_cmd;
      fig1_cmd;
      serve_cmd;
      route_cmd;
      client_cmd;
      load_cmd;
      chaos_proxy_cmd;
      trace_merge_cmd;
    ]

let () = exit (Cmd.eval main)
