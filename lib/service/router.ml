(* Placement state is two bounded memos, both sized by
   [chain_capacity]: [chain] maps a delta's chained digest to the shard
   that answered it, and [texts] maps a request text's
   [Content_hash.text_key] to its instance digest, so a repeated decide
   or batch item is placed without parsing or hashing its instance.
   Neither holds a verdict, and no answer depends on either: a lost
   [texts] entry costs one parse and hash, a lost [chain] entry falls
   back to the ring. *)

module Graph_io = Datagraph.Graph_io

type config = {
  vnodes : int;
  chain_capacity : int;
  connect_retries : int;
  retry_backoff_s : float;
  shard_timeout_s : float option;
  unhealthy_after : int;
  health_cooldown_s : float;
}

let default_config =
  {
    vnodes = 64;
    chain_capacity = 4096;
    connect_retries = 20;
    retry_backoff_s = 0.05;
    shard_timeout_s = None;
    unhealthy_after = 3;
    health_cooldown_s = 1.0;
  }

(* Per-shard health, under [health_mu].  [fails] counts consecutive
   forward failures; at [unhealthy_after] the shard is marked down
   until [down_until], during which requests fail fast with a typed
   [shard_unavailable] instead of burning a connect-retry cycle each.
   When the cooldown lapses the next request probes the shard
   (half-open): success resets, failure re-arms the cooldown. *)
type health = { mutable fails : int; mutable down_until : float }

type t = {
  config : config;
  shards : (string * Wire.address) list;
  ring : Ring.t;
  chain : string Lru.t;  (* chained digest -> shard name *)
  texts : string Lru.t;  (* request text key -> instance digest *)
  health : (string, health) Hashtbl.t;
  health_mu : Mutex.t;
  ep : Endpoint.t;
  started_s : float;
  n_forwarded : int Atomic.t;
  n_forward_errors : int Atomic.t;
  n_unavailable : int Atomic.t;
  n_rebalanced : int Atomic.t;
}

(* The ring is built before the socket is bound, so a bad shard list
   leaves no socket file behind. *)
let create ?(config = default_config) ~shards addr =
  if shards = [] then invalid_arg "Service.Router.create: no shards";
  let ring = Ring.create ~vnodes:config.vnodes (List.map fst shards) in
  let chain = Lru.create ~capacity:config.chain_capacity in
  let texts = Lru.create ~capacity:config.chain_capacity in
  {
    config;
    shards;
    ring;
    chain;
    texts;
    health = Hashtbl.create 8;
    health_mu = Mutex.create ();
    ep = Endpoint.listen addr;
    started_s = Unix.gettimeofday ();
    n_forwarded = Atomic.make 0;
    n_forward_errors = Atomic.make 0;
    n_unavailable = Atomic.make 0;
    n_rebalanced = Atomic.make 0;
  }

let address t = Endpoint.address t.ep
let shard_names t = List.map fst t.shards
let shard_addr t name = List.assoc name t.shards

(* Placement of a digest that may be chained (a [delta]'s, a rebalanced
   entry's).  An instance digest is never a chained one, so decides and
   batch items go straight to [Ring.shard]. *)
let shard_of_digest t digest =
  match Lru.find t.chain digest with
  | Some name -> name
  | None -> Ring.shard t.ring digest

(* The instance digest of a decide's or a batch item's text — the key
   the shard will answer with.  A text already seen is placed from the
   memo, without parsing or hashing it; a parse error is never
   memoized. *)
let instance_digest t ~lang ~k text =
  let k = Option.value k ~default:1 in
  let tkey = Content_hash.text_key ~lang ~k text in
  match Lru.find t.texts tkey with
  | Some digest -> Ok digest
  | None ->
      Result.map
        (fun (g, s) ->
          let digest = Content_hash.instance_key ~lang ~k g s in
          Lru.put t.texts tkey digest;
          digest)
        (Graph_io.instance_of_string text)

let incr a = ignore (Atomic.fetch_and_add a 1)

(* ------------------------------------------------------------------ *)
(* Shard health. *)

let health_of t name =
  match Hashtbl.find_opt t.health name with
  | Some h -> h
  | None ->
      let h = { fails = 0; down_until = 0. } in
      Hashtbl.replace t.health name h;
      h

(* Down and still cooling?  A lapsed cooldown answers [false] without
   resetting [fails] — the caller's request is the half-open probe. *)
let shard_down t name =
  Mutex.protect t.health_mu (fun () ->
      let h = health_of t name in
      h.fails >= t.config.unhealthy_after
      && Unix.gettimeofday () < h.down_until)

let note_forward_ok t name =
  Mutex.protect t.health_mu (fun () ->
      let h = health_of t name in
      h.fails <- 0;
      h.down_until <- 0.)

let note_forward_fail t name =
  Mutex.protect t.health_mu (fun () ->
      let h = health_of t name in
      h.fails <- h.fails + 1;
      if h.fails >= t.config.unhealthy_after then
        h.down_until <- Unix.gettimeofday () +. t.config.health_cooldown_s)

let shard_healthy t name =
  Mutex.protect t.health_mu (fun () ->
      (health_of t name).fails < t.config.unhealthy_after)

(* Typed unavailability: every forward-level failure is reported with
   this prefix so clients (and the load runner's error taxonomy) can
   tell "the shard was down" from "your request was wrong". *)
let unavailable name msg =
  Printf.sprintf "shard_unavailable: %s: %s" name msg

let is_unavailable msg =
  String.length msg >= 17 && String.sub msg 0 17 = "shard_unavailable"

(* ------------------------------------------------------------------ *)
(* Per-incoming-connection shard connections: opened lazily (with
   retry, so a still-binding shard is waited for), dropped on transport
   failure so the next request reconnects. *)

type conns = (string, Client.t) Hashtbl.t

let get_conn t (conns : conns) name =
  match Hashtbl.find_opt conns name with
  | Some c -> c
  | None ->
      let c =
        Client.connect ~retries:t.config.connect_retries
          ~backoff_s:t.config.retry_backoff_s
          ?deadline_s:t.config.shard_timeout_s (shard_addr t name)
      in
      Hashtbl.replace conns name c;
      c

let drop_conn (conns : conns) name =
  match Hashtbl.find_opt conns name with
  | Some c ->
      Client.close c;
      Hashtbl.remove conns name
  | None -> ()

(* One exchange with shard [name] through [send].  The reply must
   carry an intact integrity seal — every shard seals its responses, so
   anything else means the bytes were damaged in flight and relaying
   them would hand the client a corrupted verdict.  [Client] has
   already refused a seal that fails its CRC, so what is left to
   require here is that the seal is present ({!Wire.sealed}). *)
let exchange t conns name send =
  match send (get_conn t conns name) with
  | Ok reply when Wire.sealed reply -> Ok reply
  | Ok _ ->
      drop_conn conns name;
      Error "reply failed integrity check"
  | Error msg ->
      drop_conn conns name;
      Error msg
  | exception Unix.Unix_error (e, _, _) ->
      drop_conn conns name;
      Error (Unix.error_message e)

(* Count a forward's outcome against the shard's health and the
   router's counters.  A shard marked unhealthy fails fast until its
   cooldown lapses, without trying the exchange. *)
let counted t name exchange =
  if shard_down t name then begin
    incr t.n_unavailable;
    Error (unavailable name "marked unhealthy, cooling down")
  end
  else
    match exchange () with
    | Ok _ as ok ->
        note_forward_ok t name;
        incr t.n_forwarded;
        ok
    | Error msg ->
        note_forward_fail t name;
        incr t.n_forward_errors;
        Error (unavailable name msg)

(* Forward one pre-rendered line to a shard, returning the raw response
   line.  One reconnect-and-retry on a transport error: the shard may
   have restarted since this connection was opened. *)
let forward t conns name line =
  counted t name (fun () ->
      let once () =
        exchange t conns name (fun c -> Client.request_raw c line)
      in
      match once () with Error _ -> once () | ok -> ok)

(* Streaming forward: progress frames from the shard relay to the
   client as they arrive; the first non-frame line is the response.
   No reconnect-retry — frames may already have reached the client, so
   a mid-stream transport failure surfaces as an error instead of a
   silent replay. *)
let forward_stream t conns name ~on_progress line =
  counted t name (fun () ->
      exchange t conns name (fun c ->
          Client.request_stream c ~on_progress line))

(* Responses the router composes itself are sealed like a shard's;
   relayed shard lines keep the shard's own seal (relay is verbatim). *)
let respond = Endpoint.respond
let ok = Endpoint.ok
let error_fields = Endpoint.error_fields

let relay oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

(* A forward-level failure answers with status ["unavailable"] — the
   typed signal that the request was fine but its shard was not, so the
   caller may retry elsewhere/later; anything else stays ["error"]. *)
let respond_error oc op msg =
  let status = if is_unavailable msg then "unavailable" else "error" in
  respond oc (error_fields ~status op msg)

(* ------------------------------------------------------------------ *)

let stats t =
  let unhealthy =
    List.length (List.filter (fun (n, _) -> not (shard_healthy t n)) t.shards)
  in
  List.sort compare
    [
      ("chain_entries", Lru.length t.chain);
      ("chain_hits", Lru.hits t.chain);
      ("chain_misses", Lru.misses t.chain);
      ("chain_evictions", Lru.evictions t.chain);
      ("errors", Endpoint.errors t.ep);
      ("text_entries", Lru.length t.texts);
      ("text_hits", Lru.hits t.texts);
      ("text_misses", Lru.misses t.texts);
      ("forward_errors", Atomic.get t.n_forward_errors);
      ("forwarded", Atomic.get t.n_forwarded);
      ("rebalanced", Atomic.get t.n_rebalanced);
      ("requests", Endpoint.requests t.ep);
      ("shards", List.length t.shards);
      ("shards_unhealthy", unhealthy);
      ("unavailable_fast_fails", Atomic.get t.n_unavailable);
      ("uptime_seconds", int_of_float (Unix.gettimeofday () -. t.started_s));
      ("started_at", int_of_float t.started_s);
    ]

(* Remember where a delta response's chained digest lives, so the next
   step of the edit stream goes back to the same shard. *)
let note_chained t name line =
  match Json.parse line with
  | Error _ -> ()
  | Ok j -> (
      match
        (Option.bind (Json.member "status" j) Json.to_str,
         Option.bind (Json.member "digest" j) Json.to_str)
      with
      | Some "ok", Some digest -> Lru.put t.chain digest name
      | _ -> ())

(* Work ops forward the raw line verbatim, envelope included — which is
   exactly how the trace context crosses the router without being
   re-rendered.  A [stream] request switches to the streaming forward so
   the shard's progress frames relay through in arrival order. *)
let forward_work t conns name oc ~(env : Wire.envelope) line =
  if env.Wire.stream then
    forward_stream t conns name ~on_progress:(relay oc) line
  else forward t conns name line

let handle_decide t conns oc line ~env ~lang ~k ~instance =
  match instance_digest t ~lang ~k instance with
  | Error msg -> respond oc (error_fields "decide" ("instance: " ^ msg))
  | Ok digest -> (
      match forward_work t conns (Ring.shard t.ring digest) oc ~env line with
      | Ok reply -> relay oc reply
      | Error msg -> respond_error oc "decide" msg)

let handle_delta t conns oc line ~env ~digest =
  let name = shard_of_digest t digest in
  match forward_work t conns name oc ~env line with
  | Ok reply ->
      note_chained t name reply;
      relay oc reply
  | Error msg -> respond_error oc "delta" msg

(* Split a batch by placement, forward the sub-batches, reassemble in
   request order.  Items are re-rendered from parsed JSON (string and
   null fields only, so the verdict blocks survive verbatim); a
   sub-batch failure turns into per-item error objects rather than
   failing the whole batch. *)
let handle_batch t conns oc ~env ~lang ~k ~fuel ~timeout_s ~instances =
  let t0 = Unix.gettimeofday () in
  let placed =
    List.mapi
      (fun i text ->
        (* Unparsable instances still go to a shard (the first), whose
           [decide_front] answers the parse error on the handler thread. *)
        let name =
          match instance_digest t ~lang ~k text with
          | Ok d -> Ring.shard t.ring d
          | Error _ -> fst (List.hd t.shards)
        in
        (i, name, text))
      instances
  in
  let by_shard = Hashtbl.create 8 in
  List.iter
    (fun (i, name, text) ->
      let prev = Option.value (Hashtbl.find_opt by_shard name) ~default:[] in
      Hashtbl.replace by_shard name ((i, text) :: prev))
    placed;
  let results = Array.make (List.length instances) "{}" in
  Hashtbl.iter
    (fun name items ->
      let items = List.rev items in
      (* Sub-batches keep the trace context but never stream — the
         router reassembles results in request order, so interleaved
         frames from several shards would be misordered noise. *)
      let sub =
        Wire.request_line
          ~envelope:{ env with Wire.stream = false }
          (Wire.Batch
             { lang; k; fuel; timeout_s; instances = List.map snd items })
      in
      let fill_errors msg =
        List.iter
          (fun (i, _) ->
            results.(i) <-
              Wire.json_obj [ ("error", Wire.json_string msg) ])
          items
      in
      match forward t conns name sub with
      | Error msg -> fill_errors msg
      | Ok reply -> (
          match Result.to_option (Json.parse reply) with
          | None ->
              fill_errors (Printf.sprintf "shard %s: malformed batch reply" name)
          | Some j -> (
              match Option.bind (Json.member "status" j) Json.to_str with
              (* A refused sub-batch keeps its typed status: the
                 per-item error text says "overloaded: queue_full", not
                 "malformed", so clients can classify it as
                 backpressure. *)
              | Some "overloaded" ->
                  fill_errors
                    (match
                       Option.bind (Json.member "detail" j) Json.to_str
                     with
                    | Some d -> "overloaded: " ^ d
                    | None -> "overloaded")
              | Some ("unavailable" | "error") ->
                  (* Keep the shard's own error text: it already carries
                     its class prefix ("shard_unavailable: ...",
                     "unknown instance digest ..."). *)
                  fill_errors
                    (match
                       Option.bind (Json.member "error" j) Json.to_str
                     with
                    | Some e -> e
                    | None -> Printf.sprintf "shard %s: unspecified error" name)
              | _ -> (
                  match
                    Option.bind (Json.member "results" j) Json.to_list
                  with
                  | Some objs when List.length objs = List.length items ->
                      List.iter2
                        (fun (i, _) obj -> results.(i) <- Json.to_string obj)
                        items objs
                  | Some _ | None ->
                      fill_errors
                        (Printf.sprintf "shard %s: malformed batch reply" name)
                  ))))
    by_shard;
  let wall_s = Unix.gettimeofday () -. t0 in
  respond oc
    (ok "batch"
       [
         ("results", Wire.json_list (Array.to_list results));
         ( "service",
           Wire.json_obj
             [
               ("queue_wait_s", Wire.fixed6 0.);
               ("wall_s", Wire.fixed6 wall_s);
             ] );
       ])

(* Fan an op out to every shard; [combine] renders the response from
   the per-shard raw replies. *)
let fan_out t conns line =
  List.map (fun (name, _) -> (name, forward t conns name line)) t.shards

let handle_stats t conns oc line =
  let replies = fan_out t conns line in
  let totals = Hashtbl.create 32 in
  let per_shard =
    List.map
      (fun (name, reply) ->
        let fields =
          match reply with
          | Error msg -> [ ("error", Wire.json_string msg) ]
          | Ok raw -> (
              match Result.to_option (Json.parse raw) with
              | None -> [ ("error", Wire.json_string "malformed stats reply") ]
              | Some j -> (
                  (* The shard's build string rides along un-summed, so a
                     mixed-version cluster is visible per shard. *)
                  let version =
                    match
                      Option.bind (Json.member "version" j) Json.to_str
                    with
                    | Some v -> [ ("version", Wire.json_string v) ]
                    | None -> []
                  in
                  match Json.member "stats" j with
                  | Some (Json.Obj kvs) ->
                      List.filter_map
                        (fun (k, v) ->
                          match Json.to_int v with
                          | Some n ->
                              Hashtbl.replace totals k
                                (n
                                + Option.value (Hashtbl.find_opt totals k)
                                    ~default:0);
                              Some (k, string_of_int n)
                          | None -> None)
                        kvs
                      @ version
                  | _ -> [ ("error", Wire.json_string "malformed stats reply") ]
                  ))
        in
        (name, Wire.json_obj fields))
      replies
  in
  let aggregated =
    Hashtbl.fold (fun k v acc -> (k, string_of_int v) :: acc) totals []
    |> List.sort compare
  in
  let health =
    List.map
      (fun (name, _) ->
        ( name,
          Wire.json_string (if shard_healthy t name then "up" else "down") ))
      t.shards
  in
  respond oc
    (ok "stats"
       [
         ("stats", Wire.json_obj aggregated);
         ("shards", Wire.json_obj per_shard);
         ("health", Wire.json_obj health);
         ( "router",
           Wire.json_obj
             (List.map (fun (k, v) -> (k, string_of_int v)) (stats t)) );
         ("version", Wire.json_string Metrics.build_string);
       ])

(* Metrics aggregation: merge the shards' raw snapshots (histograms
   pointwise, counters by sum) and render the cluster-wide exposition
   here.  Percentiles of the merged histograms are exact — unlike any
   combination of per-shard percentile numbers. *)
let handle_metrics t conns oc line =
  let replies = fan_out t conns line in
  let merged, per_shard =
    List.fold_left
      (fun (acc, infos) (name, reply) ->
        let failed msg = (acc, (name, Wire.json_obj [ ("error", Wire.json_string msg) ]) :: infos) in
        match reply with
        | Error msg -> failed msg
        | Ok raw -> (
            match Result.to_option (Json.parse raw) with
            | None -> failed "malformed metrics reply"
            | Some j -> (
                let version =
                  match Option.bind (Json.member "version" j) Json.to_str with
                  | Some v -> [ ("version", Wire.json_string v) ]
                  | None -> []
                in
                match
                  Option.bind (Json.member "data" j) (fun d ->
                      Result.to_option (Metrics.of_json d))
                with
                | Some snap ->
                    ( Metrics.merge acc snap,
                      ( name,
                        Wire.json_obj
                          (("status", Wire.json_string "ok") :: version) )
                      :: infos )
                | None -> failed "malformed metrics reply")))
      (Metrics.empty, []) replies
  in
  let gauges =
    [
      ("uptime_seconds", Unix.gettimeofday () -. t.started_s);
      ("shards", float_of_int (List.length t.shards));
    ]
  in
  respond oc
    (ok "metrics"
       [
         ("metrics", Wire.json_string (Metrics.render ~gauges merged));
         ("data", Metrics.to_json merged);
         ("shards", Wire.json_obj (List.rev per_shard));
         ("version", Wire.json_string Metrics.build_string);
       ])

let handle_compact t conns oc line =
  let replies = fan_out t conns line in
  let per_shard =
    List.map
      (fun (name, reply) ->
        ( name,
          match reply with
          | Ok raw -> raw
          | Error msg -> Wire.json_obj (error_fields "compact" msg) ))
      replies
  in
  respond oc (ok "compact" [ ("shards", Wire.json_obj per_shard) ])

let shutdown t = Endpoint.stop t.ep

let handle_shutdown t conns oc line =
  (* Every shard drains before the router answers: when the response
     arrives, no in-flight work exists anywhere in the topology. *)
  let _ = fan_out t conns line in
  respond oc (ok "shutdown" [ ("drained", "true") ]);
  Endpoint.stop t.ep

let shard_direct oc op =
  respond oc
    (error_fields op "shard-direct op (connect to a shard, not the router)")

let dispatch_request t conns oc line ~env req =
  match req with
  | Wire.Ping -> respond oc (ok "ping" [ ("role", Wire.json_string "router") ])
  | Wire.Stats -> handle_stats t conns oc line
  | Wire.Shutdown -> handle_shutdown t conns oc line
  | Wire.Sleep _ -> (
      match forward t conns (fst (List.hd t.shards)) line with
      | Ok reply -> relay oc reply
      | Error msg -> respond_error oc "sleep" msg)
  | Wire.Decide { lang; k; instance; _ } ->
      handle_decide t conns oc line ~env ~lang ~k ~instance
  | Wire.Batch { lang; k; fuel; timeout_s; instances } ->
      handle_batch t conns oc ~env ~lang ~k ~fuel ~timeout_s ~instances
  | Wire.Delta { digest; _ } -> handle_delta t conns oc line ~env ~digest
  | Wire.Compact -> handle_compact t conns oc line
  | Wire.Metrics -> handle_metrics t conns oc line
  | Wire.Export _ -> shard_direct oc "export"
  | Wire.Import _ -> shard_direct oc "import"

(* The routing span is tagged with the client's trace id, and only
   that: the router relays the client's line verbatim, so an id minted
   here could never reach the shard, which mints its own when it needs
   one. *)
let run t =
  Endpoint.run t.ep ~span:"service.route"
    ~trace_id:(fun env -> env.Wire.trace_id)
    ~open_conn:(fun () : conns -> Hashtbl.create 8)
    ~close_conn:(Hashtbl.iter (fun _ c -> Client.close c))
    ~dispatch:(fun conns oc line env req ->
      dispatch_request t conns oc line ~env req)

(* ------------------------------------------------------------------ *)
(* Warm transfer. *)

let rebalance t ?(limit = 64) () =
  let conns : conns = Hashtbl.create 8 in
  Fun.protect
    ~finally:(fun () -> Hashtbl.iter (fun _ c -> Client.close c) conns)
    (fun () ->
      let ( let* ) = Result.bind in
      (* Collect every shard's hot set. *)
      let* exported =
        List.fold_left
          (fun acc (name, _) ->
            let* acc = acc in
            let* raw =
              forward t conns name
                (Wire.request_to_string (Wire.Export { limit = Some limit }))
            in
            let* j =
              Result.map_error (fun m -> "export reply: " ^ m) (Json.parse raw)
            in
            let entries =
              match Option.bind (Json.member "entries" j) Json.to_list with
              | None -> []
              | Some items ->
                  List.filter_map
                    (fun item ->
                      match
                        (Option.bind (Json.member "digest" item) Json.to_str,
                         Option.bind (Json.member "payload" item) Json.to_str)
                      with
                      | Some d, Some p -> Some (name, d, p)
                      | _ -> None)
                    items
            in
            Ok (entries @ acc))
          (Ok []) t.shards
      in
      (* Ship each misplaced entry to its ring owner. *)
      let by_owner = Hashtbl.create 8 in
      List.iter
        (fun (source, digest, payload) ->
          let owner = shard_of_digest t digest in
          if owner <> source then begin
            let prev =
              Option.value (Hashtbl.find_opt by_owner owner) ~default:[]
            in
            Hashtbl.replace by_owner owner ((digest, payload) :: prev)
          end)
        exported;
      Hashtbl.fold
        (fun owner entries acc ->
          let* moved = acc in
          let* raw =
            forward t conns owner
              (Wire.request_to_string (Wire.Import { entries }))
          in
          let* j =
            Result.map_error (fun m -> "import reply: " ^ m) (Json.parse raw)
          in
          let imported =
            Option.value
              (Option.bind (Json.member "imported" j) Json.to_int)
              ~default:0
          in
          ignore (Atomic.fetch_and_add t.n_rebalanced imported);
          Ok (moved + imported))
        by_owner (Ok 0))
