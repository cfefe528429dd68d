module Json = Service.Json
module Wire = Service.Wire
module Client = Service.Client

type report = {
  seed : int;
  schedule_crc : string;
  requests : int;
  ok : int;
  errors : (string * int) list;
  disallowed : string list;
  verdicts : (string * string) list;
  latency_us : (string * (int * int * int * int)) list;
  wall_s : float;
}

(* The runner's own histograms, reset at the start of each {!run}; the
   rest of the process's telemetry is left alone. *)
let h_decide = Obs.Histogram.make "load.op.decide"
let h_batch = Obs.Histogram.make "load.op.batch"
let h_delta = Obs.Histogram.make "load.op.delta"

let max_disallowed = 64

(* Per-entry delta-chain state.  The chain mutex is held across the
   whole request: deltas on one chain are inherently sequential (each
   needs the previous response's digest), and two workers racing the
   same chain would fork it. *)
type chain = { cmu : Mutex.t; mutable digest : string option; mutable cursor : int }

type state = {
  wl : Workload.t;
  addr : Wire.address;
  seed : int;
  idx : int Atomic.t;
  completed : int Atomic.t;
  n_requests : int Atomic.t;
  n_ok : int Atomic.t;
  mu : Mutex.t;
  errors : (string, int) Hashtbl.t;
  mutable disallowed : string list;  (* newest first, capped *)
  mutable n_disallowed : int;
  verdicts : (string, string) Hashtbl.t;
  chains : chain array;
  pace_s : float option;  (* per-request interval in open-loop mode *)
  t0 : float;
  progress : int -> unit;
}

let with_lock mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let count_error st cls =
  with_lock st.mu (fun () ->
      Hashtbl.replace st.errors cls
        (1 + Option.value (Hashtbl.find_opt st.errors cls) ~default:0))

let note_disallowed st msg =
  with_lock st.mu (fun () ->
      st.n_disallowed <- st.n_disallowed + 1;
      if st.n_disallowed <= max_disallowed then
        st.disallowed <- msg :: st.disallowed);
  count_error st "disallowed"

let record_verdict st digest verdict =
  match
    with_lock st.mu (fun () ->
        match Hashtbl.find_opt st.verdicts digest with
        | None ->
            Hashtbl.replace st.verdicts digest verdict;
            None
        | Some prior when String.equal prior verdict -> None
        | Some prior -> Some prior)
  with
  | None -> ()
  | Some prior ->
      note_disallowed st
        (Printf.sprintf "verdict conflict for %s: %S vs %S" digest prior
           verdict)

(* ------------------------------------------------------------------ *)
(* Response classification: the typed error taxonomy.  [None] = not an
   allowed failure class. *)

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let class_of_error_text msg =
  if has_prefix "shard_unavailable" msg then Some "shard_unavailable"
  else if has_prefix "unknown instance digest" msg then Some "stale_digest"
  else if has_prefix "overloaded" msg then
    if has_prefix "overloaded: draining" msg then Some "draining"
    else Some "queue_full"
    (* Requests are sealed ([Wire.seal_line]); a server that detects the
       seal broken — or cannot parse the line at all — saw bytes
       corrupted in transit.  The runner itself always emits well-formed
       sealed JSON, so both are transport-class, not server bugs. *)
  else if has_prefix "request failed integrity check" msg then
    Some "transport"
  else if has_prefix "json:" msg then Some "transport"
  else None

(* One batch-item object: [Ok (digest, verdict)] on success. *)
let classify_item st j =
  match Option.bind (Json.member "error" j) Json.to_str with
  | Some msg -> (
      match class_of_error_text msg with
      | Some cls -> count_error st cls
      | None -> note_disallowed st ("batch item error: " ^ msg))
  | None -> (
      match
        ( Option.bind (Json.member "digest" j) Json.to_str,
          Json.member "result" j )
      with
      | Some digest, Some result ->
          ignore (Atomic.fetch_and_add st.n_ok 1);
          record_verdict st digest (Json.to_string result)
      | _ -> note_disallowed st "batch item without digest/result")

(* A full response line.  Returns the digest of a successful
   decide/delta whose outcome the server stored (to advance the chain);
   [None] on anything else, an unknown verdict included. *)
let classify st ~batch line =
  match Json.parse line with
  | Error msg ->
      (* [send] already required a verified seal, so an unparseable
         line is a server bug, not line noise. *)
      note_disallowed st ("unparseable response: " ^ msg);
      None
  | Ok j -> (
      match Option.bind (Json.member "status" j) Json.to_str with
      | Some "ok" when batch -> (
          match Option.bind (Json.member "results" j) Json.to_list with
          | Some items ->
              List.iter (classify_item st) items;
              None
          | None ->
              note_disallowed st "batch response without results";
              None)
      | Some "ok" -> (
          match
            ( Option.bind (Json.member "digest" j) Json.to_str,
              Json.member "result" j )
          with
          | Some digest, Some result ->
              ignore (Atomic.fetch_and_add st.n_ok 1);
              record_verdict st digest (Json.to_string result);
              (* The server stores no unknown verdict, so a delta
                 could not resolve its digest. *)
              if Option.bind (Json.member "verdict" result) Json.to_str = Some "unknown"
              then None
              else Some digest
          | None, Some _ when Option.bind (Json.member "op" j) Json.to_str = Some "delta"
            ->
              (* A delta whose outcome the server did not store (an
                 unknown verdict) has no digest to chain on: answered,
                 and the chain restarts from its base. *)
              ignore (Atomic.fetch_and_add st.n_ok 1);
              None
          | _ ->
              note_disallowed st "ok response without digest/result";
              None)
      | Some "overloaded" ->
          (match Option.bind (Json.member "detail" j) Json.to_str with
          | Some "draining" -> count_error st "draining"
          | Some _ | None -> count_error st "queue_full");
          None
      | Some "unavailable" ->
          count_error st "shard_unavailable";
          None
      | Some "error" ->
          (match Option.bind (Json.member "error" j) Json.to_str with
          | Some msg -> (
              match class_of_error_text msg with
              | Some cls -> count_error st cls
              | None -> note_disallowed st ("server error: " ^ msg))
          | None -> note_disallowed st "error response without error text");
          None
      | Some other ->
          note_disallowed st ("unknown status: " ^ other);
          None
      | None ->
          note_disallowed st "response without status";
          None)

(* ------------------------------------------------------------------ *)
(* Request execution. *)

type worker_conn = { mutable conn : Client.t option }

let worker_connect st = Client.connect ~retries:3 ~backoff_s:0.05 ?deadline_s:st.wl.Workload.profile.Workload.deadline_s st.addr

let drop_worker_conn wc =
  (match wc.conn with Some c -> (try Client.close c with _ -> ()) | None -> ());
  wc.conn <- None

(* Send one line; transport failures (refused connect, reset, deadline
   expiry, integrity-rejected bytes) classify as ["transport"] and cost
   this worker its connection — the next request redials. *)
let send st wc hist line =
  ignore (Atomic.fetch_and_add st.n_requests 1);
  (* Requests go out sealed so a byte corrupted in flight is rejected
     server-side instead of executing as a different request. *)
  let line = Wire.seal_line line in
  let t0 = Unix.gettimeofday () in
  let result =
    match
      match wc.conn with
      | Some c -> Client.request_raw c line
      | None ->
          let c = worker_connect st in
          wc.conn <- Some c;
          Client.request_raw c line
    with
    | r -> r
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
    | exception Sys_error msg -> Error msg
    | exception Sys_blocked_io -> Error "deadline expired"
    | exception End_of_file -> Error "connection closed"
  in
  Obs.Histogram.record_s hist (Unix.gettimeofday () -. t0);
  match result with
  (* The server seals every response, so anything short of [`Sealed_ok]
     — seal broken, seal bytes themselves corrupted (reads unsealed), or
     a truncated line — is in-flight damage, never a verdict. *)
  | Ok line when Wire.crc_status line = `Sealed_ok -> Some line
  | Ok _ ->
      drop_worker_conn wc;
      count_error st "transport";
      None
  | Error _ ->
      drop_worker_conn wc;
      count_error st "transport";
      None

let entry st i = st.wl.Workload.entries.(i)

let decide_line st i =
  let e = entry st i in
  Wire.request_to_string
    (Wire.Decide
       {
         lang = e.Workload.lang;
         k = Some e.Workload.k;
         fuel = Some st.wl.Workload.profile.Workload.fuel;
         timeout_s = None;
         instance = e.Workload.text;
       })

let exec st wc op =
  match op with
  | Workload.Decide i -> (
      match send st wc h_decide (decide_line st i) with
      | Some line -> ignore (classify st ~batch:false line)
      | None -> ())
  | Workload.Batch idx -> (
      let first = entry st idx.(0) in
      let line =
        Wire.request_to_string
          (Wire.Batch
             {
               lang = first.Workload.lang;
               k = Some first.Workload.k;
               fuel = Some st.wl.Workload.profile.Workload.fuel;
               timeout_s = None;
               instances =
                 Array.to_list (Array.map (fun i -> (entry st i).Workload.text) idx);
             })
      in
      match send st wc h_batch line with
      | Some line -> ignore (classify st ~batch:true line)
      | None -> ())
  | Workload.Delta i ->
      let e = entry st i in
      let ch = st.chains.(i) in
      with_lock ch.cmu (fun () ->
          match ch.digest with
          | None -> (
              (* Cold chain: decide the base; the next delta op on this
                 entry advances the first edit. *)
              match send st wc h_decide (decide_line st i) with
              | Some line -> (
                  match classify st ~batch:false line with
                  | Some digest ->
                      ch.digest <- Some digest;
                      ch.cursor <- 0
                  | None -> ())
              | None -> ())
          | Some digest -> (
              let edit = e.Workload.edits.(ch.cursor) in
              let line =
                Wire.request_to_string
                  (Wire.Delta
                     {
                       lang = e.Workload.lang;
                       k = Some e.Workload.k;
                       fuel = Some st.wl.Workload.profile.Workload.fuel;
                       timeout_s = None;
                       digest;
                       edit;
                     })
              in
              match send st wc h_delta line with
              | Some line -> (
                  match classify st ~batch:false line with
                  | Some digest' ->
                      ch.cursor <- ch.cursor + 1;
                      if ch.cursor >= Array.length e.Workload.edits then begin
                        (* Chain exhausted: reset so the digest sequence
                           replays the same prefix every cycle. *)
                        ch.digest <- None;
                        ch.cursor <- 0
                      end
                      else ch.digest <- Some digest'
                  | None ->
                      (* Failed (or refused) delta: restart from the
                         base rather than continuing mid-chain, so every
                         digest this entry ever produces lies on the one
                         canonical chain prefix. *)
                      ch.digest <- None;
                      ch.cursor <- 0)
              | None ->
                  ch.digest <- None;
                  ch.cursor <- 0))

let worker st () =
  let wc = { conn = None } in
  let n = Array.length st.wl.Workload.ops in
  let rec loop () =
    let i = Atomic.fetch_and_add st.idx 1 in
    if i < n then begin
      (match st.pace_s with
      | Some interval ->
          let target = st.t0 +. (float_of_int i *. interval) in
          let now = Unix.gettimeofday () in
          if target > now then Thread.delay (target -. now)
      | None -> ());
      (* An exception that escapes [exec] is a harness bug ([send]
         already absorbs every transport-level one): surface it as a
         disallowed event, drop the possibly-poisoned connection, keep
         the worker alive. *)
      (try exec st wc st.wl.Workload.ops.(i)
       with e ->
         drop_worker_conn wc;
         note_disallowed st ("worker exception: " ^ Printexc.to_string e));
      let d = 1 + Atomic.fetch_and_add st.completed 1 in
      if d mod 1000 = 0 then st.progress d;
      loop ()
    end
  in
  loop ();
  drop_worker_conn wc

(* ------------------------------------------------------------------ *)

let percentiles h =
  let s = Obs.Histogram.snapshot h in
  let n = Obs.Histogram.total s in
  if n = 0 then None
  else
    let p q = Obs.Histogram.percentile_of s q / 1000 in
    Some (n, p 50., p 99., p 100.)

let run ?(progress = fun _ -> ()) ~seed ~addr (wl : Workload.t) =
  Obs.Histogram.reset h_decide;
  Obs.Histogram.reset h_batch;
  Obs.Histogram.reset h_delta;
  (* One up-front ping so "server not running" is an [Error], not a
     report full of transport noise. *)
  match
    (try
       let c = Client.connect ~retries:10 ~backoff_s:0.05 addr in
       Fun.protect
         ~finally:(fun () -> Client.close c)
         (fun () -> Client.request_raw c (Wire.request_to_string Wire.Ping))
     with
    | Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
    | Sys_error m -> Error m)
  with
  | Error msg ->
      Error
        (Printf.sprintf "cannot reach %s: %s" (Wire.address_to_string addr) msg)
  | Ok _ ->
      let n_workers, pace_s =
        match wl.Workload.profile.Workload.mode with
        | Workload.Closed w -> (max 1 w, None)
        | Workload.Open { rate; max_outstanding } ->
            (max 1 max_outstanding, Some (1. /. Float.max 1e-6 rate))
      in
      let st =
        {
          wl;
          addr;
          seed;
          idx = Atomic.make 0;
          completed = Atomic.make 0;
          n_requests = Atomic.make 0;
          n_ok = Atomic.make 0;
          mu = Mutex.create ();
          errors = Hashtbl.create 8;
          disallowed = [];
          n_disallowed = 0;
          verdicts = Hashtbl.create 1024;
          chains =
            Array.map
              (fun _ -> { cmu = Mutex.create (); digest = None; cursor = 0 })
              wl.Workload.entries;
          pace_s;
          t0 = Unix.gettimeofday ();
          progress;
        }
      in
      let threads = List.init n_workers (fun _ -> Thread.create (worker st) ()) in
      List.iter Thread.join threads;
      let wall_s = Unix.gettimeofday () -. st.t0 in
      let latency_us =
        List.filter_map
          (fun (name, h) ->
            Option.map (fun v -> (name, v)) (percentiles h))
          [ ("decide", h_decide); ("batch", h_batch); ("delta", h_delta) ]
      in
      Ok
        {
          seed;
          schedule_crc = wl.Workload.schedule_crc;
          requests = Atomic.get st.n_requests;
          ok = Atomic.get st.n_ok;
          errors =
            List.sort compare
              (Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.errors []);
          disallowed = List.rev st.disallowed;
          verdicts =
            List.sort compare
              (Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.verdicts []);
          latency_us;
          wall_s;
        }

(* ------------------------------------------------------------------ *)
(* Report JSON. *)

let json_str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  Json.escape_into b s;
  Buffer.add_char b '"';
  Buffer.contents b

let report_to_string (r : report) =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"report\":\"load\",\"seed\":%d,\"schedule_crc\":%s,\"requests\":%d,\"ok\":%d"
       r.seed (json_str r.schedule_crc) r.requests r.ok);
  Buffer.add_string b ",\"errors\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "%s:%d" (json_str k) v))
    r.errors;
  Buffer.add_string b "},\"latency_us\":{";
  List.iteri
    (fun i (op, (count, p50, p99, mx)) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "%s:{\"count\":%d,\"p50\":%d,\"p99\":%d,\"max\":%d}"
           (json_str op) count p50 p99 mx))
    r.latency_us;
  Buffer.add_string b (Printf.sprintf "},\"wall_s\":%.6f" r.wall_s);
  Buffer.add_string b ",\"disallowed\":[";
  List.iteri
    (fun i msg ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (json_str msg))
    r.disallowed;
  Buffer.add_string b "],\"verdicts\":{";
  List.iteri
    (fun i (digest, verdict) ->
      if i > 0 then Buffer.add_char b ',';
      (* The verdict block is itself canonical JSON: embed it raw so a
         report round-trips byte-identically. *)
      Buffer.add_string b (Printf.sprintf "%s:%s" (json_str digest) verdict))
    r.verdicts;
  Buffer.add_string b "}}";
  Buffer.contents b

let report_of_string s =
  let ( let* ) = Result.bind in
  let* j = Result.map_error (fun m -> "report: " ^ m) (Json.parse s) in
  let int_f name =
    match Option.bind (Json.member name j) Json.to_int with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "report: missing %s" name)
  in
  let* seed = int_f "seed" in
  let* requests = int_f "requests" in
  let* ok = int_f "ok" in
  let* schedule_crc =
    match Option.bind (Json.member "schedule_crc" j) Json.to_str with
    | Some s -> Ok s
    | None -> Error "report: missing schedule_crc"
  in
  let* errors =
    match Json.member "errors" j with
    | Some (Json.Obj kvs) ->
        Ok
          (List.filter_map
             (fun (k, v) -> Option.map (fun n -> (k, n)) (Json.to_int v))
             kvs)
    | _ -> Error "report: missing errors"
  in
  let* disallowed =
    match Option.bind (Json.member "disallowed" j) Json.to_list with
    | Some items -> Ok (List.filter_map Json.to_str items)
    | None -> Error "report: missing disallowed"
  in
  let* verdicts =
    match Json.member "verdicts" j with
    | Some (Json.Obj kvs) ->
        Ok (List.map (fun (k, v) -> (k, Json.to_string v)) kvs)
    | _ -> Error "report: missing verdicts"
  in
  let latency_us =
    match Json.member "latency_us" j with
    | Some (Json.Obj kvs) ->
        List.filter_map
          (fun (op, v) ->
            let f name = Option.bind (Json.member name v) Json.to_int in
            match (f "count", f "p50", f "p99", f "max") with
            | Some c, Some p50, Some p99, Some mx -> Some (op, (c, p50, p99, mx))
            | _ -> None)
          kvs
    | _ -> []
  in
  let wall_s =
    Option.value (Option.bind (Json.member "wall_s" j) Json.to_float) ~default:0.
  in
  Ok
    {
      seed;
      schedule_crc;
      requests;
      ok;
      errors;
      disallowed;
      verdicts;
      latency_us;
      wall_s;
    }

(* ------------------------------------------------------------------ *)
(* The safety invariant. *)

let check ~(clean : report) ~(chaos : report) =
  let violations = ref [] in
  let add v = violations := v :: !violations in
  if clean.schedule_crc <> chaos.schedule_crc then
    add
      (Printf.sprintf "schedule mismatch: clean %s vs chaos %s"
         clean.schedule_crc chaos.schedule_crc);
  List.iter
    (fun msg -> add ("clean run disallowed event: " ^ msg))
    clean.disallowed;
  (* Without faults every request is answered: an error class on the
     clean run (a refused stale digest, say) is a server fault. *)
  List.iter
    (fun (cls, n) ->
      if n > 0 then add (Printf.sprintf "clean run error: %d %s" n cls))
    clean.errors;
  List.iter
    (fun msg -> add ("chaos run disallowed event: " ^ msg))
    chaos.disallowed;
  let clean_map = Hashtbl.create (List.length clean.verdicts) in
  List.iter (fun (d, v) -> Hashtbl.replace clean_map d v) clean.verdicts;
  let compared = ref 0 in
  List.iter
    (fun (digest, verdict) ->
      match Hashtbl.find_opt clean_map digest with
      | None -> ()  (* chain prefix the clean run never reached: nothing
                       to compare against, and intra-run conflict
                       detection already guarded it *)
      | Some clean_verdict ->
          Stdlib.incr compared;
          if not (String.equal clean_verdict verdict) then
            add
              (Printf.sprintf "wrong answer for %s: clean %S vs chaos %S"
                 digest clean_verdict verdict))
    chaos.verdicts;
  match !violations with
  | [] -> Ok !compared
  | vs -> Error (List.rev vs)
