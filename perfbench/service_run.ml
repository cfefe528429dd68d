(* The two service workloads, [warm-hot] and [edit-chain]: schedules from
   [Load.Workload.build], references computed in-process before any
   timing, a cluster of real processes, and a closed-loop generator
   whose every response is checked byte-for-byte against the
   references. *)

module W = Load.Workload
module Wire = Service.Wire
module Client = Service.Client
module Graph_io = Datagraph.Graph_io
module Instance = Engine.Instance
module Outcome = Engine.Outcome
module Registry = Engine.Registry
module Samples = Measure.Samples
module Trace = Measure.Trace

let now = Measure.now

(* ------------------------------------------------------------------ *)
(* Workload definitions. *)

(* Request fuel: large enough that no kept entry exhausts it, so every
   verdict is definite and cacheable. *)
let fuel = 1_000_000

(* An entry is kept only if its base decide and every step of its edit
   chain finish within this many search steps.  Selection by step count
   is deterministic, and it bounds the heavy tail of the full-decide
   fallbacks, whose cost otherwise swings from seed to seed. *)
let step_cap = 2_000

exception Too_heavy

let warm_profile =
  {
    W.default_profile with
    W.requests = 4096;
    mode = W.Closed 1;
    lang = "rem";
    k = 1;
    fuel;
    deadline_s = None;
    families = [ ("random", 256) ];
    size = 4;
    popularity = W.Zipf 1.1;
    ops = (1, 0, 0);
    edits_per_entry = 1;
  }

(* 256 chains of 10 edits: 2816 distinct digests against two 1024-entry
   verdict LRUs, so inserts evict and evicted parents come back from
   the durable store.  Few enough chains that each is revisited well
   within the router's 4096-entry chain map. *)
let edit_profile =
  {
    warm_profile with
    W.requests = 8192;
    mode = W.Closed 2;
    popularity = W.Uniform;
    ops = (3, 1, 6);
    batch_size = 4;
    edits_per_entry = 10;
  }

(* ------------------------------------------------------------------ *)
(* References. *)

type entry_ref = {
  digest : string;
  expect : string;  (* "digest":"…","result":<verdict block> *)
  chain_digests : string array;  (* digest after edit j *)
  chain_expect : string array;
  owner : int;  (* index of the shard the ring assigns [digest] to *)
  graph : Datagraph.Data_graph.t;
  relation : Datagraph.Tuple_relation.t;
  inst : Instance.t;
  outcome : Outcome.t;
}

let expect_of digest block =
  Printf.sprintf "\"digest\":\"%s\",\"result\":%s" digest block

(* A reference must be a definite verdict whose certificate, if any,
   passes the independent evaluation check. *)
let certify name inst (o : Outcome.t) =
  match o.verdict with
  | Outcome.Unknown r ->
      failwith
        (Printf.sprintf "reference %s: unknown (%s)" name (Outcome.reason_to_string r))
  | Outcome.Not_definable _ -> ()
  | Outcome.Definable c -> (
      match Outcome.check_certificate inst c with
      | Ok () -> ()
      | Error msg -> failwith (Printf.sprintf "reference %s: certificate rejected: %s" name msg))

let ring = Service.Ring.create ~vnodes:64 (Array.to_list Cluster.shard_names)

let owner_of digest =
  let s = Service.Ring.shard ring digest in
  if s = Cluster.shard_names.(0) then 0 else 1

(* Returns the reference plus the wall times of the chain's delta steps,
   split into certificate repairs and full-decide fallbacks. *)
let reference ~chain (e : W.entry) =
  let g, s =
    match Graph_io.instance_of_string e.text with
    | Ok gs -> gs
    | Error msg -> failwith (e.name ^ ": " ^ msg)
  in
  let inst = Instance.create_exn g s in
  let params = { Registry.k = e.k } in
  let outcome =
    match Registry.decide ~budget:(Engine.Budget.create ~fuel:step_cap ()) ~params ~lang:e.lang inst with
    | Ok { verdict = Outcome.Unknown _; _ } -> raise Too_heavy
    | Ok o -> o
    | Error msg -> failwith msg
  in
  certify e.name inst outcome;
  let digest = Service.Content_hash.instance_key ~lang:e.lang ~k:e.k g s in
  let m = if chain then Array.length e.edits else 0 in
  let chain_digests = Array.make m "" and chain_expect = Array.make m "" in
  let repairs = ref [] and fallbacks = ref [] in
  let cur = ref (inst, outcome, digest) in
  for j = 0 to m - 1 do
    let ci, co, ck = !cur in
    let edit =
      match Wire.resolve_edit (Instance.graph ci) e.edits.(j) with
      | Ok ed -> ed
      | Error msg -> failwith msg
    in
    let t0 = now () in
    match
      Engine.Delta.decide_delta ~budget:(Engine.Budget.create ~fuel:step_cap ()) ~params
        ~lang:e.lang ~prev:co ci edit
    with
    | Error msg -> failwith msg
    | Ok { outcome = { verdict = Outcome.Unknown _; _ }; _ } -> raise Too_heavy
    | Ok { Engine.Delta.inst = ni; outcome = no; repaired } ->
        let dt = now () -. t0 in
        if repaired then repairs := dt :: !repairs else fallbacks := dt :: !fallbacks;
        certify (Printf.sprintf "%s edit %d" e.name j) ni no;
        let nk = Service.Content_hash.chain_key ~parent:ck edit in
        chain_digests.(j) <- nk;
        chain_expect.(j) <- expect_of nk (Wire.verdict_to_string (Instance.graph ni) ~lang:e.lang no);
        cur := (ni, no, nk)
  done;
  ( {
      digest;
      expect = expect_of digest (Wire.verdict_to_string g ~lang:e.lang outcome);
      chain_digests;
      chain_expect;
      owner = owner_of digest;
      graph = g;
      relation = s;
      inst;
      outcome;
    },
    !repairs,
    !fallbacks )

(* ------------------------------------------------------------------ *)
(* Requests and response checks. *)

let decide_line (e : W.entry) =
  Wire.seal_line
    (Wire.request_to_string
       (Wire.Decide { lang = e.lang; k = Some e.k; fuel = Some fuel; timeout_s = None; instance = e.text }))

let batch_line (entries : W.entry array) idx =
  let first = entries.(idx.(0)) in
  Wire.seal_line
    (Wire.request_to_string
       (Wire.Batch
          {
            lang = first.lang;
            k = Some first.k;
            fuel = Some fuel;
            timeout_s = None;
            instances = Array.to_list (Array.map (fun i -> entries.(i).W.text) idx);
          }))

let delta_line (e : W.entry) ~digest edit =
  Wire.seal_line
    (Wire.request_to_string
       (Wire.Delta { lang = e.lang; k = Some e.k; fuel = Some fuel; timeout_s = None; digest; edit }))

let find_from s pat pos =
  let n = String.length s and m = String.length pat in
  let rec go i =
    if i + m > n then -1
    else
      let rec eq j = j = m || (String.unsafe_get s (i + j) = String.unsafe_get pat j && eq (j + 1)) in
      if eq 0 then i else go (i + 1)
  in
  go pos

let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* The typed error classes a client can act on. *)
let error_class line =
  let msg =
    match Service.Json.parse line with
    | Ok j -> (
        match Option.bind (Service.Json.member "error" j) Service.Json.to_str with
        | Some m -> m
        | None -> (
            match Option.bind (Service.Json.member "status" j) Service.Json.to_str with
            | Some s -> s
            | None -> "malformed"))
    | Error _ -> "malformed"
  in
  if has_prefix "unknown instance digest" msg then "stale_digest"
  else if has_prefix "shard_unavailable" msg || msg = "unavailable" then "shard_unavailable"
  else if has_prefix "overloaded" msg || msg = "overloaded" then "overloaded"
  else "error: " ^ msg

type verdict = Pass | Failed of string | Mismatch of string

(* An [ok] response must carry every expected digest/verdict block, in
   order (one for decide and delta, one per item for batch). *)
let check ~op line expects =
  let ok_prefix = Printf.sprintf "{\"op\":\"%s\",\"status\":\"ok\"" op in
  if not (has_prefix ok_prefix line) then Failed (error_class line)
  else
    let rec go pos = function
      | [] -> Pass
      | x :: rest ->
          let i = find_from line x pos in
          (* A batch item may fail on its own with a typed error. *)
          if i < 0 && find_from line "{\"error\":" pos >= 0 then Failed "batch_item_error"
          else if i < 0 then
            Mismatch
              (Printf.sprintf "expected %s in %s"
                 (String.sub x 0 (min 160 (String.length x)))
                 (String.sub line 0 (min 400 (String.length line))))
          else go (i + String.length x) rest
    in
    go (String.length ok_prefix) expects

(* Per-thread counters, merged after the run. *)
type tally = {
  plain : Samples.t;  (* untraced request latencies, seconds *)
  ends : Samples.t;  (* completion time of each [plain] sample *)
  traced : Samples.t;  (* latencies of requests recorded under spans *)
  mutable attempted : int;
  mutable failed : int;
  mutable mismatches : int;
  errors : (string, int) Hashtbl.t;
  mutable first_mismatch : string option;
}

let new_tally () =
  {
    plain = Samples.create ();
    ends = Samples.create ();
    traced = Samples.create ();
    attempted = 0;
    failed = 0;
    mismatches = 0;
    errors = Hashtbl.create 4;
    first_mismatch = None;
  }

let merge_tallies ts =
  let t = new_tally () in
  List.iter
    (fun x ->
      Samples.append_all t.plain x.plain;
      Samples.append_all t.ends x.ends;
      Samples.append_all t.traced x.traced;
      t.attempted <- t.attempted + x.attempted;
      t.failed <- t.failed + x.failed;
      t.mismatches <- t.mismatches + x.mismatches;
      Hashtbl.iter
        (fun k v ->
          Hashtbl.replace t.errors k (v + Option.value (Hashtbl.find_opt t.errors k) ~default:0))
        x.errors;
      if t.first_mismatch = None then t.first_mismatch <- x.first_mismatch)
    ts;
  t

let record tally v =
  match v with
  | Pass -> true
  | Failed cls ->
      tally.failed <- tally.failed + 1;
      Hashtbl.replace tally.errors cls
        (1 + Option.value (Hashtbl.find_opt tally.errors cls) ~default:0);
      false
  | Mismatch msg ->
      tally.mismatches <- tally.mismatches + 1;
      if tally.first_mismatch = None then tally.first_mismatch <- Some msg;
      false

(* ------------------------------------------------------------------ *)
(* The closed loop. *)

type conn = { addr : Wire.address; mutable c : Client.t option }

let connection c =
  match c.c with
  | Some x -> x
  | None ->
      let x = Client.connect ~retries:5 c.addr in
      c.c <- Some x;
      x

let drop c =
  (match c.c with Some x -> Client.close x | None -> ());
  c.c <- None

(* One timed request: encode, exchange (the client verifies the
   response seal), then — outside the timed bracket — the check.
   Returns the response line when it passed. *)
let request ~traced ~tally conn ~op ~expects encode =
  tally.attempted <- tally.attempted + 1;
  let t0 = now () in
  let result =
    Trace.with_ ~traced "client.request" (fun root ->
        let line = Trace.with_ ~traced ~parent:root "client.encode" (fun _ -> encode ()) in
        Trace.with_ ~traced ~parent:root "client.exchange_routed" (fun _ ->
            match Client.request_raw (connection conn) line with
            | r -> r
            | exception (Unix.Unix_error _ | Sys_error _ | End_of_file | Sys_blocked_io) ->
                Error "transport"))
  in
  let t1 = now () in
  match result with
  | Error _ ->
      drop conn;
      ignore (record tally (Failed "transport"));
      None
  | Ok line ->
      if traced && !Trace.on then Samples.add tally.traced (t1 -. t0)
      else begin
        Samples.add tally.plain (t1 -. t0);
        Samples.add tally.ends t1
      end;
      if record tally (check ~op line expects) then Some line else None

type chain = { cmu : Mutex.t; mutable cursor : int (* -1: base not decided *) }

type state = {
  wl : W.t;
  refs : entry_ref array;
  chains : chain array;
  next : int Atomic.t;
  last_response : string array;  (* per entry, for the render/seal probes *)
}

let exec st ~traced ~tally conn op =
  let entries = st.wl.W.entries in
  match op with
  | W.Decide i -> (
      match
        request ~traced ~tally conn ~op:"decide" ~expects:[ st.refs.(i).expect ] (fun () ->
            decide_line entries.(i))
      with
      | Some line -> st.last_response.(i) <- line
      | None -> ())
  | W.Batch idx ->
      ignore
        (request ~traced ~tally conn ~op:"batch"
           ~expects:(Array.to_list (Array.map (fun i -> st.refs.(i).expect) idx))
           (fun () -> batch_line entries idx))
  | W.Delta i ->
      let e = entries.(i) and r = st.refs.(i) and ch = st.chains.(i) in
      Mutex.lock ch.cmu;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock ch.cmu)
        (fun () ->
          if ch.cursor < 0 then (
            (* A cold chain starts from its base digest. *)
            match
              request ~traced ~tally conn ~op:"decide" ~expects:[ r.expect ] (fun () ->
                  decide_line e)
            with
            | Some _ -> ch.cursor <- 0
            | None -> ())
          else
            let j = ch.cursor in
            let parent = if j = 0 then r.digest else r.chain_digests.(j - 1) in
            match
              request ~traced ~tally conn ~op:"delta" ~expects:[ r.chain_expect.(j) ] (fun () ->
                  delta_line e ~digest:parent e.edits.(j))
            with
            | Some _ -> ch.cursor <- (if j + 1 = Array.length r.chain_digests then -1 else j + 1)
            | None -> ch.cursor <- -1)

(* [block] > 0 alternates untraced and traced blocks of that many
   requests (traced runs); 0 runs everything untraced. *)
let worker st ~deadline ~block addr () =
  let tally = new_tally () in
  let conn = { addr; c = None } in
  let ops = st.wl.W.ops in
  let n = ref 0 in
  while now () < deadline do
    let i = Atomic.fetch_and_add st.next 1 in
    let traced = block > 0 && !n / block land 1 = 1 in
    exec st ~traced ~tally conn ops.(i mod Array.length ops);
    incr n
  done;
  drop conn;
  tally

(* Returns the merged tally, the loop's start time and its wall time. *)
let closed_loop st ~connections ~seconds ~block addr =
  let t0 = now () in
  let deadline = t0 +. seconds in
  let results = Array.make connections None in
  let threads =
    List.init connections (fun k ->
        Thread.create (fun () -> results.(k) <- Some (worker st ~deadline ~block addr ())) ())
  in
  List.iter Thread.join threads;
  (merge_tallies (List.filter_map Fun.id (Array.to_list results)), t0, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Set-up: start the cluster and decide every entry once. *)

let fill st (cl : Cluster.t) =
  let tally = new_tally () in
  let conn = { addr = cl.router; c = None } in
  Array.iteri (fun i _ -> exec st ~traced:false ~tally conn (W.Decide i)) st.wl.W.entries;
  drop conn;
  if tally.failed > 0 || tally.mismatches > 0 then
    failwith
      (Printf.sprintf "cache fill: %d failed, %d wrong%s" tally.failed tally.mismatches
         (match tally.first_mismatch with Some m -> ": " ^ m | None -> ""))

let start_filled ~cli ~dir st =
  let t0 = now () in
  let cl = Cluster.start ~cli ~dir in
  (try fill st cl with e -> Cluster.stop cl; raise e);
  (cl, now () -. t0)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

(* The schedule restricted to the kept entries (indices renumbered; a
   batch is dropped if any of its items is). *)
let prepare ~seed ~chain profile =
  let wl = match W.build ~seed profile with Ok wl -> wl | Error msg -> failwith msg in
  let results =
    Par.Pool.map ~chunk:1
      (fun e -> match reference ~chain e with r -> Some r | exception Too_heavy -> None)
      wl.W.entries
  in
  let index = Array.make (Array.length results) (-1) and kept = ref 0 in
  Array.iteri
    (fun i r ->
      if r <> None then begin
        index.(i) <- !kept;
        incr kept
      end)
    results;
  let keep i = index.(i) >= 0 in
  let ops =
    List.filter_map
      (function
        | W.Decide i when keep i -> Some (W.Decide index.(i))
        | W.Delta i when keep i -> Some (W.Delta index.(i))
        | W.Batch a when Array.for_all keep a -> Some (W.Batch (Array.map (fun i -> index.(i)) a))
        | _ -> None)
      (Array.to_list wl.ops)
  in
  let wl =
    {
      wl with
      W.entries = Array.of_list (List.filteri (fun i _ -> keep i) (Array.to_list wl.entries));
      ops = Array.of_list ops;
    }
  in
  let results = Array.of_list (List.filter_map Fun.id (Array.to_list results)) in
  let refs = Array.map (fun (r, _, _) -> r) results in
  let repairs = List.concat_map (fun (_, r, _) -> r) (Array.to_list results) in
  let fallbacks = List.concat_map (fun (_, _, f) -> f) (Array.to_list results) in
  ( {
      wl;
      refs;
      chains = Array.map (fun _ -> { cmu = Mutex.create (); cursor = -1 }) refs;
      next = Atomic.make 0;
      last_response = Array.make (Array.length refs) "";
    },
    repairs,
    fallbacks )

let reset_chains st =
  Array.iter (fun ch -> ch.cursor <- -1) st.chains;
  Atomic.set st.next 0
