module Data_graph = Datagraph.Data_graph
module Graph_io = Datagraph.Graph_io
module Tuple_relation = Datagraph.Tuple_relation
module Outcome = Engine.Outcome
module Instance = Engine.Instance
module Budget = Engine.Budget
module Registry = Engine.Registry

type config = { verdict_capacity : int }

let default_config = { verdict_capacity = 1024 }

(* The graph intern table's bound.  Interned graphs only share derived
   artifacts between requests; a verdict entry pins its own graph. *)
let interned_graphs = 256

(* The memory tier's entry: the instance is stored alongside the outcome
   so the certificate can be checked without re-validating and
   re-packing the problem; it pins the interned graph (and its derived
   artifacts) for as long as the verdict lives, even past graph-store
   eviction.  [lang]/[k] ride along so the entry can be re-encoded for
   the durable tier and for warm transfer without a reverse lookup.

   [checked] records that the certificate passed [check_certificate] on
   [inst].  Both are immutable, so the check is a pure function of the
   entry and its result holds for every later hit: the first hit pays
   for it, later hits skip it.  Set once, from [false] to [true], by
   whichever domain ran the check; the atomic publishes it to the
   handler threads that read it. *)
type entry = {
  outcome : Outcome.t;
  inst : Instance.t;
  lang : string;
  k : int;
  checked : bool Atomic.t;
}

let entry ~lang ~k inst outcome =
  { outcome; inst; lang; k; checked = Atomic.make false }

type t = {
  verdicts : entry Lru.t;
  durable : Tier.t option;
  graphs : Data_graph.t Lru.t;
  (* Request text → what [probe] derives from it: the requester's own
     parsed instance (a hit is rendered with the requester's node names,
     which the interned graph may not carry) and its graph and instance
     keys.  Keyed by [Content_hash.text_key], so every value is a pure
     function of its key and never goes stale. *)
  texts : (Data_graph.t * Tuple_relation.t * string * string) Lru.t;
  (* Per-cache event counts: the server renders them into its [stats]
     and [metrics] snapshot as [service.cache.<key>]. *)
  verdict_hits : int Atomic.t;
  verdict_misses : int Atomic.t;
  store_hits : int Atomic.t;
  store_misses : int Atomic.t;
  store_drops : int Atomic.t;
  store_write_failures : int Atomic.t;
  revalidation_ok : int Atomic.t;
  revalidation_failures : int Atomic.t;
  graph_hits : int Atomic.t;
  graph_misses : int Atomic.t;
  repair_hits : int Atomic.t;
  repair_misses : int Atomic.t;
}

(* Tier latency histograms: a hit costs hashing + (on an entry's first
   hit) the certificate check, a miss costs a full decide — separating
   them is what lets the metrics plane show the bimodal shape instead of
   one meaningless average. *)
let h_hit = Obs.Histogram.make "cache.hit"
let h_miss = Obs.Histogram.make "cache.miss"

let create ?(config = default_config) ?durable () =
  {
    verdicts = Lru.create ~capacity:config.verdict_capacity;
    durable;
    graphs = Lru.create ~capacity:interned_graphs;
    texts = Lru.create ~capacity:config.verdict_capacity;
    verdict_hits = Atomic.make 0;
    verdict_misses = Atomic.make 0;
    store_hits = Atomic.make 0;
    store_misses = Atomic.make 0;
    store_drops = Atomic.make 0;
    store_write_failures = Atomic.make 0;
    revalidation_ok = Atomic.make 0;
    revalidation_failures = Atomic.make 0;
    graph_hits = Atomic.make 0;
    graph_misses = Atomic.make 0;
    repair_hits = Atomic.make 0;
    repair_misses = Atomic.make 0;
  }

let durable t = t.durable

let close t =
  match t.durable with None -> () | Some d -> Tier.close d

(* Two canonically-equal graphs have identical index structure (node
   count, sorted edge list, value partition in index order), so a
   relation expressed over one is valid verbatim over the other — the
   intern substitution below never remaps node ids. *)
let intern_graph_keyed t gkey g =
  match Lru.find t.graphs gkey with
  | Some g0 ->
      Atomic.incr t.graph_hits;
      g0
  | None ->
      Atomic.incr t.graph_misses;
      Lru.put t.graphs gkey g;
      g

let intern_graph t g = intern_graph_keyed t (Content_hash.graph_key g) g

let cacheable (o : Outcome.t) =
  match o.verdict with
  | Outcome.Definable _ | Outcome.Not_definable _ -> true
  | Outcome.Unknown _ -> false

(* A durable write that did not land (a torn or failed append, which
   the log has already cut back off) costs durability, not the answer:
   the memory tier still holds the verdict, and the failure is
   counted. *)
let write_durable t f =
  try f () with Store.Log.Append_failed _ -> Atomic.incr t.store_write_failures

(* Write-through: the memory tier serves the hot set, the durable tier
   (when configured) makes the verdict survive eviction and restart. *)
let store t key (e : entry) =
  Lru.put t.verdicts key e;
  match t.durable with
  | None -> ()
  | Some d ->
      Obs.Span.with_ "service.cache.store_put" @@ fun () ->
      write_durable t (fun () ->
          Tier.put d key
            { Tier.lang = e.lang; k = e.k; inst = e.inst; outcome = e.outcome })

(* Promote a durable record into the memory tier.  The decoded entry
   carries its own rebuilt instance; nothing above needs to know the
   verdict crossed a disk boundary. *)
let find_durable t key =
  match t.durable with
  | None -> None
  | Some d -> (
      match Obs.Span.with_ "service.cache.store_find" (fun () -> Tier.find d key) with
      | None ->
          Atomic.incr t.store_misses;
          None
      | Some { Tier.lang; k; inst; outcome } ->
          Atomic.incr t.store_hits;
          (* [Tier.find] decodes without the check: the first hit does it. *)
          let e = entry ~lang ~k inst outcome in
          Lru.put t.verdicts key e;
          Some e)

let find_entry t key =
  match Lru.find t.verdicts key with
  | Some _ as s -> s
  | None -> find_durable t key

let drop t key =
  Lru.remove t.verdicts key;
  match t.durable with
  | None -> ()
  | Some d ->
      Atomic.incr t.store_drops;
      write_durable t (fun () -> Tier.remove d key)

(* The certificate an entry still owes its one check, if any (see
   [entry]). *)
let unchecked_certificate e =
  if Atomic.get e.checked then None else Outcome.certificate e.outcome

let check_entry t e =
  match unchecked_certificate e with
  | None -> Ok ()
  | Some cert -> (
      match
        Obs.Span.with_ "service.cache.revalidate" (fun () ->
            Outcome.check_certificate e.inst cert)
      with
      | Ok () ->
          Atomic.incr t.revalidation_ok;
          Atomic.set e.checked true;
          Ok ()
      | Error _ as err ->
          Atomic.incr t.revalidation_failures;
          err)

(* What [probe] hands to [resolve]: the request and its keys, so the
   back half neither re-parses nor re-hashes; the memory-tier entry that
   still owes its check, if one was found; and the time the front half
   took, so [cache.hit]/[cache.miss] time the cache's whole share of the
   request however it was split. *)
type pending = {
  gkey : string;
  ikey : string;
  lang : string;
  k : int;
  g : Data_graph.t;
  s : Tuple_relation.t;
  found : entry option;
  probe_s : float;
}

let hash_keys ~lang ~k g s =
  Obs.Span.with_ "service.cache.hash" @@ fun () -> Content_hash.keys ~lang ~k g s

(* The memory-tier lookup, on keys already computed; [t0] is when the
   front half started. *)
let lookup t ~t0 ~lang ~k g s ~gkey ~ikey =
  match Lru.find t.verdicts ikey with
  | Some e when unchecked_certificate e = None ->
      Atomic.incr t.verdict_hits;
      Obs.Histogram.record_s h_hit (Unix.gettimeofday () -. t0);
      `Hit (e.outcome, ikey)
  | found ->
      `Pending
        { gkey; ikey; lang; k; g; s; found; probe_s = Unix.gettimeofday () -. t0 }

let probe t ?(k = 1) ~lang g s =
  let t0 = Unix.gettimeofday () in
  let gkey, ikey = hash_keys ~lang ~k g s in
  lookup t ~t0 ~lang ~k g s ~gkey ~ikey

(* A repeat of a request text skips the parse and the canonical hash:
   the text digest, under the same [service.cache.hash] span, stands in
   for both.  A parse error is never memoized. *)
let probe_text t ?(k = 1) ~lang text =
  let t0 = Unix.gettimeofday () in
  let tkey =
    Obs.Span.with_ "service.cache.hash" @@ fun () ->
    Content_hash.text_key ~lang ~k text
  in
  match Lru.find t.texts tkey with
  | Some (g, s, gkey, ikey) -> Ok (g, lookup t ~t0 ~lang ~k g s ~gkey ~ikey)
  | None -> (
      match Graph_io.instance_of_string text with
      | Error _ as e -> e
      | Ok (g, s) ->
          (* Time the cache's share, as [probe] does: not the parse. *)
          let t0 = Unix.gettimeofday () in
          let gkey, ikey = hash_keys ~lang ~k g s in
          Lru.put t.texts tkey (g, s, gkey, ikey);
          Ok (g, lookup t ~t0 ~lang ~k g s ~gkey ~ikey))

let resolve_inner t ?fuel ?deadline_s p =
  let serve_miss () =
    Atomic.incr t.verdict_misses;
    let g = intern_graph_keyed t p.gkey p.g in
    match Instance.create g p.s with
    | Error _ as e -> e
    | Ok inst -> (
        let budget = Budget.create ?fuel ?deadline_s () in
        match
          Registry.decide ~budget ~params:{ Registry.k = p.k } ~lang:p.lang inst
        with
        | Error _ as e -> e
        | Ok outcome ->
            if cacheable outcome then
              store t p.ikey (entry ~lang:p.lang ~k:p.k inst outcome);
            Ok (outcome, `Miss, p.ikey))
  in
  let found =
    match p.found with Some _ as f -> f | None -> find_entry t p.ikey
  in
  match found with
  | None -> serve_miss ()
  | Some e -> (
      match check_entry t e with
      | Ok () ->
          Atomic.incr t.verdict_hits;
          Ok (e.outcome, `Hit, p.ikey)
      | Error _ ->
          (* A poisoned or stale entry: drop it (from both tiers) and
             recompute instead of serving a certificate that does not
             check. *)
          drop t p.ikey;
          serve_miss ())

let resolve t ?fuel ?deadline_s p =
  let t0 = Unix.gettimeofday () in
  let r = resolve_inner t ?fuel ?deadline_s p in
  let elapsed () = p.probe_s +. (Unix.gettimeofday () -. t0) in
  (match r with
  | Ok (_, `Hit, _) -> Obs.Histogram.record_s h_hit (elapsed ())
  | Ok (_, `Miss, _) -> Obs.Histogram.record_s h_miss (elapsed ())
  | Error _ -> ());
  r

let decide t ?fuel ?deadline_s ?k ~lang g s =
  match probe t ?k ~lang g s with
  | `Hit (outcome, _key) -> Ok (outcome, `Hit)
  | `Pending p ->
      Result.map
        (fun (outcome, origin, _key) -> (outcome, origin))
        (resolve t ?fuel ?deadline_s p)

let find_instance t key = Option.map (fun e -> e.inst) (find_entry t key)

type delta_outcome = {
  outcome : Outcome.t;
  inst : Instance.t;
  key : string option;
  repaired : bool;
}

(* [Engine.Delta] counts repair outcomes process-wide
   (delta.repair_hit / delta.repair_miss); the atomics here count them
   for this cache. *)
let apply_edit t ?fuel ?deadline_s ?(k = 1) ~lang ~key edit =
  match find_entry t key with
  | None ->
      Error
        (Printf.sprintf
           "unknown instance digest %s (cold-decide it first; it may also have \
            been evicted)"
           key)
  | Some { outcome = prev; inst; _ } -> (
      let budget = Budget.create ?fuel ?deadline_s () in
      match
        Engine.Delta.decide_delta ~budget ~params:{ Registry.k } ~lang ~prev
          inst edit
      with
      | Error _ as e -> e
      | Ok { Engine.Delta.inst = inst'; outcome; repaired } ->
          Atomic.incr (if repaired then t.repair_hits else t.repair_misses);
          (* The chained key costs O(edit), not O(graph): the edited
             instance is addressable by the follow-up delta request
             without re-canonicalizing the graph. *)
          let key' =
            if cacheable outcome then begin
              let key' = Content_hash.chain_key ~parent:key edit in
              store t key' (entry ~lang ~k inst' outcome);
              Some key'
            end
            else None
          in
          Ok { outcome; inst = inst'; key = key'; repaired })

let insert t ?(k = 1) ~lang g s outcome =
  let g = intern_graph t g in
  match Instance.create g s with
  | Error _ as e -> e
  | Ok inst ->
      store t (Content_hash.instance_key ~lang ~k g s) (entry ~lang ~k inst outcome);
      Ok ()

(* Warm transfer: the most recently used memory-tier entries, encoded in
   the tier record format (hex on the wire).  [import] is the mirror —
   decode, run the first-hit check, and write through both tiers, so a
   transferred entry is indistinguishable from a locally decided one
   that has been hit once. *)
let export_hot t ~limit =
  List.map
    (fun (key, (e : entry)) ->
      ( key,
        Tier.encode
          { Tier.lang = e.lang; k = e.k; inst = e.inst; outcome = e.outcome } ))
    (Lru.hot t.verdicts limit)

let import t ~key raw =
  match Tier.decode raw with
  | Error _ as e -> e
  | Ok { Tier.lang; k; inst; outcome } -> (
      let e = entry ~lang ~k inst outcome in
      match check_entry t e with
      | Error msg -> Error ("certificate check: " ^ msg)
      | Ok () ->
          store t key e;
          Ok ())

let counters t =
  List.map
    (fun (k, a) -> (k, Atomic.get a))
    [
      ("verdict_hits", t.verdict_hits);
      ("verdict_misses", t.verdict_misses);
      ("store_hits", t.store_hits);
      ("store_misses", t.store_misses);
      ("store_drops", t.store_drops);
      ("store_write_failures", t.store_write_failures);
      ("revalidation_ok", t.revalidation_ok);
      ("revalidation_failures", t.revalidation_failures);
      ("graph_hits", t.graph_hits);
      ("graph_misses", t.graph_misses);
      ("delta_repair_hits", t.repair_hits);
      ("delta_repair_misses", t.repair_misses);
    ]
  @ [
      ("verdict_evictions", Lru.evictions t.verdicts);
      ("graph_evictions", Lru.evictions t.graphs);
      ("text_hits", Lru.hits t.texts);
      ("text_misses", Lru.misses t.texts);
    ]

let gauges t =
  ("verdict_size", Lru.length t.verdicts)
  :: ("graph_size", Lru.length t.graphs)
  :: ("text_size", Lru.length t.texts)
  ::
  (match t.durable with
  | None -> []
  | Some d -> List.map (fun (k, v) -> ("store_" ^ k, v)) (Tier.stats d))

let stats t = List.sort compare (counters t @ gauges t)
