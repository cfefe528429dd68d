(** The cross-request result cache: the heart of the service — a
    {b memory tier} (LRU) layered over an optional {b durable tier}
    ({!Tier}, backed by {!Store.Log}).

    Two LRU stores, both keyed by {!Content_hash} digests:

    - a {b graph intern table} (graph key → packed [Data_graph.t]): the
      first request that mentions a graph donates its packed form, and
      every later request with the same canonical graph is decided
      against that {e interned} graph.  The per-graph derived artifacts
      — adjacency and reachability matrices (cached inside
      [Data_graph]), Hom CSPs and root domains (keyed by graph [uid])
      — are therefore built once and shared across requests, not once
      per connection.
    - a {b verdict store} (instance key → decided outcome + the instance
      it was decided on).  A hit skips the decision procedure entirely.
      An entry whose verdict carries a certificate is {e checked once},
      on its first hit: [Outcome.check_certificate] re-evaluates the
      query against the entry's own stored instance, a code path
      disjoint from the search that produced it.  A pass is remembered
      in the entry and later hits skip the check; an entry that fails
      is dropped and recomputed rather than served.  The check guards
      against a wrong or corrupted stored verdict.  It does not guard
      against key collisions: it never sees the requester's instance.

    Only [Definable] and [Not_definable] outcomes are stored: they are
    budget-independent facts about the instance.  [Unknown] outcomes
    (budget exhaustion, unsupported arity) depend on the request's
    budget and are never cached, so a later request with more fuel is
    not short-changed by an earlier timeout.

    {b Tiering.}  With a durable tier, every cacheable verdict is
    written through to the store, and a memory miss probes the store
    before deciding: a durable hit is promoted into the LRU (rebuilding
    its instance from the stored text) as an unchecked entry, checked
    like any first memory hit, and reported as a [`Hit] — callers
    cannot tell which tier served it, only the [store_hits] counter
    can.  An entry that fails its check is dropped from {e both} tiers
    and recomputed.
    Without a durable tier the cache behaves exactly as before.

    {b One rule for stored verdicts.}  Bytes are guarded by the store's
    frame CRC, checked on every read ({!Store.Log}); meaning is guarded
    by the first-hit certificate check here, and by nothing else.
    Every entry — decided, seeded, promoted from the store, or
    imported — starts unchecked and passes through the same check
    before it is served; recovery checks no certificate.

    Node {e names} are not part of the cache key (see {!Content_hash}),
    and outcomes carry node indices, not names — render a cached outcome
    with the requesting graph and the response shows the requester's
    names even on a hit.

    {b Split lookup.}  {!probe} is the cheap front half of a decide:
    hash and memory-tier lookup, nothing else.  It answers a hit on an
    entry that owes no check; everything else comes back as a
    {!pending} for {!resolve}, the back half, which runs the first-hit
    check, probes the durable tier or decides.  {!probe_text} is
    {!probe} from the request's raw instance text: a third LRU, the
    {b text memo} (sized like the verdict store), maps
    {!Content_hash.text_key} to the parsed instance and its keys, so a
    repeated text is neither parsed nor canonically hashed again.  The
    server runs {!probe_text} on the connection's handler thread and
    only {!resolve} on its domain pool.  {!decide} is {!probe} and
    {!resolve} in a row.

    Concurrency: safe to call from any number of threads.  The LRU
    stores take their own locks; the decision itself runs outside any
    lock.  Two racing requests for the same uncached instance may both
    compute it (last store wins), and two racing first hits may both
    check the same certificate — the cache trades duplicate work on
    those rare races for never blocking a request behind another's. *)

type config = {
  verdict_capacity : int;
      (** max cached outcomes, and max memoized request texts (default
          1024); the graph intern table holds at most 256 graphs *)
}

val default_config : config

type t

val create : ?config:config -> ?durable:Tier.t -> unit -> t
(** [durable] plugs in the persistent tier; the cache takes ownership
    (see {!close}). *)

val durable : t -> Tier.t option

val close : t -> unit
(** Sync and close the durable tier, if any.  The memory tier needs no
    teardown. *)

val decide :
  t ->
  ?fuel:int ->
  ?deadline_s:float ->
  ?k:int ->
  lang:string ->
  Datagraph.Data_graph.t ->
  Datagraph.Tuple_relation.t ->
  (Engine.Outcome.t * [ `Hit | `Miss ], string) result
(** Decide through the cache.  A fresh {!Engine.Budget} with the given
    fuel/deadline is created only on a miss — hits never consult the
    budget.  [Error] on an invalid instance or an unknown language.
    [k] is the [krem] register bound (default 1). *)

type pending
(** A request {!probe} could not answer, with its keys already
    computed. *)

val probe :
  t ->
  ?k:int ->
  lang:string ->
  Datagraph.Data_graph.t ->
  Datagraph.Tuple_relation.t ->
  [ `Hit of Engine.Outcome.t * string | `Pending of pending ]
(** The front half of {!decide}: hash the instance (under the
    [service.cache.hash] span) and look it up in the memory tier only.
    [`Hit (outcome, digest)] for an entry that owes no certificate
    check — already checked, or carrying no certificate; it counts a
    verdict hit and times [cache.hit].  Never checks a
    certificate, reads the durable tier or decides, so it is cheap
    enough for a thread that must not block. *)

val probe_text :
  t ->
  ?k:int ->
  lang:string ->
  string ->
  ( Datagraph.Data_graph.t
    * [ `Hit of Engine.Outcome.t * string | `Pending of pending ],
    string )
  result
(** {!probe} on an instance given as text: the same answer, and the
    same digest, as parsing the text and calling {!probe}.  The text's
    {!Content_hash.text_key} is computed under the [service.cache.hash]
    span and looked up in the text memo; only a memo miss parses the
    text and hashes the instance, then remembers the parsed instance
    and its keys.  The graph returned is the one parsed from {e this}
    text (possibly on an earlier request with the same bytes), so a
    verdict rendered with it shows the requester's node names — the
    interned graph a hit was decided on may carry another requester's.
    [Error] is the parser's message; a text that does not parse is
    never memoized.  Counts [text_hits] and [text_misses]. *)

val resolve :
  t ->
  ?fuel:int ->
  ?deadline_s:float ->
  pending ->
  (Engine.Outcome.t * [ `Hit | `Miss ] * string, string) result
(** The back half of {!decide}: check a found entry's certificate
    (once per entry), else probe the durable tier, else decide with a
    fresh budget.  Also returns the instance digest under which the
    verdict is stored — the handle a client quotes back in a [delta]
    request to edit this instance incrementally. *)

val find_instance : t -> string -> Engine.Instance.t option
(** The instance stored under a digest, if still cached — the server
    resolves edit node names against its graph before {!apply_edit}.
    Runs no certificate check: the entry only feeds an edit, and
    {!Engine.Delta.decide_delta} re-checks the stored certificate on
    the edited instance or decides afresh. *)

type delta_outcome = {
  outcome : Engine.Outcome.t;
  inst : Engine.Instance.t;  (** the edited instance (for rendering) *)
  key : string option;
      (** chained digest addressing the edited instance; [None] when the
          outcome was not stored (an [Unknown] verdict), so no later
          request could resolve it *)
  repaired : bool;  (** fast path vs. full-decide fallback *)
}

val apply_edit :
  t ->
  ?fuel:int ->
  ?deadline_s:float ->
  ?k:int ->
  lang:string ->
  key:string ->
  Engine.Delta.graph_edit ->
  (delta_outcome, string) result
(** Incremental step: look up the instance stored under [key], apply the
    edit through {!Engine.Delta.decide_delta} (certificate repair first,
    budgeted full decide on repair miss), and store the result under the
    {e chained} key [Content_hash.chain_key ~parent:key edit] — O(edit)
    hashing, no graph re-serialization.  [Error] when [key] is not in
    the verdict store (never decided, or evicted): the caller must
    cold-decide first.  [lang] and [k] must match the original decide —
    a mismatch is safe (the fallback recomputes in the given language)
    but wastes the fast path. *)

val insert :
  t ->
  ?k:int ->
  lang:string ->
  Datagraph.Data_graph.t ->
  Datagraph.Tuple_relation.t ->
  Engine.Outcome.t ->
  (unit, string) result
(** Seed the verdict store directly (tests and warm-up tooling).  The
    outcome is stored unconditionally and unchecked, so the check on
    its first hit is what stands between a bogus seed and the caller. *)

val export_hot : t -> limit:int -> (string * string) list
(** The (at most [limit]) most recently used memory-tier entries,
    most-recent first, each as [(digest, encoded record)] in the
    {!Tier} codec — the payload of a warm transfer. *)

val import : t -> key:string -> string -> (unit, string) result
(** Admit one encoded record (from {!export_hot}, possibly via another
    process): decode it, run the same certificate check a first hit
    runs (counted in [revalidation_ok] / [revalidation_failures]), and
    write it through both tiers as an already-checked entry.  [Error]
    on a record that does not decode or whose certificate does not
    check — a corrupt or hostile transfer is refused, never stored. *)

val stats : t -> (string * int) list
(** {!counters} and {!gauges} together, sorted by name. *)

val counters : t -> (string * int) list
(** This cache's monotone event counts: [verdict_hits],
    [verdict_misses], [store_hits], [store_misses], [store_drops],
    [store_write_failures] (durable writes that did not land; the
    verdict is still served from memory), [revalidation_ok], [revalidation_failures], [graph_hits],
    [graph_misses], [delta_repair_hits], [delta_repair_misses],
    [verdict_evictions], [graph_evictions], [text_hits],
    [text_misses].  Counted per cache, always on; the server publishes
    them in its [stats] and [metrics] snapshot as [service.cache.<key>]
    — there is no second copy in the [Obs] registry. *)

val gauges : t -> (string * int) list
(** Current readings: [verdict_size], [graph_size], [text_size] —
    plus, with a durable tier, {!Tier.stats} prefixed [store_]. *)
