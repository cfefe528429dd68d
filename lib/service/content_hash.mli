(** Content-addressed keys for graphs and definability instances.

    The service's caches are keyed by a {e canonical} serialization of
    the problem content, so two requests that pose the same problem hit
    the same cache line no matter how the instance file spelled it:

    - {b node names are ignored} — nodes are serialized by their dense
      index.  Names are presentation only; the cached outcome carries
      node indices and is re-rendered with the requester's names.
    - {b data values are canonicalized} up to bijective renaming: each
      node records the first-occurrence rank of its value, not the value
      itself.  The query languages only observe (in)equality of values
      (Fact 10: REM/REE languages are closed under automorphisms of the
      data domain), so instances that differ by a value automorphism
      have the same verdict — and the same key.
    - {b edges are sorted} by (label, source, target), so the order of
      [edge] lines in the input does not matter.
    - edge {e labels} and the relation's tuples are serialized verbatim:
      both are observable (labels appear in certificates, tuples are the
      problem statement).

    Keys are MD5 digests (stdlib [Digest]) of the canonical bytes,
    rendered as 32-char lowercase hex.  The cache trusts a key match: a
    hit serves the stored verdict without comparing instances (the
    cache's certificate check re-evaluates the {e stored} instance, so
    it cannot catch a collision).  That rests on 128 bits putting
    accidental collisions out of reach; MD5's known collision attacks
    need a party crafting both colliding inputs, and the cache is a
    performance layer, not a security boundary.

    The bytes are stable: durable stores and the router's ring
    placement are keyed by these digests, and golden values pin them
    in the tests. *)

val graph_bytes : Datagraph.Data_graph.t -> string
(** The canonical serialization of the graph alone (exposed for tests
    and debugging; the digest is what the caches use). *)

val graph_key : Datagraph.Data_graph.t -> string
(** 32-char hex digest of {!graph_bytes}. *)

val instance_bytes :
  lang:string ->
  k:int ->
  Datagraph.Data_graph.t ->
  Datagraph.Tuple_relation.t ->
  string
(** Canonical serialization of the whole problem: graph bytes, the
    relation's arity and sorted tuples, the language name, and the
    register bound [k] (only [krem] reads it, but keying on it
    unconditionally is cheap and can never serve a wrong verdict). *)

val instance_key :
  lang:string ->
  k:int ->
  Datagraph.Data_graph.t ->
  Datagraph.Tuple_relation.t ->
  string
(** 32-char hex digest of {!instance_bytes}. *)

val keys :
  lang:string ->
  k:int ->
  Datagraph.Data_graph.t ->
  Datagraph.Tuple_relation.t ->
  string * string
(** [(graph_key, instance_key)], serializing the graph only once — the
    cache's lookup path. *)

(** {2 Digest chaining}

    An edit stream addresses its instances by {e chained} keys:
    [chain_key ~parent edit] hashes the parent's key plus the canonical
    edit bytes — O(edit size), never O(graph size) — so a warm server
    follows a stream without re-serializing the graph at every step.
    Chained keys are {e not} content keys: the same edited content
    reached via different edit paths (or via a cold [decide]) gets a
    different key, costing a potential duplicate compute but never a
    wrong answer: a chained entry is only ever the base of the next
    edit, and [Engine.Delta] re-checks its certificate on the edited
    instance or decides afresh.  Chained keys also skip the data-value
    canonicalization of {!graph_bytes} — same tradeoff. *)

val edit_bytes : Engine.Delta.graph_edit -> string
(** Canonical serialization of one edit ([Set_relation] tuples are
    sorted; labels and names length-prefixed). *)

val chain_key : parent:string -> Engine.Delta.graph_edit -> string
(** 32-char hex digest of the parent key plus {!edit_bytes}. *)

(** {2 Request-text keys}

    A request's instance arrives as text, and both the router and the
    owning shard need its {!instance_key}, which costs a parse and a
    canonical serialization.  Both memoize that work under a digest of
    the raw bytes, so a repeat of the same request text is placed and
    looked up without parsing it. *)

val text_key : lang:string -> k:int -> string -> string
(** 32-char hex digest of the length-prefixed [lang], then [k], then
    the raw instance text, under its own domain tag ([defsvc-text/1]),
    so it can never equal a graph, instance or chained key.

    Two spellings of one problem (renamed nodes, reordered lines, extra
    whitespace or comments) get {e different} text keys and the same
    instance key: a text key names bytes, not content.  That is why it
    is only ever a memo key in memory, never persisted or sent on the
    wire: every value memoized under it (the parsed instance, its
    graph and instance keys) is a pure function of the key's input, so
    a memo entry never goes stale, and its collision exposure is the
    same MD5 the content keys rely on. *)
