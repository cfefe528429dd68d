(** Data graphs (Definition 1): finite directed graphs with edges labeled by
    letters of a finite alphabet [Σ] and nodes labeled by data values from a
    countably infinite domain [D].

    Nodes are dense integer indices [0 .. size g - 1]; every node also
    carries a human-readable name.  Edge labels are interned: algorithms can
    work with the dense label indices [0 .. label_count g - 1] and translate
    back with {!label_name}. *)

type node = int
type label = string

type t

(** {1 Construction} *)

val make :
  nodes:(string * Data_value.t) list ->
  edges:(string * label * string) list ->
  t
(** [make ~nodes ~edges] builds a data graph from named nodes.  Node indices
    are assigned in list order.
    @raise Invalid_argument on duplicate node names, dangling edge endpoints
    or duplicate edges. *)

val build :
  values:Data_value.t array -> edges:(node * label * node) list -> t
(** Index-based constructor; node [i] is named ["v<i>"]. *)

val of_resolved :
  names:string array ->
  values:Data_value.t array ->
  labels:label array ->
  edges:(node * int * node) list ->
  t
(** The constructor under {!make}, for a caller that has resolved names
    itself (the instance parser): [edges] are (source, label id, target)
    in input order, label ids index [labels], and [labels] lists each
    label once, in the order of the first edge that carries it.  The
    graph is the one {!make} builds from the same nodes and edges.
    [names] must be distinct and the endpoints in range; neither is
    checked.
    @raise Invalid_argument on a duplicate edge. *)

(** {1 Basic accessors} *)

val size : t -> int
(** Number of nodes [n]. *)

val uid : t -> int
(** Unique per constructed graph.  Graphs are immutable, so derived
    structures (CSPs, matrices) keyed by [uid] never need invalidation —
    this backs the per-graph caches in [Hom] and friends. *)

val nodes : t -> node list
(** [0; 1; ...; size g - 1]. *)

val value : t -> node -> Data_value.t
(** The data value [ρ(v)] of a node. *)

val same_value : t -> node -> node -> bool
(** [same_value g u v] iff [ρ(u) = ρ(v)] — the node partition of the title. *)

val name : t -> node -> string
val node_of_name : t -> string -> node
(** @raise Not_found if no node has this name. *)

val domain : t -> Data_value.t list
(** The distinct data values [D_G] used in the graph, sorted. *)

val delta : t -> int
(** [δ], the number of distinct data values ([List.length (domain g)]). *)

val value_index : t -> node -> int
(** Index of [ρ(v)] within [domain g]: a dense id in [0 .. delta g - 1]. *)

(** {1 Alphabet and edges} *)

val alphabet : t -> label list
(** Distinct edge labels in interning order. *)

val label_count : t -> int

val label_id : t -> label -> int
(** @raise Not_found if the label does not occur in the graph. *)

val label_id_opt : t -> label -> int option
val label_name : t -> int -> label

val edges : t -> (node * label * node) list
(** Edges in input order with resolved label names; precomputed at build
    time, O(1). *)

val edge_count : t -> int
(** O(1): stored at build time. *)

val mem_edge : t -> node -> label -> node -> bool
(** O(1): one bit probe of the cached adjacency matrix.  Out-of-range
    endpoints and unknown labels answer [false]. *)

val succ : t -> node -> label -> node list
(** [succ g u a] lists all [v] with an [a]-labeled edge [u -> v].  A label
    absent from the graph yields []. *)

val succ_id : t -> node -> int -> node list
(** Like {!succ} with a dense label id. *)

val succ_all : t -> node -> (int * node) list
(** All outgoing edges of a node as (label id, target) pairs. *)

(** {1 Paths} *)

type path = { start : node; steps : (label * node) list }
(** A path [v1 a1 v2 a2 ... vm] (paper, Section 2). *)

val is_path : t -> path -> bool
(** Are all steps edges of the graph? *)

val data_path_of : t -> path -> Data_path.t
(** The data path [w_ξ] of a path [ξ]: replace every node by its data value.
    @raise Invalid_argument if [ξ] is not a path of [g]. *)

val connects : t -> Data_path.t -> (node * node) list
(** [connects g w] lists all pairs [(u, v)] such that [u -w-> v], i.e. some
    path of [g] from [u] to [v] has data path exactly [w]. *)

(** {1 Transformations} *)

val map_values : (Data_value.t -> Data_value.t) -> t -> t
(** Relabel every node's data value (e.g. [G_π] for a renaming [π]). *)

val constant_values : t -> t
(** All nodes relabeled with one shared data value — the Theorem 32
    embedding of plain graphs into data graphs. *)

val disjoint_union : t -> t -> t * (node -> node)
(** [disjoint_union g1 g2] returns the union graph and the embedding of
    [g2]'s nodes into it ([g1]'s nodes keep their indices).  Node names of
    [g2] are suffixed with ["'"] where needed to stay unique. *)

val reachable : t -> node -> bool array
(** Nodes reachable from a node by a (possibly empty) path, any labels.
    A row of {!reachability_matrix}, decoded. *)

(** {1 Incremental edits}

    Each edit returns a {e new} graph (fresh {!uid}) sharing all
    unchanged structure with its parent.  The parent's packed matrices
    are inherited and patched instead of rebuilt: an edge insertion
    copies one per-label matrix and updates the reachability closure
    with one row sweep ([R'(x,y) = R(x,y) or (R(x,u) and R(v,y))]); a
    deletion patches the adjacency and recomputes the closure from it;
    a node addition resizes the matrices, so its caches restart empty
    and rebuild lazily.  Derived caches keyed by {!uid} (Hom CSPs, REM
    memos) miss on the new graph by construction — no invalidation
    hooks needed. *)

val add_edge : t -> node -> label -> node -> t
(** [add_edge g u a v] adds the edge [u -a-> v]; a label not yet in the
    alphabet is interned at the end.
    @raise Invalid_argument on out-of-range endpoints or if the edge is
    already present. *)

val remove_edge : t -> node -> label -> node -> t
(** [remove_edge g u a v] removes the edge [u -a-> v].  The label stays
    interned even if no edge uses it anymore (label ids never shift).
    @raise Invalid_argument if the edge is not present. *)

val add_node : t -> string -> Data_value.t -> t
(** [add_node g name d] appends an isolated node with the given name and
    data value; its index is [size g].
    @raise Invalid_argument on a duplicate node name. *)

val audit_edits : bool ref
(** When true, every edit cross-checks its patched matrices against a
    scratch rebuild and raises [Failure] on any divergence.  Off by
    default (it costs a full rebuild per edit); the test suite enables
    it. *)

(** {1 Packed adjacency and reachability}

    A graph is immutable once constructed, so both caches below are
    built lazily on first use and shared by every subsequent call.
    Callers must treat the returned matrices as read-only. *)

val adjacency_matrix : t -> int -> Util.Bitmatrix.t
(** [adjacency_matrix g a]: the n×n bit-matrix of the [a]-labeled edges,
    by dense label id.  Row [u] is the successor set of [u]. *)

val reachability_matrix : t -> Util.Bitmatrix.t
(** The reflexive-transitive closure of the edge relation (any label):
    bit [(u, v)] iff some (possibly empty) path leads from [u] to [v].
    Built once per graph — the per-call DFS sweeps this replaces were
    the dominant cost of [Hom.is_hom] and [Hom.build_csp]. *)

val pp : Format.formatter -> t -> unit
