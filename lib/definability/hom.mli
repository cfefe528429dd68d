(** Data graph homomorphisms (Definition 33): mappings [h : V → V] such
    that

    + (single step compatibility) [p -a-> q] implies [h(p) -a-> h(q)], and
    + (data compatibility of reachable nodes) whenever [q] is reachable
      from [p], [ρ(p) = ρ(q) ⇔ ρ(h(p)) = ρ(h(q))].

    Lemma 34: a relation is UCRDPQ-definable iff it is preserved by every
    data graph homomorphism.

    Both conditions are binary constraints over node images, so the
    searches below run as a CSP: arc consistency over the edge and data
    constraints, revised straight on the graph's successor, predecessor
    and value-class word rows, then backtracking on the smallest
    domain.  The
    violation search additionally prunes subtrees in which every tuple of
    the target relation can only land inside the relation — without this,
    deciding preservation would enumerate all homomorphisms, of which
    even small instances have exponentially many. *)

type t = int array
(** [h.(p)] is the image of node [p]. *)

val is_hom : Datagraph.Data_graph.t -> t -> bool

val identity : Datagraph.Data_graph.t -> t

type csp_handle
(** The compiled constraint system of a graph — a pure function of the
    graph, exposed so callers (e.g. {!Engine.Instance} memo slots) can
    build it once and reuse it across many relation checks. *)

val csp_of : Datagraph.Data_graph.t -> csp_handle

val root_domains : Datagraph.Data_graph.t -> int list array option
(** The arc-consistent domains every search starts from: the values of
    each node's image, ascending.  [None] would mean that arc
    consistency wiped a domain out; the identity homomorphism survives
    every revise, so that never happens.  The fixpoint is unique, so it
    does not depend on the revision order. *)

type violation_outcome = {
  result : [ `Preserved | `Violation of t * int list | `Budget_exhausted ];
      (** [`Violation (h, p)]: homomorphism [h] and a tuple [p ∈ S] with
          [h(p) ∉ S] *)
  nodes_explored : int;  (** backtracking nodes visited *)
}

val search_violating :
  ?budget:Engine.Budget.t ->
  ?csp:csp_handle ->
  Datagraph.Data_graph.t ->
  Datagraph.Tuple_relation.t ->
  violation_outcome
(** Budgeted preservation check: each backtracking node consumes one step
    of [budget]; exhaustion aborts with [`Budget_exhausted]. *)

val find_violating :
  Datagraph.Data_graph.t -> Datagraph.Tuple_relation.t -> t option
(** A homomorphism [h] with [h(p) ∉ S] for some tuple [p ∈ S], if any —
    a certificate of non-UCRDPQ-definability.  Unbudgeted wrapper around
    {!search_violating}. *)

val count : ?limit:int -> Datagraph.Data_graph.t -> int
(** Number of data graph homomorphisms, counting at most [limit]
    (default [1_000_000]) — a statistic for the benchmarks. *)

val all : ?limit:int -> Datagraph.Data_graph.t -> t list
(** All data graph homomorphisms (at most [limit], default [100_000]).
    Shared precomputation for {!Census}: preservation of any relation can
    then be checked against the list directly. *)

val pp : Datagraph.Data_graph.t -> Format.formatter -> t -> unit
