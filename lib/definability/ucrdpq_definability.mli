(** UCRDPQ-definability (Section 5) — coNP-complete (Theorem 35).

    By Lemma 34, a relation [S] (of any arity) is definable by a union of
    conjunctive regular data path queries iff every data graph
    homomorphism preserves [S].  The checker searches for a violating
    homomorphism; when none exists, {!defining_query} emits the canonical
    query of the Lemma 34 proof — one CRDPQ per tuple of [S], all sharing
    the body [φ_G] that pins valuations to homomorphisms using one atom
    per edge plus [(Σ⁺)=] and [(Σ⁺)≠] atoms for reachable pairs. *)

type report = {
  definable : bool;
  violation : (Hom.t * int list) option;
      (** a homomorphism [h] and a tuple [p ∈ S] with [h(p) ∉ S] *)
}

val check :
  Datagraph.Data_graph.t -> Datagraph.Tuple_relation.t -> report

val is_definable :
  Datagraph.Data_graph.t -> Datagraph.Tuple_relation.t -> bool

val is_definable_binary :
  Datagraph.Data_graph.t -> Datagraph.Relation.t -> bool

val canonical_query :
  Datagraph.Data_graph.t ->
  Datagraph.Tuple_relation.t ->
  Query_lang.Conjunctive.t
(** The Lemma 34 query — one CRDPQ per tuple of [S] over the shared body
    [φ_G(x̄)]: one variable ["x<i>"] per node, an atom per edge and per
    reachable pair's data (in)equality, and a trivial [xi -eps-> xi]
    atom per node so every variable occurs — {e without} checking
    definability first: it defines [S]
    exactly when [S] is preserved by every homomorphism.  For the empty
    relation the result is the empty union [[]]. *)

val defining_query :
  Datagraph.Data_graph.t ->
  Datagraph.Tuple_relation.t ->
  Query_lang.Conjunctive.t option
(** The canonical defining UCRDPQ, or [None] if not definable.  For the
    empty relation the result is the empty union [[]] (which
    {!Query_lang.Conjunctive.eval} rejects; it denotes ∅). *)
