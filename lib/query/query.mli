(** Regular data path queries (Definition 11): [Q = x -e-> y] where [e] is
    a standard regular expression (RPQ), a regular expression with memory
    (RDPQ_mem) or a regular expression with equality (RDPQ_=).  Evaluating
    [Q] on a data graph [G] yields the pairs of nodes connected by a data
    path in [L(e)]. *)

type expr =
  | Rpq of Regexp.Regex.t
  | Rem of Rem_lang.Rem.t
  | Ree of Ree_lang.Ree.t

type lang = [ `Rpq | `Rem | `Ree ]

val eval : Datagraph.Data_graph.t -> expr -> Datagraph.Relation.t
(** [Q(G)] — RPQs by NFA/graph product, RDPQ_mem by register-automaton/
    graph product, RDPQ_= via the REE→REM embedding. *)

val matches_path : expr -> Datagraph.Data_path.t -> bool
(** Does a data path belong to [L(e)]?  For an RPQ only the letters are
    inspected. *)

val defines :
  Datagraph.Data_graph.t -> expr -> Datagraph.Relation.t -> bool
(** [defines g e s] iff [Q(G) = S] — the verification direction of the
    definability problem. *)

val pp : Format.formatter -> expr -> unit
val to_string : expr -> string

val parse : lang:lang -> string -> (expr, string) result
(** Parse in the concrete syntax of the respective expression language. *)

val simplify : expr -> expr
(** Apply the language-preserving simplifier of the underlying expression
    language. *)

val contained_on :
  Datagraph.Data_graph.t -> expr -> expr -> bool
(** [contained_on g e1 e2]: is [Q1(G) ⊆ Q2(G)] on this graph?  (Query
    containment over {e all} graphs is a different problem — ExpSpace /
    PSpace-complete for positive REM/REE fragments and undecidable in
    general, see the paper's related-work discussion of [17]; the
    per-graph version used here is simply evaluation + inclusion.) *)

val equivalent_on :
  Datagraph.Data_graph.t -> expr -> expr -> bool
(** [Q1(G) = Q2(G)] on this graph. *)
