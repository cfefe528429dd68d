(** Nondeterministic finite automata over string labels, with ε-moves:
    the operational side of {!Regex} (Thompson construction) and the
    evaluation engine for plain RPQs via the product with a data graph. *)

type t

val of_regex : Regex.t -> t
(** Thompson construction: linear in the size of the expression. *)

val state_count : t -> int

val accepts : t -> string list -> bool
(** Membership of a word (list of labels). *)

val is_empty : t -> bool
(** Is the accepted language empty? *)

val accepts_some_bounded : t -> max_len:int -> string list option
(** Some accepted word of length at most [max_len], if any. *)

val included : t -> in_:t -> over:string list -> bool
(** [included a ~in_:b ~over] : is [L(a) ∩ over* ⊆ L(b)]?  Decided by the
    product of [a] with the determinization of [b] over the given
    alphabet (letters of both automata are added automatically). *)

val counterexample :
  t -> in_:t -> over:string list -> string list option
(** A shortest word of [L(a) \ L(b)] over the joint alphabet, if any. *)

val eval_on_graph : Datagraph.Data_graph.t -> t -> Datagraph.Relation.t
(** The RPQ answer [Q(G)] for [Q : x -e-> y] (Definition 11, restricted to
    standard regular expressions): all pairs [(u, v)] such that the label
    word of some path from [u] to [v] is accepted.  Computed by
    reachability in the product of the graph with the automaton. *)
