(** Binary relations over the nodes [0 .. n-1] of a data graph, with the
    operators of Definition 26: union [+], composition [∘], and the
    [=]/[≠]-restrictions by data value.

    A relation is one flat [int array] of word rows: row [u] holds the
    successors of [u] in [⌈n/63⌉] native words
    ({!Util.Bitset.bits_per_word} bits each).  Composition is a boolean
    matrix product that ORs whole rows, and [equal], [hash], [subset] and
    the set operators are word loops with no intermediate copy — the REE
    definability procedure (Section 4) computes fixpoints over sets of
    relations and relies on this.  Values are immutable: [add] and
    [remove] return a copy, so build a relation from many pairs with
    {!of_list}. *)

type t

val universe : t -> int
(** The [n] this relation ranges over. *)

val empty : int -> t
(** The empty relation over [n] nodes. *)

val full : int -> t
val identity : int -> t

val of_list : int -> (int * int) list -> t
(** @raise Invalid_argument on an out-of-range node. *)

val to_list : t -> (int * int) list
(** Pairs in lexicographic order. *)

val mem : t -> int -> int -> bool
val add : t -> int -> int -> t
val remove : t -> int -> int -> t
val cardinal : t -> int
val is_empty : t -> bool
val equal : t -> t -> bool
val subset : t -> t -> bool
val compare : t -> t -> int
(** A total order: by universe, then as the row-major byte matrix of
    [⌈n/8⌉] bytes per row that bit [v] of row [u] sets in byte [v/8]
    at bit [v mod 8], compared bytewise and unsigned.  [Census] sorts by
    it. *)

val hash : t -> int
(** Consistent with {!equal}; reads every word. *)

val union : t -> t -> t
(** [S1 + S2] of Definition 26. *)

val inter : t -> t -> t
val diff : t -> t -> t

val compose : t -> t -> t
(** [S1 ∘ S2] of Definition 26: [(u,v)] with some [z] such that
    [(u,z) ∈ S1] and [(z,v) ∈ S2]. *)

val restrict_eq : value:(int -> Data_value.t) -> t -> t
(** [S=]: keep pairs whose endpoints carry equal data values. *)

val restrict_neq : value:(int -> Data_value.t) -> t -> t
(** [S≠]: keep pairs whose endpoints carry different data values. *)

val filter : (int -> int -> bool) -> t -> t
val iter : (int -> int -> unit) -> t -> unit
(** Pairs in lexicographic order, as {!to_list}. *)

val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a

val transitive_closure : t -> t
(** [S⁺]: the transitive (not reflexive) closure. *)

val edge_relation : Data_graph.t -> Data_graph.label -> t
(** [S_a]: the relation defined by the single-letter expression [a]. *)

val edge_relation_id : Data_graph.t -> int -> t
(** [edge_relation] by dense label id. *)

val step_relation : Data_graph.t -> t
(** Union of [S_a] over the whole alphabet. *)

val connected_by : Data_graph.t -> Data_path.t -> t
(** [R(w)]: all pairs connected by the data path [w] in the graph. *)

val map : (int -> int) -> t -> t
(** [(h(u), h(v))] for each [(u, v)] — the image under a node mapping. *)

val pp : Data_graph.t -> Format.formatter -> t -> unit
(** Print with node names from the graph. *)

val pp_raw : Format.formatter -> t -> unit
