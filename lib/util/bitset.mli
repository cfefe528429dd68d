(** Fixed-width mutable bitsets packed into native [int] words.

    A value of type [t] represents a subset of [0 .. width - 1].  All
    operations are O(width / word_size) or better; [mem], [add] and
    [remove] are O(1).  Words are native OCaml ints ([Sys.int_size]
    bits, i.e. 63 on 64-bit systems), so the kernels below compile to a
    handful of word ops with no allocation.

    These sets back the adjacency and reachability matrices in
    [Data_graph] (via {!Bitmatrix}).  The CSP of [Hom] and the
    tuple-of-state-sets BFS in [Witness_search] keep their sets in flat
    word arrays of their own and use only {!bits_per_word}, {!popcount}
    and (the BFS) {!hash_words}. *)

type t

val bits_per_word : int
(** [Sys.int_size]: 63 on 64-bit systems. *)

val create : int -> t
(** [create width] is the empty subset of [0 .. width - 1].  [width] may
    be [0].  @raise Invalid_argument on negative width. *)

val full : int -> t
(** [full width] contains all of [0 .. width - 1]. *)

val of_list : int -> int list -> t
val copy : t -> t

val width : t -> int
(** The width the set was created with (not its cardinality). *)

val mem : t -> int -> bool
val add : t -> int -> unit
val remove : t -> int -> unit

val clear : t -> unit
(** Remove every element. *)

val fill : t -> unit
(** Add every element of [0 .. width - 1]. *)

val is_empty : t -> bool
val cardinal : t -> int
(** Population count, via a 16-bit lookup table. *)

val popcount : int -> int
(** Population count of one word, via the same table. *)

val hash_words : int -> int array -> int
(** [hash_words seed a] mixes [seed] and every word of [a] into a
    non-negative hash.  Arrays of one length differing in a single word
    never collide; [Relation] and [Witness_search] hash their word keys
    with it. *)

val equal : t -> t -> bool

val first : t -> int option
(** Smallest element, if any. *)

val iter : (int -> unit) -> t -> unit
(** Ascending order.  Each machine word is read once when the iteration
    reaches it, so [f] may remove the element it was called with but
    must not add elements. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val to_list : t -> int list

val inter_inplace : t -> t -> unit
(** [inter_inplace dst src] sets [dst] to [dst ∩ src].
    @raise Invalid_argument on width mismatch (also below). *)

val union_inplace : t -> t -> unit
val diff_inplace : t -> t -> unit

val disjoint : t -> t -> bool
(** [disjoint a b] iff [a ∩ b = ∅] — a word-wise AND + test with no
    allocation. *)

val intersects : t -> t -> bool
val subset : t -> t -> bool

val hash : t -> int
(** FNV-style hash over all words (unlike [Hashtbl.hash], which samples
    a bounded prefix of large structures). *)

val pp : Format.formatter -> t -> unit
