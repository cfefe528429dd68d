(** Dense 0/1 matrices stored as one {!Bitset} per row — the packed
    representation of binary relations on node sets: per-label adjacency
    and reachability closures.

    Rows are exposed directly ({!row} returns the underlying bitset, not
    a copy) so kernels can run word-parallel row operations: transitive
    closure is Warshall with row unions. *)

type t

val create : int -> int -> t
(** [create rows cols]: the all-zeros matrix. *)

val rows : t -> int
val cols : t -> int

val get : t -> int -> int -> bool
val set : t -> int -> int -> unit
val unset : t -> int -> int -> unit

val row : t -> int -> Bitset.t
(** The underlying row — shared, not a copy.  Callers that only read may
    use it directly; mutate only if you own the matrix. *)

val copy : t -> t
val equal : t -> t -> bool

val transpose : t -> t

val inter_inplace : t -> t -> unit
(** Elementwise AND. @raise Invalid_argument on dimension mismatch. *)

val set_diagonal : t -> unit
(** @raise Invalid_argument if not square (also below). *)

val closure_inplace : t -> unit
(** Transitive closure (Warshall with word-parallel row unions),
    in place.  Combine with {!set_diagonal} first for the
    reflexive-transitive closure. *)

val pp : Format.formatter -> t -> unit
