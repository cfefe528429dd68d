(** k-register automata over data paths — the automaton model REM is
    expressively equivalent to (Libkin & Vrgoč, reference [19] of the
    paper; originally Kaminski & Francez [16]).

    We use a Thompson-style representation: a finite graph of operation
    edges, where [Bind] and [Test] edges act on the current data value
    without advancing, and [Letter] edges consume one letter of the data
    path.  A data path [w = d0 a0 d1 ... dm] is accepted iff some walk
    from the start state (at value position 0, all registers empty) to
    the final state (at position m) performs only satisfied tests.

    This is both the efficient semantics for {!Rem} (the direct
    recursion in [Rem.matches] serves as a cross-checking oracle) and the
    evaluation engine for RDPQ_mem queries on data graphs
    (Definition 11 / reference [20]): configurations [(state, node, σ)]
    make query evaluation polynomial for fixed [k]. *)

type op =
  | Bind of int list  (** store the current data value in these registers *)
  | Test of Condition.t  (** check against the current data value *)
  | Letter of string  (** consume one letter, advance to the next value *)

type t

val of_rem : ?k:int -> Rem.t -> t
(** Compile an REM ([k] defaults to [Rem.registers e]).
    @raise Invalid_argument if [k < Rem.registers e]. *)

val of_basic : ?k:int -> Basic_rem.t -> t

val k : t -> int
val state_count : t -> int
val edge_count : t -> int

val accepts : t -> Datagraph.Data_path.t -> bool
(** BFS over configurations [(state, position, σ)]; σ ranges over the
    values of the path plus ⊥, so the search is finite. *)

val eval_on_graph : Datagraph.Data_graph.t -> t -> Datagraph.Relation.t
(** The RDPQ_mem answer [Q(G)] for [Q : x -e-> y]: all pairs [(u, v)]
    such that some data path from [u] to [v] is accepted.  Reachability
    over configurations [(state, node, σ)] with σ over [D_G ∪ ⊥]. *)

val is_empty : t -> bool
(** Is [L(A)] empty?  Decidable because register contents can only be
    data values read earlier: along any run, what matters about the next
    data value is which registers currently hold it, so a pool of [k + 1]
    distinct values suffices to realize every reachable configuration
    (the standard bounded-data argument for register automata [16]).  The
    search explores configurations [(state, σ)] over that pool. *)

val shortest_accepted : ?max_len:int -> t -> Datagraph.Data_path.t option
(** A short accepted data path (over the [k + 1]-value pool; breadth
    first, so short but not guaranteed minimal), or [None] if the
    language is empty or no witness of length at most [max_len]
    (default 64) exists.  The test suite checks agreement with
    {!is_empty} and membership via {!accepts}. *)
