(** The determinized tuple-of-subsets search at the heart of the paper's
    upper bounds (proof of Lemma 21 / Theorem 22, and the RPQ-definability
    baseline of reference [3]).

    The abstract setting: a finite transition system whose transitions are
    grouped into finitely many {e blocks} (deterministic subset-successor
    maps), one designated initial state per {e source} node, and a map
    from states back to graph nodes.  A sequence of blocks [e] is a
    {e witness} for a pair [(p, q)] of a target relation [S] when,
    writing [Q_i] for the set of states reachable from source [i]'s
    initial state along [e]:

    - (connecting path) some state of [Q_p] maps to node [q], and
    - (no extraneous pairs) for every source [i] and state [s ∈ Q_i],
      the pair [(i, node_of s)] belongs to [S].

    The engine explores the deterministic graph of n-tuples
    [⟨Q_1, …, Q_n⟩] breadth-first, memoizing visited tuples — the
    pigeonhole argument of Lemma 21 is exactly the statement that this
    space is finite, so exhausting it decides the existence of witnesses
    for every pair of [S] simultaneously. *)

type block = {
  name : string;  (** used in reported witnesses *)
  succ : int -> int list;  (** successor states of a state *)
}

type config = {
  num_states : int;
  sources : int array;  (** [sources.(i)] is source [i]'s initial state *)
  node_of : int -> int;  (** graph node a state projects to *)
  blocks : block array;
}

type verdict =
  | Definable
  | Not_definable of (int * int) list
      (** pairs of the target with no witness *)
  | Exhausted
      (** hit [max_tuples] before deciding; answer unknown *)

type outcome = {
  verdict : verdict;
  covered : Datagraph.Relation.t;  (** pairs with a witness found *)
  witnesses : ((int * int) * string list) list;
      (** for each covered pair, the block-name sequence of one witness
          (shortest in block count) *)
  tuples_explored : int;
}

val search :
  ?max_tuples:int ->
  ?budget:Engine.Budget.t ->
  config ->
  target:Datagraph.Relation.t ->
  outcome
(** Decide witness existence for every pair of [target].
    [max_tuples] (default [2_000_000]) bounds the explored tuple count;
    exceeding it yields [Exhausted] unless every pair was already
    covered.  An empty target is trivially [Definable].  [budget]
    (default unlimited) bounds the search further: registering a tuple
    costs one step of fuel and the BFS loop polls the deadline, so an
    exhausted budget yields [Exhausted] with whatever was covered so
    far.

    Fuel is exactly one step per registered tuple, in FIFO order with
    blocks tried in array order, so the outcome — verdict, covered pairs,
    witnesses, [tuples_explored], and the fuel at which a search turns
    [Exhausted] — is a function of the config alone and does not depend
    on how tuples are represented. *)
