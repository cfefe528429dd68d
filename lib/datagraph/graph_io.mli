(** A small line-oriented textual format for data graphs and relations, used
    by the CLI and the test fixtures.

    {v
    # comment (also after '#' on any line)
    node v1 0          # node <name> <integer data value>
    edge v1 a v2       # edge <source> <label> <target>
    pair v1 v4         # a pair of the relation (binary relations)
    tuple v1 v2 z2     # a tuple of the relation (any arity)
    v}

    [pair u v] is shorthand for [tuple u v].  All tuples in one instance
    must have the same arity. *)

val graph_to_string : Data_graph.t -> string
val tuples_to_string : Data_graph.t -> Tuple_relation.t -> string

val instance_to_string : Data_graph.t -> Tuple_relation.t -> string
(** Graph and relation in one document. *)

val graph_of_string : string -> (Data_graph.t, string) result
(** Parses [node]/[edge] lines; [pair]/[tuple] lines are rejected. *)

val instance_of_string :
  string -> (Data_graph.t * Tuple_relation.t, string) result
(** Parses a whole instance.  An instance without [pair]/[tuple] lines has
    an empty binary relation. *)

val to_dot : ?relation:Tuple_relation.t -> Data_graph.t -> string
(** A Graphviz rendering of the graph: nodes labeled [name:value], edge
    labels as-is; nodes of a unary [relation] are doubled, pairs of a
    binary one become dashed red edges. *)
