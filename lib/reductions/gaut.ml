module Data_graph = Datagraph.Data_graph
module Data_value = Datagraph.Data_value
module Relation = Datagraph.Relation
module Automorphism = Datagraph.Automorphism

type t = {
  graph : Data_graph.t;
  copies : int;
  node : copy:int -> int -> int;
  entry : copy:int -> int -> int;
}

let build g =
  let n = Data_graph.size g in
  let perms = Automorphism.permutations (Data_graph.domain g) in
  let copies = List.length perms in
  (* Layout: copy c occupies [c * 2n, (c+1) * 2n): first the n plain
     nodes, then the n entry nodes. *)
  let node ~copy v = (copy * 2 * n) + v in
  let entry ~copy v = (copy * 2 * n) + n + v in
  let value_label pi v =
    Data_value.to_string (Automorphism.apply pi (Data_graph.value g v))
  in
  let nodes = ref [] in
  let edges = ref [] in
  List.iteri
    (fun c pi ->
      List.iter
        (fun v ->
          nodes :=
            (Printf.sprintf "%s@%d" (Data_graph.name g v) c, Data_value.of_int 0)
            :: !nodes)
        (Data_graph.nodes g);
      List.iter
        (fun v ->
          nodes :=
            (Printf.sprintf "%s^@%d" (Data_graph.name g v) c, Data_value.of_int 0)
            :: !nodes)
        (Data_graph.nodes g);
      List.iter
        (fun (u, a, v) ->
          edges :=
            ( node ~copy:c u,
              Printf.sprintf "%s@%s" a (value_label pi v),
              node ~copy:c v )
            :: !edges)
        (Data_graph.edges g);
      List.iter
        (fun v ->
          edges :=
            ( entry ~copy:c v,
              Printf.sprintf "val@%s" (value_label pi v),
              node ~copy:c v )
            :: !edges)
        (Data_graph.nodes g))
    perms;
  let values = Array.make (copies * 2 * n) (Data_value.of_int 0) in
  let names = List.rev_map fst !nodes in
  ignore names;
  let graph =
    Data_graph.build ~values
      ~edges:(List.rev !edges)
  in
  { graph; copies; node; entry }

let lift_relation t s =
  let pairs = ref [] in
  for c = 0 to t.copies - 1 do
    Relation.iter
      (fun u v -> pairs := (t.entry ~copy:c u, t.node ~copy:c v) :: !pairs)
      s
  done;
  Relation.of_list (Data_graph.size t.graph) !pairs

let rem_definable_via_rpq ?max_tuples g s =
  let t = build g in
  let o =
    Definability.Rpq_definability.search ?max_tuples t.graph
      (lift_relation t s)
  in
  match o.Definability.Witness_search.verdict with
  | Definability.Witness_search.Definable -> true
  | Definability.Witness_search.Not_definable _ -> false
  | Definability.Witness_search.Exhausted ->
      failwith "definability search truncated; raise max_tuples"
