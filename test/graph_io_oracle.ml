(* The instance parser [Datagraph.Graph_io] used before its one-pass
   scanner: split the text into lines and words, collect node, edge and
   tuple items, build the graph with [Data_graph.make]'s name checks
   and a hashed duplicate-edge check, then resolve the tuples.  Kept
   verbatim (modulo qualified module names) as the reference the parser
   must equal: the same graph, relation and error string on every text.
   The graph is built by [Data_graph.build], which names node i "v<i>",
   so the names of the parsed document are returned beside it.  Nothing
   outside the tests uses this. *)

module Data_graph = Datagraph.Data_graph
module Data_value = Datagraph.Data_value
module Tuple_relation = Datagraph.Tuple_relation

type line =
  | Node of string * int
  | Edge of string * string * string
  | Tuple of string list

let parse_lines text =
  let lines = String.split_on_char '\n' text in
  let parse lineno raw =
    let raw =
      match String.index_opt raw '#' with
      | Some i -> String.sub raw 0 i
      | None -> raw
    in
    let words =
      String.split_on_char ' ' raw
      |> List.concat_map (String.split_on_char '\t')
      |> List.filter (fun w -> w <> "")
    in
    let err msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
    match words with
    | [] -> Ok None
    | [ "node"; name; value ] -> (
        match int_of_string_opt value with
        | Some d -> Ok (Some (Node (name, d)))
        | None -> err ("bad data value " ^ value))
    | "node" :: _ -> err "expected: node <name> <value>"
    | [ "edge"; u; a; v ] -> Ok (Some (Edge (u, a, v)))
    | "edge" :: _ -> err "expected: edge <src> <label> <dst>"
    | [ "pair"; u; v ] -> Ok (Some (Tuple [ u; v ]))
    | "pair" :: _ -> err "expected: pair <u> <v>"
    | "tuple" :: (_ :: _ as names) -> Ok (Some (Tuple names))
    | "tuple" :: _ -> err "expected: tuple <n1> ... <nk>"
    | kw :: _ -> err ("unknown directive " ^ kw)
  in
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | l :: rest -> (
        match parse i l with
        | Error _ as e -> e
        | Ok None -> go (i + 1) acc rest
        | Ok (Some item) -> go (i + 1) (item :: acc) rest)
  in
  go 1 [] lines

let split_items items =
  List.fold_left
    (fun (ns, es, ts) -> function
      | Node (n, d) -> ((n, Data_value.of_int d) :: ns, es, ts)
      | Edge (u, a, v) -> (ns, (u, a, v) :: es, ts)
      | Tuple t -> (ns, es, t :: ts))
    ([], [], []) items
  |> fun (ns, es, ts) -> (List.rev ns, List.rev es, List.rev ts)

(* [Data_graph.make] as it was: the name checks, then [build] (whose
   duplicate-edge check was a hash table of (u, a, v) triples). *)
let make ~nodes ~edges =
  let names = Array.of_list (List.map fst nodes) in
  let values = Array.of_list (List.map snd nodes) in
  let name_index = Hashtbl.create (max 1 (Array.length names)) in
  Array.iteri
    (fun i s ->
      if Hashtbl.mem name_index s then
        invalid_arg ("Data_graph.make: duplicate node name " ^ s);
      Hashtbl.add name_index s i)
    names;
  let resolve s =
    match Hashtbl.find_opt name_index s with
    | Some i -> i
    | None -> invalid_arg ("Data_graph.make: unknown node " ^ s)
  in
  let edges = List.map (fun (u, a, v) -> (resolve u, a, resolve v)) edges in
  let seen = Hashtbl.create (max 1 (List.length edges)) in
  List.iter
    (fun e ->
      if Hashtbl.mem seen e then invalid_arg "Data_graph.build: duplicate edge";
      Hashtbl.add seen e ())
    edges;
  (Data_graph.build ~values ~edges, names, name_index)

let build_graph nodes edges =
  try Ok (make ~nodes ~edges) with Invalid_argument msg -> Error msg

let resolve_tuples size name_index tuples =
  let exception Bad of string in
  try
    let arity =
      match tuples with [] -> 2 | t :: _ -> List.length t
    in
    let rel =
      List.fold_left
        (fun acc t ->
          if List.length t <> List.length (List.hd tuples) then
            raise (Bad "tuples of mixed arity");
          let idx =
            List.map
              (fun name ->
                match Hashtbl.find_opt name_index name with
                | Some i -> i
                | None -> raise (Bad ("unknown node in relation: " ^ name)))
              t
          in
          Tuple_relation.add acc idx)
        (Tuple_relation.empty ~universe:size ~arity)
        tuples
    in
    Ok rel
  with Bad msg -> Error msg

let instance_of_string text =
  match parse_lines text with
  | Error _ as e -> e
  | Ok items -> (
      let nodes, edges, tuples = split_items items in
      match build_graph nodes edges with
      | Error _ as e -> e
      | Ok (g, names, name_index) -> (
          match resolve_tuples (Data_graph.size g) name_index tuples with
          | Error _ as e -> e
          | Ok rel -> Ok (g, names, rel)))

let graph_of_string text =
  match parse_lines text with
  | Error _ as e -> e
  | Ok items -> (
      let nodes, edges, tuples = split_items items in
      if tuples <> [] then Error "unexpected pair/tuple line in graph"
      else Result.map (fun (g, names, _) -> (g, names)) (build_graph nodes edges))
