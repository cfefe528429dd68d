let graph_to_string g =
  let buf = Buffer.create 256 in
  List.iter
    (fun v ->
      Buffer.add_string buf
        (Printf.sprintf "node %s %d\n" (Data_graph.name g v)
           (Data_value.to_int (Data_graph.value g v))))
    (Data_graph.nodes g);
  List.iter
    (fun (u, a, v) ->
      Buffer.add_string buf
        (Printf.sprintf "edge %s %s %s\n" (Data_graph.name g u) a
           (Data_graph.name g v)))
    (Data_graph.edges g);
  Buffer.contents buf

let tuples_to_string g r =
  let buf = Buffer.create 256 in
  Tuple_relation.iter
    (fun tup ->
      Buffer.add_string buf
        ("tuple "
        ^ String.concat " " (List.map (Data_graph.name g) tup)
        ^ "\n"))
    r;
  Buffer.contents buf

let instance_to_string g r = graph_to_string g ^ tuples_to_string g r

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

let build_graph nodes edges =
  try Ok (Data_graph.make ~nodes ~edges)
  with Invalid_argument msg -> Error msg

let resolve_tuples g tuples =
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
                match
                  try Some (Data_graph.node_of_name g name)
                  with Not_found -> None
                with
                | Some i -> i
                | None -> raise (Bad ("unknown node in relation: " ^ name)))
              t
          in
          Tuple_relation.add acc idx)
        (Tuple_relation.empty ~universe:(Data_graph.size g) ~arity)
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
      | Ok g -> (
          match resolve_tuples g tuples with
          | Error _ as e -> e
          | Ok rel -> Ok (g, rel)))

let graph_of_string text =
  match parse_lines text with
  | Error _ as e -> e
  | Ok items -> (
      let nodes, edges, tuples = split_items items in
      if tuples <> [] then Error "unexpected pair/tuple line in graph"
      else build_graph nodes edges)

let to_dot ?relation g =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "digraph G {\n  rankdir=LR;\n";
  let highlighted v =
    match relation with
    | Some r when Tuple_relation.arity r = 1 -> Tuple_relation.mem r [ v ]
    | _ -> false
  in
  List.iter
    (fun v ->
      Buffer.add_string buf
        (Printf.sprintf "  %d [label=\"%s:%s\"%s];\n" v (Data_graph.name g v)
           (Data_value.to_string (Data_graph.value g v))
           (if highlighted v then ", peripheries=2" else "")))
    (Data_graph.nodes g);
  List.iter
    (fun (u, a, v) ->
      Buffer.add_string buf (Printf.sprintf "  %d -> %d [label=\"%s\"];\n" u v a))
    (Data_graph.edges g);
  (match relation with
  | Some r when Tuple_relation.arity r = 2 ->
      Tuple_relation.iter
        (function
          | [ u; v ] ->
              Buffer.add_string buf
                (Printf.sprintf
                   "  %d -> %d [style=dashed, color=red, constraint=false];\n" u v)
          | _ -> ())
        r
  | _ -> ());
  Buffer.add_string buf "}\n";
  Buffer.contents buf
