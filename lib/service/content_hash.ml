module Data_graph = Datagraph.Data_graph
module Tuple_relation = Datagraph.Tuple_relation

(* Canonicalization invariants (see the interface): indices instead of
   names, first-occurrence ranks instead of raw data values, edges
   sorted.  Every field is length-delimited or newline-terminated so
   distinct structures can never serialize to the same bytes by
   concatenation coincidence. *)

let graph_bytes g =
  let n = Data_graph.size g in
  let b = Buffer.create 256 in
  Printf.bprintf b "n %d\n" n;
  (* First-occurrence rank of each node's data value: invariant under
     any bijective renaming of the values. *)
  let rank = Hashtbl.create 16 in
  Buffer.add_string b "values";
  for v = 0 to n - 1 do
    let dv = Datagraph.Data_value.to_int (Data_graph.value g v) in
    let r =
      match Hashtbl.find_opt rank dv with
      | Some r -> r
      | None ->
          let r = Hashtbl.length rank in
          Hashtbl.add rank dv r;
          r
    in
    Printf.bprintf b " %d" r
  done;
  Buffer.add_char b '\n';
  let edges =
    List.sort compare
      (List.map (fun (u, a, v) -> (a, u, v)) (Data_graph.edges g))
  in
  List.iter
    (fun (a, u, v) ->
      (* Label text is length-prefixed: labels are arbitrary strings and
         may contain spaces. *)
      Printf.bprintf b "e %d %d:%s %d\n" u (String.length a) a v)
    edges;
  Buffer.contents b

let relation_bytes s =
  let b = Buffer.create 128 in
  Printf.bprintf b "arity %d\n" (Tuple_relation.arity s);
  (* [to_list] is lexicographically sorted, so tuple order in the input
     does not matter. *)
  List.iter
    (fun tup ->
      Buffer.add_char b 't';
      List.iter (fun v -> Printf.bprintf b " %d" v) tup;
      Buffer.add_char b '\n')
    (Tuple_relation.to_list s);
  Buffer.contents b

let digest bytes = Digest.to_hex (Digest.string bytes)

let graph_key_of_bytes gbytes = digest ("defsvc-graph/1\n" ^ gbytes)
let graph_key g = graph_key_of_bytes (graph_bytes g)

let instance_bytes_of_parts ~lang ~k ~gbytes ~rbytes =
  Printf.sprintf "defsvc-inst/1\nlang %d:%s k %d\n%s%s" (String.length lang)
    lang k gbytes rbytes

let instance_bytes ~lang ~k g s =
  instance_bytes_of_parts ~lang ~k ~gbytes:(graph_bytes g)
    ~rbytes:(relation_bytes s)

let instance_key ~lang ~k g s = digest (instance_bytes ~lang ~k g s)

let edit_bytes (e : Engine.Delta.graph_edit) =
  let label a = Printf.sprintf "%d:%s" (String.length a) a in
  match e with
  | Engine.Delta.Add_edge (u, a, v) -> Printf.sprintf "+e %d %s %d\n" u (label a) v
  | Engine.Delta.Remove_edge (u, a, v) ->
      Printf.sprintf "-e %d %s %d\n" u (label a) v
  | Engine.Delta.Add_node (nm, d) ->
      (* The raw value (not a first-occurrence rank): a chained key has no
         view of the whole graph to canonicalize against.  Chained keys
         trade canonicalization for O(edit-size) hashing; see the
         interface. *)
      Printf.sprintf "+n %s %d\n" (label nm) (Datagraph.Data_value.to_int d)
  | Engine.Delta.Set_relation tuples ->
      let b = Buffer.create 64 in
      Buffer.add_string b "=r\n";
      List.iter
        (fun tup ->
          Buffer.add_char b 't';
          List.iter (fun v -> Printf.bprintf b " %d" v) tup;
          Buffer.add_char b '\n')
        (List.sort compare tuples);
      Buffer.contents b

let chain_key ~parent e =
  digest (Printf.sprintf "defsvc-delta/1\nparent %s\n%s" parent (edit_bytes e))

let keys ~lang ~k g s =
  let gbytes = graph_bytes g in
  ( graph_key_of_bytes gbytes,
    digest
      (instance_bytes_of_parts ~lang ~k ~gbytes ~rbytes:(relation_bytes s)) )

(* The digest input is [defsvc-text/1\nlang <len>:<lang> k <k>\n<len>:<text>],
   concatenated into one string of exactly its size: this runs once per
   decide on each hop, memo hit or not. *)
let text_key ~lang ~k text =
  digest
    (String.concat ""
       [
         "defsvc-text/1\nlang ";
         string_of_int (String.length lang);
         ":";
         lang;
         " k ";
         string_of_int k;
         "\n";
         string_of_int (String.length text);
         ":";
         text;
       ])
