(* Graph_io: the textual instance format round-trips ([parse ∘ print]
   is the identity) on random graphs, and malformed documents are
   rejected with an [Error], never an exception. *)

module DG = Datagraph.Data_graph
module TR = Datagraph.Tuple_relation
module Gen = Datagraph.Graph_gen
module Io = Datagraph.Graph_io

let graph_repr g =
  let nodes =
    List.map
      (fun u ->
        Printf.sprintf "%s=%d" (DG.name g u)
          (Datagraph.Data_value.to_int (DG.value g u)))
      (DG.nodes g)
  in
  let edges =
    List.sort compare
      (List.map
         (fun (u, a, v) -> Printf.sprintf "%s-%s->%s" (DG.name g u) a (DG.name g v))
         (DG.edges g))
  in
  String.concat ";" nodes ^ "|" ^ String.concat ";" edges

let relation_repr s =
  String.concat ";"
    (List.map
       (fun tup -> String.concat "," (List.map string_of_int tup))
       (TR.to_list s))

let random_instance seed =
  let g =
    Gen.random ~seed ~n:(3 + (seed mod 7)) ~delta:(1 + (seed mod 4))
      ~labels:[ "a"; "b" ] ~density:0.3 ()
  in
  let s = TR.of_binary (Gen.random_reachable_relation ~seed g ~count:4) in
  (g, s)

let roundtrip_prop =
  QCheck.Test.make ~name:"parse ∘ print = id (random instances)" ~count:100
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g, s = random_instance seed in
      let text = Io.instance_to_string g s in
      match Io.instance_of_string text with
      | Error msg -> QCheck.Test.fail_reportf "reparse failed: %s" msg
      | Ok (g', s') ->
          (* Same nodes (names, values, order), edges and tuples — and a
             reprint of the reparse is byte-identical, so printing is a
             canonical form. *)
          graph_repr g = graph_repr g'
          && relation_repr s = relation_repr s'
          && Io.instance_to_string g' s' = text)

let test_fig1_roundtrip () =
  let g = Gen.fig1 () in
  let s = TR.of_binary (Gen.fig1_s2 g) in
  let text = Io.instance_to_string g s in
  match Io.instance_of_string text with
  | Error msg -> Alcotest.failf "reparse failed: %s" msg
  | Ok (g', s') ->
      Alcotest.(check string) "graph" (graph_repr g) (graph_repr g');
      Alcotest.(check string) "relation" (relation_repr s) (relation_repr s');
      Alcotest.(check string) "reprint" text (Io.instance_to_string g' s')

let test_comments_and_blanks () =
  let text =
    "# header comment\n\nnode v1 0   # inline comment\nnode v2 1\n\n\
     edge v1 a v2\npair v1 v2\n"
  in
  match Io.instance_of_string text with
  | Error msg -> Alcotest.failf "should parse: %s" msg
  | Ok (g, s) ->
      Alcotest.(check int) "nodes" 2 (DG.size g);
      Alcotest.(check int) "edges" 1 (DG.edge_count g);
      Alcotest.(check int) "tuples" 1 (TR.cardinal s)

let rejected name text =
  ( name,
    `Quick,
    fun () ->
      match Io.instance_of_string text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed input: %s" name )

let malformed_cases =
  [
    rejected "node missing value" "node v1\n";
    rejected "node non-integer value" "node v1 zero\n";
    rejected "duplicate node name" "node v1 0\nnode v1 1\n";
    rejected "edge missing target" "node v1 0\nedge v1 a\n";
    rejected "edge dangling endpoint" "node v1 0\nedge v1 a v9\n";
    rejected "duplicate edge" "node v1 0\nedge v1 a v1\nedge v1 a v1\n";
    rejected "pair arity" "node v1 0\npair v1\n";
    rejected "pair unknown node" "node v1 0\npair v1 v9\n";
    rejected "mixed tuple arities" "node v1 0\npair v1 v1\ntuple v1 v1 v1\n";
    rejected "unknown keyword" "node v1 0\nfrobnicate v1\n";
  ]

let test_graph_of_string_rejects_pairs () =
  match Io.graph_of_string "node v1 0\npair v1 v1\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "graph_of_string accepted a pair line"

(* ---------- The one-pass parser against the line-by-line oracle ---------- *)

module Oracle = Graph_io_oracle

(* Everything observable of a parsed graph, with node i named [name i]:
   values, alphabet order, edges in input order, the reversed edge list
   [map_values] rebuilds from, successor lists and value classes. *)
let full_repr name g =
  let n = DG.size g in
  let ints l = String.concat "," (List.map string_of_int l) in
  String.concat "|"
    [
      String.concat ";"
        (List.init n (fun i ->
             Printf.sprintf "%s=%d/%d" (name i)
               (Datagraph.Data_value.to_int (DG.value g i))
               (DG.value_index g i)));
      String.concat "," (DG.alphabet g);
      String.concat ";"
        (List.map
           (fun (u, a, v) -> Printf.sprintf "%s-%s->%s" (name u) a (name v))
           (DG.edges g));
      String.concat ";"
        (List.map
           (fun (u, a, v) -> Printf.sprintf "%d-%s->%d" u a v)
           (DG.edges (DG.map_values Fun.id g)));
      String.concat ";"
        (List.init n (fun u ->
             String.concat "/"
               (List.init (DG.label_count g) (fun l -> ints (DG.succ_id g u l)))));
      ints (List.map Datagraph.Data_value.to_int (DG.domain g));
      string_of_int (DG.edge_count g);
    ]

let new_graph_repr g =
  List.iter
    (fun u ->
      if DG.node_of_name g (DG.name g u) <> u then
        Alcotest.failf "node_of_name %s" (DG.name g u))
    (DG.nodes g);
  full_repr (DG.name g) g

let tuples_repr s =
  Printf.sprintf "arity %d: %s" (TR.arity s) (relation_repr s)

let parsed_repr = function
  | Error msg -> "error " ^ msg
  | Ok (g, s) -> new_graph_repr g ^ " || " ^ tuples_repr s

let oracle_repr = function
  | Error msg -> "error " ^ msg
  | Ok (g, names, s) -> full_repr (Array.get names) g ^ " || " ^ tuples_repr s

(* A printed random instance, then up to four edits that keep it
   well-formed or break it: moved, repeated or dropped lines, comments,
   blank lines, tabs and runs of spaces, carriage returns, and words
   replaced by unknown names, odd integers or misspelt directives. *)
let gen_text st =
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let g =
    Gen.random ~seed:(Random.State.bits st) ~n:(1 + Random.State.int st 8)
      ~delta:(1 + Random.State.int st 3)
      ~labels:(List.filteri (fun i _ -> i <= Random.State.int st 3) [ "a"; "b"; "cc"; "d" ])
      ~density:(Random.State.float st 0.5) ()
  in
  let s =
    if Random.State.bool st then
      TR.of_binary (Gen.random_reachable_relation ~seed:(Random.State.bits st) g ~count:3)
    else TR.empty ~universe:(DG.size g) ~arity:2
  in
  let lines = ref (Array.of_list (String.split_on_char '\n' (Io.instance_to_string g s))) in
  let words =
    [ "v0"; "v1"; "v3"; "v9"; "zz"; "a"; "b"; "0"; "1"; "-2"; "+3"; "0x1F"; "1_0";
      "x"; "-"; "99999999999999999999"; "12345678901234567890"; "2\r"; "node";
      "edge"; "pair"; "tuple"; "Node"; "edges"; "#"; "v1#c"; "" ]
  in
  let edit () =
    let ls = !lines in
    let k = Array.length ls in
    let i = Random.State.int st (max 1 k) in
    let line = if k = 0 then "" else ls.(i) in
    let set l = if k > 0 then ls.(i) <- l in
    let insert l = lines := Array.concat [ Array.sub ls 0 i; [| l |]; Array.sub ls i (k - i) ] in
    let ws = String.split_on_char ' ' line in
    match Random.State.int st 10 with
    | 0 -> insert (if k = 0 then "" else ls.(Random.State.int st k))
    | 1 -> if k > 0 then lines := Array.append (Array.sub ls 0 i) (Array.sub ls (i + 1) (k - i - 1))
    | 2 -> insert (pick [ ""; "# comment"; "  \t "; "#"; "node" ])
    | 3 -> set (line ^ pick [ " # trailing"; "\r"; " "; "\t"; "#x y z" ])
    | 4 -> set (String.concat (pick [ "\t"; "  "; " \t "; " " ]) ws)
    | 5 ->
        let j = Random.State.int st (max 1 (List.length ws)) in
        set (String.concat " " (List.mapi (fun m w -> if m = j then pick words else w) ws))
    | 6 -> set (String.concat " " (List.filteri (fun m _ -> m <> Random.State.int st 4) ws))
    | 7 -> set (line ^ " " ^ pick words)
    | 8 ->
        insert
          (pick [ "pair"; "tuple" ] ^ " "
          ^ String.concat " " (List.init (Random.State.int st 4) (fun _ -> pick [ "v0"; "v1"; "v2"; "zz" ])))
    | _ -> lines := Array.of_list (List.rev (Array.to_list ls))
  in
  for _ = 1 to Random.State.int st 5 do
    edit ()
  done;
  String.concat (pick [ "\n"; "\n"; "\n"; "\n\n" ]) (Array.to_list !lines)

let parser_oracle_prop =
  QCheck.Test.make ~name:"one-pass parser equals the line-by-line oracle"
    ~count:1000 ~long_factor:20
    (QCheck.make ~print:(Printf.sprintf "%S") gen_text)
    (fun text ->
      let got = parsed_repr (Io.instance_of_string text)
      and want = oracle_repr (Oracle.instance_of_string text) in
      let got_g =
        match Io.graph_of_string text with
        | Error msg -> "error " ^ msg
        | Ok g -> new_graph_repr g
      and want_g =
        match Oracle.graph_of_string text with
        | Error msg -> "error " ^ msg
        | Ok (g, names) -> full_repr (Array.get names) g
      in
      if got <> want then QCheck.Test.fail_reportf "instance:\n got %s\nwant %s" got want;
      if got_g <> want_g then QCheck.Test.fail_reportf "graph:\n got %s\nwant %s" got_g want_g;
      true)

(* Each error of the line-by-line parser, byte for byte. *)
let error_cases =
  [
    ("node a 1\nedge x l y\n", "Data_graph.make: unknown node y");
    ("node a 1\nnode a 2\nedge x l y\n", "Data_graph.make: duplicate node name a");
    ("node a 1\r\n", "line 1: bad data value 1\r");
    ("node a 1\nnode a 2\nfoo\n", "line 3: unknown directive foo");
    ("tuple a b\nnode a 1\ntuple b\n", "unknown node in relation: b");
    ("tuple a\ntuple b c\nnode a 1", "tuples of mixed arity");
    ("node a 1\nedge a l a\nedge a l a\nedge a l b\n", "Data_graph.make: unknown node b");
    ("node a 1\nedge a l a\nedge a l a\n", "Data_graph.build: duplicate edge");
    ("node a 1 # c\n\n  edge a l\n", "line 3: expected: edge <src> <label> <dst>");
    ("pair a\n", "line 1: expected: pair <u> <v>");
    ("tuple # a b\n", "line 1: expected: tuple <n1> ... <nk>");
    ("node#\n", "line 1: expected: node <name> <value>");
  ]

let test_error_strings () =
  List.iter
    (fun (text, msg) ->
      Alcotest.(check string) (String.escaped text) ("error " ^ msg)
        (parsed_repr (Io.instance_of_string text));
      Alcotest.(check string) ("oracle " ^ String.escaped text) ("error " ^ msg)
        (oracle_repr (Oracle.instance_of_string text)))
    error_cases

let () =
  Alcotest.run "graph_io"
    [
      ( "roundtrip",
        [
          QCheck_alcotest.to_alcotest roundtrip_prop;
          ("fig1 with S2", `Quick, test_fig1_roundtrip);
          ("comments and blank lines", `Quick, test_comments_and_blanks);
        ] );
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest parser_oracle_prop;
          ("error strings", `Quick, test_error_strings);
        ] );
      ( "malformed",
        malformed_cases
        @ [
            ( "graph_of_string rejects pairs",
              `Quick,
              test_graph_of_string_rejects_pairs );
          ] );
    ]
