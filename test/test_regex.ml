(* Tests for standard regular expressions and the NFA machinery. *)

module R = Regexp.Regex
module Nfa = Regexp.Nfa
module Rel = Datagraph.Relation

let parse s = match R.parse s with Ok e -> e | Error m -> failwith m

let test_parse () =
  Alcotest.(check bool) "letter" true (R.equal (parse "a") (R.Letter "a"));
  Alcotest.(check bool) "concat juxtaposition" true
    (R.equal (parse "a b") (R.Concat (R.Letter "a", R.Letter "b")));
  Alcotest.(check bool) "concat dot" true
    (R.equal (parse "a . b") (parse "a b"));
  Alcotest.(check bool) "union" true
    (R.equal (parse "a | b") (R.Union (R.Letter "a", R.Letter "b")));
  Alcotest.(check bool) "plus" true (R.equal (parse "a+") (R.Plus (R.Letter "a")));
  Alcotest.(check bool) "star" true (R.equal (parse "a*") (R.Star (R.Letter "a")));
  Alcotest.(check bool) "eps keyword" true (R.equal (parse "eps") R.Eps);
  Alcotest.(check bool) "empty keyword" true (R.equal (parse "empty") R.Empty);
  Alcotest.(check bool) "precedence: concat binds tighter" true
    (R.equal (parse "a b | c") (R.Union (parse "a b", R.Letter "c")));
  Alcotest.(check bool) "grouping" true
    (R.equal (parse "(a | b) c") (R.Concat (parse "a|b", R.Letter "c")));
  Alcotest.(check bool) "multichar letters" true
    (R.equal (parse "friend friend") (parse "friend . friend"));
  (match R.parse "a | | b" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "should reject");
  match R.parse "(a" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "should reject unbalanced"

let test_pp_roundtrip () =
  let exprs =
    [ "a"; "a b"; "a | b"; "a+"; "(a | b)+"; "a (b | c) d*"; "eps | a" ]
  in
  List.iter
    (fun s ->
      let e = parse s in
      let e' = parse (R.to_string e) in
      Alcotest.(check bool) ("roundtrip " ^ s) true (R.equal e e'))
    exprs

let test_matches () =
  let e = parse "a (b | c)+ a" in
  Alcotest.(check bool) "abca" true (R.matches e [ "a"; "b"; "c"; "a" ]);
  Alcotest.(check bool) "aa" false (R.matches e [ "a"; "a" ]);
  Alcotest.(check bool) "eps matches []" true (R.matches R.Eps []);
  Alcotest.(check bool) "empty matches nothing" false (R.matches R.Empty []);
  Alcotest.(check bool) "star empty" true (R.matches (parse "a*") []);
  Alcotest.(check bool) "plus not empty" false (R.matches (parse "a+") [])

let test_nfa_agrees_with_derivatives () =
  (* Differential test on a fixed expression over all short words. *)
  let e = parse "(a b | a)+ | b*" in
  let nfa = Nfa.of_regex e in
  let alphabet = [ "a"; "b" ] in
  let rec words k =
    if k = 0 then [ [] ]
    else
      let rest = words (k - 1) in
      rest @ List.concat_map (fun w -> List.map (fun a -> a :: w) alphabet) rest
  in
  List.iter
    (fun w ->
      Alcotest.(check bool)
        (String.concat "" w)
        (R.matches e w) (Nfa.accepts nfa w))
    (words 5)

let qcheck_regex_gen =
  let open QCheck.Gen in
  sized_size (int_bound 6) (fun n ->
      fix
        (fun self n ->
          if n <= 0 then
            oneof
              [ return R.Eps; map (fun b -> R.Letter (if b then "a" else "b")) bool ]
          else
            frequency
              [
                (2, map2 (fun a b -> R.Union (a, b)) (self (n / 2)) (self (n / 2)));
                (3, map2 (fun a b -> R.Concat (a, b)) (self (n / 2)) (self (n / 2)));
                (1, map (fun a -> R.Plus a) (self (n - 1)));
                (1, map (fun a -> R.Star a) (self (n - 1)));
                (1, return (R.Letter "a"));
              ])
        n)

let arb_regex = QCheck.make ~print:R.to_string qcheck_regex_gen

let arb_word =
  QCheck.make
    ~print:(String.concat "")
    QCheck.Gen.(
      list_size (int_bound 6) (map (fun b -> if b then "a" else "b") bool))

let prop_nfa_matches =
  QCheck.Test.make ~name:"NFA agrees with derivative matching" ~count:500
    (QCheck.pair arb_regex arb_word)
    (fun (e, w) -> Nfa.accepts (Nfa.of_regex e) w = R.matches e w)

let prop_emptiness =
  QCheck.Test.make ~name:"emptiness agrees with bounded witness" ~count:200
    arb_regex (fun e ->
      let nfa = Nfa.of_regex e in
      let empty = Nfa.is_empty nfa in
      match Nfa.accepts_some_bounded nfa ~max_len:12 with
      | Some w -> (not empty) && Nfa.accepts nfa w
      | None -> empty (* generated regexes have short witnesses *))

let prop_roundtrip =
  QCheck.Test.make ~name:"parse (pp e) = e" ~count:300 arb_regex (fun e ->
      match R.parse (R.to_string e) with
      | Ok e' -> R.equal e e'
      | Error _ -> false)

(* The Buffer printer against the Format printer it replaced
   ({!Printer_oracle}); [pp] goes through [to_string], so both must
   match.  [Empty] is spliced in because the generator never makes it. *)
let prop_printer_reference =
  QCheck.Test.make ~name:"Buffer printer = Format printer" ~count:500
    ~long_factor:20
    (QCheck.make ~print:R.to_string
       QCheck.Gen.(
         oneof
           [
             qcheck_regex_gen;
             map (fun e -> R.Concat (R.Union (R.Empty, e), R.Star R.Empty))
               qcheck_regex_gen;
           ]))
    (fun e ->
      let expect = Printer_oracle.regex e in
      R.to_string e = expect && Format.asprintf "%a" R.pp e = expect)

let test_inclusion () =
  let nfa s = Nfa.of_regex (parse s) in
  Alcotest.(check bool) "a <= a|b" true
    (Nfa.included (nfa "a") ~in_:(nfa "a | b") ~over:[]);
  Alcotest.(check bool) "a+ <= a*" true
    (Nfa.included (nfa "a+") ~in_:(nfa "a*") ~over:[]);
  Alcotest.(check bool) "a* not <= a+" false
    (Nfa.included (nfa "a*") ~in_:(nfa "a+") ~over:[]);
  (match Nfa.counterexample (nfa "a*") ~in_:(nfa "a+") ~over:[] with
  | Some [] -> () (* the empty word separates them *)
  | _ -> Alcotest.fail "expected the empty word");
  Alcotest.(check bool) "(ab)+ <= a(ba)*b" true
    (Nfa.included (nfa "(a b)+") ~in_:(nfa "a (b a)* b") ~over:[]);
  match Nfa.counterexample (nfa "a a | b") ~in_:(nfa "a a") ~over:[] with
  | Some [ "b" ] -> ()
  | _ -> Alcotest.fail "expected the word b"

let prop_inclusion_sound =
  QCheck.Test.make ~name:"counterexample is genuine" ~count:200
    (QCheck.pair arb_regex arb_regex)
    (fun (e1, e2) ->
      let a = Nfa.of_regex e1 and b = Nfa.of_regex e2 in
      match Nfa.counterexample a ~in_:b ~over:[ "a"; "b" ] with
      | Some w -> Nfa.accepts a w && not (Nfa.accepts b w)
      | None ->
          (* Spot-check inclusion on short words. *)
          List.for_all
            (fun w -> (not (Nfa.accepts a w)) || Nfa.accepts b w)
            [ []; [ "a" ]; [ "b" ]; [ "a"; "a" ]; [ "a"; "b" ]; [ "b"; "a" ] ])

let prop_union_upper_bound =
  QCheck.Test.make ~name:"e <= e|f" ~count:200
    (QCheck.pair arb_regex arb_regex)
    (fun (e1, e2) ->
      Nfa.included (Nfa.of_regex e1)
        ~in_:(Nfa.of_regex (R.Union (e1, e2)))
        ~over:[])

let test_eval_on_graph () =
  let g = Datagraph.Graph_gen.fig1 () in
  let r = Nfa.eval_on_graph g (Nfa.of_regex (parse "a a a")) in
  Alcotest.(check bool) "aaa = S1" true
    (Rel.equal r (Datagraph.Graph_gen.fig1_s1 g));
  (* a* includes the identity. *)
  let rstar = Nfa.eval_on_graph g (Nfa.of_regex (parse "a*")) in
  Alcotest.(check bool) "a* reflexive" true
    (Rel.subset (Rel.identity (Datagraph.Data_graph.size g)) rstar);
  (* a+ = transitive closure of the edge relation. *)
  let rplus = Nfa.eval_on_graph g (Nfa.of_regex (parse "a+")) in
  Alcotest.(check bool) "a+ = closure" true
    (Rel.equal rplus (Rel.transitive_closure (Rel.edge_relation g "a")))

let prop_eval_union =
  QCheck.Test.make ~name:"eval distributes over union" ~count:50
    (QCheck.pair arb_regex arb_regex)
    (fun (e1, e2) ->
      let g =
        Datagraph.Graph_gen.random ~seed:11 ~n:5 ~delta:2 ~labels:[ "a"; "b" ]
          ~density:0.3 ()
      in
      Rel.equal
        (Nfa.eval_on_graph g (Nfa.of_regex (R.Union (e1, e2))))
        (Rel.union
           (Nfa.eval_on_graph g (Nfa.of_regex e1))
           (Nfa.eval_on_graph g (Nfa.of_regex e2))))

let prop_eval_concat =
  QCheck.Test.make ~name:"eval of concat = composition" ~count:50
    (QCheck.pair arb_regex arb_regex)
    (fun (e1, e2) ->
      let g =
        Datagraph.Graph_gen.random ~seed:13 ~n:5 ~delta:2 ~labels:[ "a"; "b" ]
          ~density:0.3 ()
      in
      Rel.equal
        (Nfa.eval_on_graph g (Nfa.of_regex (R.Concat (e1, e2))))
        (Rel.compose
           (Nfa.eval_on_graph g (Nfa.of_regex e1))
           (Nfa.eval_on_graph g (Nfa.of_regex e2))))

let prop_simplify_preserves =
  QCheck.Test.make ~name:"simplify preserves the language" ~count:400
    (QCheck.pair arb_regex arb_word)
    (fun (e, w) -> R.matches (R.simplify e) w = R.matches e w)

let prop_simplify_shrinks =
  QCheck.Test.make ~name:"simplify never grows the expression" ~count:300
    arb_regex (fun e -> R.size (R.simplify e) <= R.size e)

let () =
  Alcotest.run "regex"
    [
      ( "parsing",
        [
          Alcotest.test_case "parse" `Quick test_parse;
          Alcotest.test_case "pp roundtrip" `Quick test_pp_roundtrip;
        ] );
      ( "matching",
        [
          Alcotest.test_case "matches" `Quick test_matches;
          Alcotest.test_case "nfa vs derivatives" `Quick
            test_nfa_agrees_with_derivatives;
        ] );
      ( "inclusion",
        [ Alcotest.test_case "basics" `Quick test_inclusion ] );
      ( "graph evaluation",
        [ Alcotest.test_case "fig1" `Quick test_eval_on_graph ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_nfa_matches;
            prop_emptiness;
            prop_roundtrip;
            prop_eval_union;
            prop_eval_concat;
            prop_simplify_preserves;
            prop_simplify_shrinks;
            prop_inclusion_sound;
            prop_union_upper_bound;
          ] );
      ( "printer",
        [ QCheck_alcotest.to_alcotest prop_printer_reference ] );
    ]
