(* Tests for REE: Definition 7 semantics, the paper's Examples 8 and 12,
   the REE→REM embedding (differential), and term relation semantics
   (Lemma 29). *)

module Ree = Ree_lang.Ree
module Term = Ree_lang.Ree_term
module Rem = Rem_lang.Rem
module DP = Datagraph.Data_path
module DV = Datagraph.Data_value
module Rel = Datagraph.Relation

let dv = DV.of_int

let path values labels =
  DP.make
    ~values:(Array.of_list (List.map dv values))
    ~labels:(Array.of_list labels)

let parse s = match Ree.parse s with Ok e -> e | Error m -> failwith m

let test_example8 () =
  (* ((a)≠ · (b)≠)≠ : d1 a d2 b d3 with d1≠d2, d2≠d3, d1≠d3. *)
  let e = parse "((a)!= (b)!=)!=" in
  Alcotest.(check bool) "123" true (Ree.matches e (path [ 1; 2; 3 ] [ "a"; "b" ]));
  Alcotest.(check bool) "121" false (Ree.matches e (path [ 1; 2; 1 ] [ "a"; "b" ]));
  Alcotest.(check bool) "112" false (Ree.matches e (path [ 1; 1; 2 ] [ "a"; "b" ]));
  Alcotest.(check bool) "122" false (Ree.matches e (path [ 1; 2; 2 ] [ "a"; "b" ]))

let test_example12_e3 () =
  (* e3 = (a·(a)=·a)= : d1 a d2 a d3 a d4 with d2=d3 and d1=d4. *)
  let e = parse "(a (a)= a)=" in
  Alcotest.(check bool) "0110" true
    (Ree.matches e (path [ 0; 1; 1; 0 ] [ "a"; "a"; "a" ]));
  Alcotest.(check bool) "3110" false
    (Ree.matches e (path [ 3; 1; 1; 0 ] [ "a"; "a"; "a" ]));
  Alcotest.(check bool) "1231" false
    (Ree.matches e (path [ 1; 2; 3; 1 ] [ "a"; "a"; "a" ]))

let test_semantics_basics () =
  Alcotest.(check bool) "eps single" true (Ree.matches Ree.Eps (DP.singleton (dv 1)));
  Alcotest.(check bool) "eps= single" true
    (Ree.matches (Ree.EqTest Ree.Eps) (DP.singleton (dv 1)));
  (* L(ε≠) = ∅: a single value equals itself. *)
  Alcotest.(check bool) "eps!= empty" false
    (Ree.matches (Ree.NeqTest Ree.Eps) (DP.singleton (dv 1)));
  Alcotest.(check bool) "letter any values" true
    (Ree.matches (Ree.Letter "a") (path [ 4; 9 ] [ "a" ]));
  let e = Ree.Plus (Ree.EqTest (Ree.Letter "a")) in
  Alcotest.(check bool) "plus of a=" true
    (Ree.matches e (path [ 5; 5; 5 ] [ "a"; "a" ]));
  Alcotest.(check bool) "plus of a= broken" false
    (Ree.matches e (path [ 5; 5; 6 ] [ "a"; "a" ]))

let test_parse_roundtrip () =
  List.iter
    (fun s ->
      let e = parse s in
      match Ree.parse (Ree.to_string e) with
      | Ok e' -> Alcotest.(check bool) ("roundtrip " ^ s) true (Ree.equal e e')
      | Error m -> Alcotest.fail m)
    [ "(a (a)= a)="; "((a)!= (b)!=)!="; "a+ | (b c)="; "eps= a*" ]

let arb_small_ree =
  let open QCheck.Gen in
  let gen =
    sized_size (int_bound 5) (fun n ->
        fix
          (fun self n ->
            if n <= 0 then
              oneof
                [
                  return Ree.Eps;
                  map (fun b -> Ree.Letter (if b then "a" else "b")) bool;
                ]
            else
              frequency
                [
                  (2, map2 (fun a b -> Ree.Union (a, b)) (self (n / 2)) (self (n / 2)));
                  (3, map2 (fun a b -> Ree.Concat (a, b)) (self (n / 2)) (self (n / 2)));
                  (1, map (fun a -> Ree.Plus a) (self (n - 1)));
                  (2, map (fun a -> Ree.EqTest a) (self (n - 1)));
                  (2, map (fun a -> Ree.NeqTest a) (self (n - 1)));
                ])
          n)
  in
  QCheck.make ~print:Ree.to_string gen

let arb_small_path =
  let open QCheck.Gen in
  let gen =
    int_bound 4 >>= fun m ->
    list_repeat (m + 1) (int_bound 2) >>= fun values ->
    list_repeat m (map (fun b -> if b then "a" else "b") bool) >>= fun labels ->
    return
      (DP.make
         ~values:(Array.of_list (List.map dv values))
         ~labels:(Array.of_list labels))
  in
  QCheck.make ~print:DP.to_string gen

let prop_to_rem_agrees =
  QCheck.Test.make ~name:"REE-to-REM embedding preserves the language"
    ~count:600
    (QCheck.pair arb_small_ree arb_small_path)
    (fun (e, w) -> Ree.matches e w = Rem.matches (Ree.to_rem e) w)

let prop_ree_automorphism =
  QCheck.Test.make ~name:"Fact 10 for REE" ~count:400
    (QCheck.pair arb_small_ree arb_small_path)
    (fun (e, w) ->
      let w' = DP.map_values (fun d -> dv (DV.to_int d + 10)) w in
      Ree.matches e w = Ree.matches e w')

let prop_roundtrip =
  QCheck.Test.make ~name:"parse (pp e) = e" ~count:300 arb_small_ree (fun e ->
      match Ree.parse (Ree.to_string e) with
      | Ok e' -> Ree.equal e e'
      | Error _ -> false)

let prop_simplify_preserves =
  QCheck.Test.make ~name:"simplify preserves the language" ~count:400
    (QCheck.pair arb_small_ree arb_small_path)
    (fun (e, w) -> Ree.matches (Ree.simplify e) w = Ree.matches e w)

let test_term_relation_fig1 () =
  let g = Datagraph.Graph_gen.fig1 () in
  let t =
    Term.EqTest
      (Term.concat_of
         [ Term.Letter "a"; Term.EqTest (Term.Letter "a"); Term.Letter "a" ])
  in
  Alcotest.(check bool) "term defines S3" true
    (Rel.equal (Term.relation g t) (Datagraph.Graph_gen.fig1_s3 g));
  Alcotest.(check int) "height" 2 (Term.height t)

let arb_small_term =
  let open QCheck.Gen in
  let gen =
    sized_size (int_bound 5) (fun n ->
        fix
          (fun self n ->
            if n <= 0 then
              oneof
                [
                  return Term.Eps;
                  map (fun b -> Term.Letter (if b then "a" else "b")) bool;
                ]
            else
              frequency
                [
                  (3, map2 (fun a b -> Term.Concat (a, b)) (self (n / 2)) (self (n / 2)));
                  (2, map (fun a -> Term.EqTest a) (self (n - 1)));
                  (2, map (fun a -> Term.NeqTest a) (self (n - 1)));
                ])
          n)
  in
  QCheck.make ~print:Term.to_string gen

(* Lemma 29 instantiated: the compositional relation semantics of a term
   agrees with evaluating the term as an REE query via register automata. *)
let prop_term_relation_agrees_with_eval =
  QCheck.Test.make
    ~name:"term relation = REE evaluation (Lemma 29)" ~count:60
    arb_small_term
    (fun t ->
      let g =
        Datagraph.Graph_gen.random ~seed:3 ~n:5 ~delta:2 ~labels:[ "a"; "b" ]
          ~density:0.35 ()
      in
      let direct = Term.relation g t in
      let via_eval =
        Rem_lang.Register_automaton.eval_on_graph g
          (Rem_lang.Register_automaton.of_rem (Ree.to_rem (Term.to_ree t)))
      in
      Rel.equal direct via_eval)

(* The Buffer printers against the Format printers they replaced
   ({!Printer_oracle}); [pp] goes through [to_string], so both must
   match. *)
let printer_prop name arb ~to_string ~pp ~oracle =
  QCheck.Test.make ~name ~count:500 ~long_factor:20 arb (fun x ->
      let expect = oracle x in
      to_string x = expect && Format.asprintf "%a" pp x = expect)

let printer_props =
  [
    printer_prop "Ree: Buffer printer = Format printer" arb_small_ree
      ~to_string:Ree.to_string ~pp:Ree.pp ~oracle:Printer_oracle.ree;
    printer_prop "Ree_term: Buffer printer = Format printer" arb_small_term
      ~to_string:Term.to_string ~pp:Term.pp ~oracle:Printer_oracle.ree_term;
  ]

let () =
  Alcotest.run "ree"
    [
      ( "semantics",
        [
          Alcotest.test_case "example 8" `Quick test_example8;
          Alcotest.test_case "example 12 e3" `Quick test_example12_e3;
          Alcotest.test_case "basics" `Quick test_semantics_basics;
          Alcotest.test_case "parse roundtrip" `Quick test_parse_roundtrip;
        ] );
      ( "terms",
        [ Alcotest.test_case "fig1 S3" `Quick test_term_relation_fig1 ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_to_rem_agrees;
            prop_ree_automorphism;
            prop_roundtrip;
            prop_simplify_preserves;
            prop_term_relation_agrees_with_eval;
          ] );
      ( "printer",
        List.map QCheck_alcotest.to_alcotest printer_props );
    ]
