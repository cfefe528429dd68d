(* Tests for REM: conditions, the Definition 5 semantics, the register
   automaton semantics (differentially), basic REMs and Lemma 15. *)

module C = Rem_lang.Condition
module Rem = Rem_lang.Rem
module Basic = Rem_lang.Basic_rem
module RA = Rem_lang.Register_automaton
module DP = Datagraph.Data_path
module DV = Datagraph.Data_value

let dv = DV.of_int

let path values labels =
  DP.make
    ~values:(Array.of_list (List.map dv values))
    ~labels:(Array.of_list labels)

let parse s = match Rem.parse s with Ok e -> e | Error m -> failwith m

(* ---------- conditions ---------- *)

let test_condition_sat () =
  let assignment = [| Some (dv 5); None |] in
  let sat c d = C.sat c ~d:(dv d) ~assignment in
  Alcotest.(check bool) "true" true (sat C.True 0);
  Alcotest.(check bool) "eq holds" true (sat (C.Eq 0) 5);
  Alcotest.(check bool) "eq fails" false (sat (C.Eq 0) 6);
  Alcotest.(check bool) "neq" true (sat (C.Neq 0) 6);
  (* ⊥ differs from every data value (Definition 3). *)
  Alcotest.(check bool) "bottom neq" true (sat (C.Neq 1) 5);
  Alcotest.(check bool) "bottom eq" false (sat (C.Eq 1) 5);
  Alcotest.(check bool) "and" true (sat (C.And (C.Eq 0, C.Neq 1)) 5);
  Alcotest.(check bool) "or" true (sat (C.Or (C.Eq 0, C.Eq 1)) 5);
  Alcotest.(check bool) "not" false (sat (C.Not C.True) 5)

let test_condition_exactly_one_of_eq_neq () =
  (* For every register, exactly one of r=, r≠ holds — the basis of
     complete types. *)
  let assignments =
    [ [| Some (dv 1) |]; [| None |]; [| Some (dv 2) |] ]
  in
  List.iter
    (fun assignment ->
      List.iter
        (fun d ->
          let eq = C.sat (C.Eq 0) ~d:(dv d) ~assignment in
          let neq = C.sat (C.Neq 0) ~d:(dv d) ~assignment in
          Alcotest.(check bool) "exclusive" true (eq <> neq))
        [ 1; 2; 3 ])
    assignments

let test_complete_types () =
  let c = C.Or (C.Eq 0, C.Eq 1) in
  let types = C.complete_types ~k:2 c in
  Alcotest.(check int) "three of four types" 3 (List.length types);
  Alcotest.(check int) "unsat empty" 0 (List.length (C.complete_types ~k:2 C.ff));
  Alcotest.(check int) "true has all" 4 (List.length (C.complete_types ~k:2 C.True));
  (* of_complete_type round-trips through eval_type. *)
  List.iter
    (fun ty ->
      Alcotest.(check bool) "pinned" true (C.eval_type (C.of_complete_type ty) ty))
    types

let test_condition_parse () =
  let roundtrip s =
    match C.parse s with
    | Error m -> Alcotest.fail m
    | Ok c -> (
        match C.parse (C.to_string c) with
        | Ok c' -> Alcotest.(check bool) ("roundtrip " ^ s) true (C.equal c c')
        | Error m -> Alcotest.fail m)
  in
  List.iter roundtrip [ "true"; "r1="; "r2!="; "r1= & r2!="; "!(r1= | r2=)" ];
  (match C.parse "r0=" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "r0 should be rejected");
  match C.parse "r1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bare register should be rejected"

(* ---------- REM semantics: the paper's Example 6 ---------- *)

let test_example6_one_register () =
  (* ↓r1·a·[r1=]: data paths d a d with equal endpoints. *)
  let e = parse "@r1 a[r1=]" in
  Alcotest.(check int) "one register" 1 (Rem.registers e);
  Alcotest.(check bool) "dad" true (Rem.matches e (path [ 7; 7 ] [ "a" ]));
  Alcotest.(check bool) "dad'" false (Rem.matches e (path [ 7; 8 ] [ "a" ]))

let test_example6_two_registers () =
  (* ↓r1·a·↓r2·b·a[r1=]·b[r2≠]: d1 a d2 b d3 a d4 b d5 with d1 = d4,
     d2 ≠ d5. *)
  let e = parse "@r1 a @r2 b a[r1=] b[r2!=]" in
  Alcotest.(check int) "two registers" 2 (Rem.registers e);
  let accept = path [ 1; 2; 3; 1; 4 ] [ "a"; "b"; "a"; "b" ] in
  let reject1 = path [ 1; 2; 3; 9; 4 ] [ "a"; "b"; "a"; "b" ] in
  let reject2 = path [ 1; 2; 3; 1; 2 ] [ "a"; "b"; "a"; "b" ] in
  Alcotest.(check bool) "accepted" true (Rem.matches e accept);
  Alcotest.(check bool) "d1<>d4" false (Rem.matches e reject1);
  Alcotest.(check bool) "d2=d5" false (Rem.matches e reject2)

let test_rem_eps_and_plus () =
  let e = parse "(@r1 a[r1=])+" in
  (* Iterated same-endpoint steps: every value equals its predecessor. *)
  Alcotest.(check bool) "d a d a d" true
    (Rem.matches e (path [ 3; 3; 3 ] [ "a"; "a" ]));
  Alcotest.(check bool) "value change" false
    (Rem.matches e (path [ 3; 3; 4 ] [ "a"; "a" ]));
  Alcotest.(check bool) "eps on single value" true
    (Rem.matches Rem.Eps (DP.singleton (dv 1)));
  Alcotest.(check bool) "eps rejects steps" false
    (Rem.matches Rem.Eps (path [ 1; 1 ] [ "a" ]))

let test_rem_binding_scope () =
  (* e2 of Example 12: ↓r1·a·↓r2·a[r1=]·a[r2=] — pattern x y x y. *)
  let e = parse "@r1 a @r2 a[r1=] a[r2=]" in
  Alcotest.(check bool) "0101" true
    (Rem.matches e (path [ 0; 1; 0; 1 ] [ "a"; "a"; "a" ]));
  Alcotest.(check bool) "0102" false
    (Rem.matches e (path [ 0; 1; 0; 2 ] [ "a"; "a"; "a" ]));
  Alcotest.(check bool) "0120" false
    (Rem.matches e (path [ 0; 1; 2; 0 ] [ "a"; "a"; "a" ]))

let test_rem_multi_bind () =
  (* ↓{r1,r2} binds two registers to the same value. *)
  let e = parse "@{r1,r2} a[r1= & r2=]" in
  Alcotest.(check bool) "same" true (Rem.matches e (path [ 5; 5 ] [ "a" ]));
  Alcotest.(check bool) "diff" false (Rem.matches e (path [ 5; 6 ] [ "a" ]))

let test_rem_automorphism_invariance () =
  (* Fact 10 on a fixed expression. *)
  let e = parse "@r1 a (a[r1=] | a[r1!=] b)" in
  let w = path [ 0; 1; 0 ] [ "a"; "a" ] in
  let w' = path [ 10; 4; 10 ] [ "a"; "a" ] in
  Alcotest.(check bool) "w in L" true (Rem.matches e w);
  Alcotest.(check bool) "automorphic copy in L" true (Rem.matches e w')

(* ---------- register automaton: differential against Definition 5 ---- *)

let arb_small_rem =
  let open QCheck.Gen in
  let gen =
    sized_size (int_bound 5) (fun n ->
        fix
          (fun self n ->
            if n <= 0 then
              oneof
                [
                  return Rem.Eps;
                  map (fun b -> Rem.Letter (if b then "a" else "b")) bool;
                ]
            else
              frequency
                [
                  (2, map2 (fun a b -> Rem.Union (a, b)) (self (n / 2)) (self (n / 2)));
                  (3, map2 (fun a b -> Rem.Concat (a, b)) (self (n / 2)) (self (n / 2)));
                  (1, map (fun a -> Rem.Plus a) (self (n - 1)));
                  ( 2,
                    map2
                      (fun a r -> Rem.Test (a, if r then C.Eq 0 else C.Neq 1))
                      (self (n - 1)) bool );
                  (2, map2 (fun a r -> Rem.Bind ([ (if r then 0 else 1) ], a)) (self (n - 1)) bool);
                ])
          n)
  in
  QCheck.make ~print:Rem.to_string gen

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

let prop_ra_agrees =
  QCheck.Test.make
    ~name:"register automaton agrees with Definition 5 semantics" ~count:800
    (QCheck.pair arb_small_rem arb_small_path)
    (fun (e, w) -> RA.accepts (RA.of_rem e) w = Rem.matches e w)

let prop_rem_automorphism =
  QCheck.Test.make ~name:"Fact 10: closure under automorphisms" ~count:400
    (QCheck.pair arb_small_rem arb_small_path)
    (fun (e, w) ->
      (* Apply the automorphism v ↦ v+10 (injective on the values used). *)
      let w' = DP.map_values (fun d -> dv (DV.to_int d + 10)) w in
      Rem.matches e w = Rem.matches e w')

(* ---------- basic REMs and Lemma 15 ---------- *)

let test_basic_matches () =
  let b =
    [
      { Basic.bind = [ 0 ]; label = "a"; cond = C.True };
      { Basic.bind = []; label = "a"; cond = C.Eq 0 };
    ]
  in
  Alcotest.(check bool) "xyx" true (Basic.matches b (path [ 1; 2; 1 ] [ "a"; "a" ]));
  Alcotest.(check bool) "xyz" false (Basic.matches b (path [ 1; 2; 3 ] [ "a"; "a" ]));
  Alcotest.(check bool) "wrong label" false
    (Basic.matches b (path [ 1; 2; 1 ] [ "a"; "b" ]));
  (* Agreement with the generic semantics. *)
  Alcotest.(check bool) "agrees with Rem.matches" true
    (Rem.matches (Basic.to_rem b) (path [ 1; 2; 1 ] [ "a"; "a" ]))

let test_lemma15_basic () =
  (* L(e_[w]) = [w]: w' matches iff automorphic to w. *)
  let w = path [ 0; 1; 0; 2 ] [ "a"; "b"; "a" ] in
  let e = Basic.of_data_path w in
  Alcotest.(check bool) "w itself" true (Basic.matches e w);
  Alcotest.(check bool) "automorphic copy" true
    (Basic.matches e (path [ 5; 6; 5; 7 ] [ "a"; "b"; "a" ]));
  Alcotest.(check bool) "non-automorphic (merge)" false
    (Basic.matches e (path [ 5; 6; 5; 5 ] [ "a"; "b"; "a" ]));
  Alcotest.(check bool) "non-automorphic (split)" false
    (Basic.matches e (path [ 5; 6; 7; 8 ] [ "a"; "b"; "a" ]))

let test_lemma15_freshness () =
  (* The construction printed in the paper omits freshness tests; ours
     adds them.  Without them e_[0a1] would accept 0a0. *)
  let w = path [ 0; 1 ] [ "a" ] in
  let e = Basic.of_data_path w in
  Alcotest.(check bool) "0a1 in" true (Basic.matches e (path [ 0; 1 ] [ "a" ]));
  Alcotest.(check bool) "0a0 out" false (Basic.matches e (path [ 0; 0 ] [ "a" ]))

let test_lemma15_singleton () =
  let w = DP.singleton (dv 3) in
  let e = Basic.of_data_path w in
  Alcotest.(check int) "empty block list" 0 (Basic.length e);
  Alcotest.(check bool) "any single value" true
    (Basic.matches e (DP.singleton (dv 9)))

let prop_lemma15 =
  QCheck.Test.make
    ~name:"Lemma 15: w' in L(e_[w]) iff automorphic to w" ~count:500
    (QCheck.pair arb_small_path arb_small_path)
    (fun (w, w') ->
      let e = Basic.of_data_path w in
      Basic.matches e w' = DP.automorphic w w')

let prop_simplify_preserves =
  QCheck.Test.make ~name:"simplify preserves the language" ~count:400
    (QCheck.pair arb_small_rem arb_small_path)
    (fun (e, w) -> Rem.matches (Rem.simplify e) w = Rem.matches e w)

(* ---------- pretty-printer / parser roundtrip ---------- *)

let prop_rem_roundtrip =
  QCheck.Test.make ~name:"parse (pp e) = e" ~count:300 arb_small_rem
    (fun e ->
      match Rem.parse (Rem.to_string e) with
      | Ok e' -> Rem.equal e e'
      | Error _ -> false)

(* ---------- Buffer printers against the Format oracle ---------- *)

(* Registers up to r12, so two-digit indices print too. *)
let gen_cond =
  let open QCheck.Gen in
  sized_size (int_bound 4) (fun n ->
      fix
        (fun self n ->
          if n <= 0 then
            frequency
              [
                (1, return C.True);
                (3, map (fun i -> C.Eq i) (int_bound 11));
                (3, map (fun i -> C.Neq i) (int_bound 11));
              ]
          else
            frequency
              [
                (2, map2 (fun a b -> C.And (a, b)) (self (n / 2)) (self (n / 2)));
                (2, map2 (fun a b -> C.Or (a, b)) (self (n / 2)) (self (n / 2)));
                (1, map (fun a -> C.Not a) (self (n - 1)));
                (1, self 0);
              ])
        n)

let gen_regs = QCheck.Gen.(list_size (int_bound 3) (int_bound 11))

(* [arb_small_rem]'s shapes with arbitrary conditions and bind lists
   (including the empty and multi-register binds it never makes). *)
let gen_rich_rem =
  let open QCheck.Gen in
  sized_size (int_bound 5) (fun n ->
      fix
        (fun self n ->
          if n <= 0 then
            oneof
              [
                return Rem.Eps;
                map (fun a -> Rem.Letter a) (oneofl [ "a"; "b"; "lbl_2" ]);
              ]
          else
            frequency
              [
                (2, map2 (fun a b -> Rem.Union (a, b)) (self (n / 2)) (self (n / 2)));
                (3, map2 (fun a b -> Rem.Concat (a, b)) (self (n / 2)) (self (n / 2)));
                (1, map (fun a -> Rem.Plus a) (self (n - 1)));
                (2, map2 (fun a c -> Rem.Test (a, c)) (self (n - 1)) gen_cond);
                (2, map2 (fun a rs -> Rem.Bind (rs, a)) (self (n - 1)) gen_regs);
              ])
        n)

let gen_basic =
  let open QCheck.Gen in
  list_size (int_bound 4)
    (map3
       (fun bind label cond -> { Basic.bind; label; cond })
       gen_regs
       (oneofl [ "a"; "b"; "lbl_2" ])
       (frequency [ (1, return C.True); (3, gen_cond) ]))

let printer_prop name ~print gen ~to_string ~pp ~oracle =
  QCheck.Test.make ~name ~count:500 ~long_factor:20 (QCheck.make ~print gen)
    (fun x ->
      let expect = oracle x in
      to_string x = expect && Format.asprintf "%a" pp x = expect)

let printer_props =
  [
    printer_prop "Rem: Buffer printer = Format printer" ~print:Rem.to_string
      QCheck.Gen.(oneof [ QCheck.gen arb_small_rem; gen_rich_rem ])
      ~to_string:Rem.to_string ~pp:Rem.pp ~oracle:Printer_oracle.rem;
    printer_prop "Condition: Buffer printer = Format printer"
      ~print:C.to_string gen_cond ~to_string:C.to_string ~pp:C.pp
      ~oracle:Printer_oracle.condition;
    printer_prop "Basic_rem: Buffer printer = Format printer"
      ~print:Basic.to_string
      QCheck.Gen.(
        oneof [ gen_basic; map Basic.of_data_path (QCheck.gen arb_small_path) ])
      ~to_string:Basic.to_string ~pp:Basic.pp ~oracle:Printer_oracle.basic_rem;
  ]

(* ---------- emptiness and witnesses ---------- *)

let test_emptiness_basics () =
  let check_rem s expected_empty =
    let e = parse s in
    Alcotest.(check bool) s expected_empty (RA.is_empty (RA.of_rem e))
  in
  check_rem "a" false;
  check_rem "@r1 a[r1=]" false;
  (* d a d' with d = d' and d <> d' simultaneously: empty. *)
  check_rem "@r1 a[r1= & r1!=]" true;
  (* Binding then requiring inequality with itself at the same value. *)
  check_rem "@r1 eps[r1!=]" true;
  check_rem "@r1 eps[r1=]" false;
  (* Needs two distinct values; satisfiable. *)
  check_rem "@r1 a[r1!=]" false;
  (* eps with unsatisfiable condition — the canonical empty REM. *)
  Alcotest.(check bool) "empty rem" true
    (RA.is_empty (RA.of_rem (Rem.Test (Rem.Eps, C.ff))))

let test_shortest_accepted () =
  let e = parse "@r1 a a a[r1=]" in
  (match RA.shortest_accepted (RA.of_rem e) with
  | None -> Alcotest.fail "expected a witness"
  | Some w ->
      Alcotest.(check int) "length 3" 3 (DP.length w);
      Alcotest.(check bool) "accepted" true (RA.accepts (RA.of_rem e) w);
      Alcotest.(check bool) "endpoints equal" true
        (Datagraph.Data_value.equal (DP.first w) (DP.last w)));
  Alcotest.(check bool) "empty language" true
    (RA.shortest_accepted (RA.of_rem (Rem.Test (Rem.Eps, C.ff))) = None)

let prop_emptiness_agrees =
  QCheck.Test.make
    ~name:"is_empty agrees with shortest_accepted and with membership"
    ~count:300 arb_small_rem
    (fun e ->
      let a = RA.of_rem e in
      match RA.shortest_accepted a with
      | Some w -> (not (RA.is_empty a)) && RA.accepts a w && Rem.matches e w
      | None -> RA.is_empty a (* generated REMs have short witnesses *))

(* ---------- evaluation on graphs ---------- *)

let test_eval_on_fig1 () =
  let g = Datagraph.Graph_gen.fig1 () in
  let e2 = parse "@r1 a @r2 a[r1=] a[r2=]" in
  let r = RA.eval_on_graph g (RA.of_rem e2) in
  Alcotest.(check bool) "e2 defines S2" true
    (Datagraph.Relation.equal r (Datagraph.Graph_gen.fig1_s2 g))

let () =
  Alcotest.run "rem"
    [
      ( "conditions",
        [
          Alcotest.test_case "satisfaction" `Quick test_condition_sat;
          Alcotest.test_case "eq/neq exclusive" `Quick
            test_condition_exactly_one_of_eq_neq;
          Alcotest.test_case "complete types" `Quick test_complete_types;
          Alcotest.test_case "parse" `Quick test_condition_parse;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "example 6 (1 register)" `Quick
            test_example6_one_register;
          Alcotest.test_case "example 6 (2 registers)" `Quick
            test_example6_two_registers;
          Alcotest.test_case "eps and plus" `Quick test_rem_eps_and_plus;
          Alcotest.test_case "binding scope" `Quick test_rem_binding_scope;
          Alcotest.test_case "multi bind" `Quick test_rem_multi_bind;
          Alcotest.test_case "automorphism invariance" `Quick
            test_rem_automorphism_invariance;
        ] );
      ( "basic REMs",
        [
          Alcotest.test_case "matches" `Quick test_basic_matches;
          Alcotest.test_case "lemma 15" `Quick test_lemma15_basic;
          Alcotest.test_case "lemma15_freshness" `Quick test_lemma15_freshness;
          Alcotest.test_case "singleton path" `Quick test_lemma15_singleton;
        ] );
      ( "emptiness",
        [
          Alcotest.test_case "basics" `Quick test_emptiness_basics;
          Alcotest.test_case "shortest witness" `Quick test_shortest_accepted;
        ] );
      ( "evaluation",
        [ Alcotest.test_case "fig1 e2" `Quick test_eval_on_fig1 ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_ra_agrees;
            prop_rem_automorphism;
            prop_lemma15;
            prop_rem_roundtrip;
            prop_simplify_preserves;
            prop_emptiness_agrees;
          ] );
      ( "printer",
        List.map QCheck_alcotest.to_alcotest printer_props );
    ]
