(* The engine layer: registry dispatch, budgets, instance validation, and
   certificate checking — plus agreement between registry verdicts and
   the pre-engine decision modules they wrap. *)

module Rel = Datagraph.Relation
module DG = Datagraph.Data_graph
module TR = Datagraph.Tuple_relation
module Gen = Datagraph.Graph_gen
module Budget = Engine.Budget
module Instance = Engine.Instance
module Outcome = Engine.Outcome
module Registry = Engine.Registry
module Rpq = Definability.Rpq_definability
module Remd = Definability.Rem_definability
module Reed = Definability.Ree_definability
module Ucd = Definability.Ucrdpq_definability

let () = Definability.Deciders.init ()

let ws_def (o : Definability.Witness_search.outcome) =
  match o.verdict with
  | Definability.Witness_search.Definable -> true
  | Definability.Witness_search.Not_definable _ -> false
  | Definability.Witness_search.Exhausted -> failwith "search truncated"

let ree_def g s =
  match Reed.verdict (Reed.search g s) with
  | Some b -> b
  | None -> failwith "REE closure truncated"

let fig1 = Gen.fig1 ()
let s1 = Gen.fig1_s1 fig1
let s2 = Gen.fig1_s2 fig1
let s3 = Gen.fig1_s3 fig1
let all_langs = [ "krem"; "ree"; "rem"; "rpq"; "ucrdpq" ]

let decide ?budget ?(k = 1) lang g s =
  let inst = Instance.of_binary g s in
  match Registry.decide ?budget ~params:{ Registry.k } ~lang inst with
  | Ok o -> o
  | Error msg -> Alcotest.fail msg

let random_instances =
  List.map
    (fun seed ->
      let g =
        Gen.random ~seed ~n:4 ~delta:2 ~labels:[ "a"; "b" ] ~density:0.35 ()
      in
      (g, Gen.random_reachable_relation ~seed g ~count:2))
    [ 1; 2; 3; 4; 5; 6 ]

(* ---------- registry ---------- *)

let test_registry_names () =
  Alcotest.(check (list string)) "all five deciders registered" all_langs
    (Registry.names ())

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_registry_unknown_lang () =
  let inst = Instance.of_binary fig1 s1 in
  match Registry.decide ~lang:"datalog" inst with
  | Ok _ -> Alcotest.fail "dispatch on an unregistered language succeeded"
  | Error msg ->
      Alcotest.(check bool) "error names the language" true
        (contains ~sub:"datalog" msg && contains ~sub:"rpq" msg)

let test_registry_reregister_idempotent () =
  (* init is safe to call again and leaves the same names registered. *)
  Definability.Deciders.init ();
  Alcotest.(check (list string)) "names unchanged" all_langs (Registry.names ())

(* ---------- instance validation ---------- *)

let test_instance_validation () =
  let n = DG.size fig1 in
  (match Instance.create fig1 (TR.empty ~universe:(n + 1) ~arity:2) with
  | Ok _ -> Alcotest.fail "universe mismatch accepted"
  | Error _ -> ());
  (match Instance.create fig1 (TR.empty ~universe:n ~arity:0) with
  | Ok _ -> Alcotest.fail "arity 0 accepted"
  | Error _ -> ());
  match Instance.create fig1 (TR.of_binary s2) with
  | Ok inst ->
      Alcotest.(check int) "arity" 2 (Instance.arity inst);
      Alcotest.(check bool) "binary view packed" true
        (match Instance.binary inst with
        | Some b -> Rel.equal b s2
        | None -> false)
  | Error msg -> Alcotest.fail msg

let test_instance_nonbinary_unsupported () =
  (* Path-query deciders must refuse a ternary relation; ucrdpq takes it. *)
  let n = DG.size fig1 in
  let s = TR.of_list ~universe:n ~arity:3 [ [ 0; 1; 2 ] ] in
  let inst = Instance.create_exn fig1 s in
  List.iter
    (fun lang ->
      match Registry.decide ~lang inst with
      | Ok o -> (
          match o.Outcome.verdict with
          | Outcome.Unknown (Outcome.Unsupported _) -> ()
          | _ -> Alcotest.fail (lang ^ " did not refuse a ternary relation"))
      | Error msg -> Alcotest.fail msg)
    [ "rpq"; "krem"; "rem"; "ree" ];
  match Registry.decide ~lang:"ucrdpq" inst with
  | Ok o ->
      Alcotest.(check bool) "ucrdpq decides ternary relations" true
        (Outcome.definable o <> None)
  | Error msg -> Alcotest.fail msg

(* ---------- agreement with the pre-engine modules ---------- *)

let check_agreement name g s =
  let expect lang expected =
    let k = if lang = "krem" then 2 else 1 in
    let o = decide ~k lang g s in
    Alcotest.(check (option bool))
      (Printf.sprintf "%s: %s" name lang)
      (Some expected) (Outcome.definable o)
  in
  expect "rpq" (ws_def (Rpq.search g s));
  expect "ree" (ree_def g s);
  expect "krem" (ws_def (Remd.search_k g ~k:2 s));
  expect "rem" (ws_def (Remd.search g s));
  expect "ucrdpq" (Ucd.is_definable_binary g s)

let test_agreement_fig1 () =
  check_agreement "S1" fig1 s1;
  check_agreement "S2" fig1 s2;
  check_agreement "S3" fig1 s3

let test_agreement_random () =
  List.iteri
    (fun i (g, s) -> check_agreement (Printf.sprintf "random %d" i) g s)
    random_instances

(* ---------- budgets ---------- *)

let test_budget_take_fuel () =
  let b = Budget.create ~fuel:3 () in
  Alcotest.(check bool) "take 1" true (Budget.take b);
  Alcotest.(check bool) "take 2" true (Budget.take b);
  Alcotest.(check bool) "not yet exhausted" false (Budget.exhausted b);
  Alcotest.(check bool) "take 3" true (Budget.take b);
  Alcotest.(check bool) "take 4 fails" false (Budget.take b);
  Alcotest.(check bool) "sticky" false (Budget.take b);
  Alcotest.(check bool) "exhausted" true (Budget.exhausted b);
  Alcotest.(check int) "used" 3 (Budget.used b)

let test_budget_invalid () =
  Alcotest.check_raises "negative fuel"
    (Invalid_argument "Engine.Budget.create: negative fuel") (fun () ->
      ignore (Budget.create ~fuel:(-1) ()));
  Alcotest.check_raises "negative deadline"
    (Invalid_argument "Engine.Budget.create: negative deadline") (fun () ->
      ignore (Budget.create ~deadline_s:(-0.5) ()))

let unknown_exhausted o =
  match o.Outcome.verdict with
  | Outcome.Unknown Outcome.Budget_exhausted -> true
  | _ -> false

let test_fuel_exhaustion_deterministic () =
  (* Tiny fuel starves every decider into the same Unknown on every run,
     and the search state carries nothing over between runs.  The ucrdpq
     CSP proves fig1/S2 preserved almost without branching (arc
     consistency does the work), so only a zero budget reliably starves it. *)
  List.iter
    (fun lang ->
      let fuel = if lang = "ucrdpq" then 0 else 2 in
      let run () =
        decide ~budget:(Budget.create ~fuel ()) ~k:2 lang fig1 s2
      in
      let o1 = run () in
      let o2 = run () in
      Alcotest.(check bool) (lang ^ ": unknown") true (unknown_exhausted o1);
      Alcotest.(check bool)
        (lang ^ ": deterministic steps") true
        (o1.Outcome.stats.steps = o2.Outcome.stats.steps);
      Alcotest.(check string)
        (lang ^ ": deterministic verdict")
        (Outcome.verdict_name o1.Outcome.verdict)
        (Outcome.verdict_name o2.Outcome.verdict);
      (* The starved run corrupts nothing: an unlimited rerun still
         reaches the true verdict. *)
      let full = decide ~k:2 lang fig1 s2 in
      Alcotest.(check bool)
        (lang ^ ": rerun decides") true
        (Outcome.definable full <> None))
    all_langs

let test_deadline_already_expired () =
  List.iter
    (fun lang ->
      let o =
        decide ~budget:(Budget.create ~deadline_s:0.0 ()) ~k:2 lang fig1 s2
      in
      Alcotest.(check bool) (lang ^ ": unknown") true (unknown_exhausted o))
    all_langs

let test_deadline_krem_fig1 () =
  (* The ISSUE acceptance scenario: a 1ms wall-clock deadline on the
     Figure 1 k-REM instance must come back unknown, not wrong.  k = 3
     (10 nodes, (delta+1)^3 assignments each) takes orders of magnitude
     longer than 1ms. *)
  let o =
    decide ~budget:(Budget.create ~deadline_s:0.001 ()) ~k:3 "krem" fig1 s2
  in
  Alcotest.(check bool) "unknown under 1ms deadline" true (unknown_exhausted o)

(* ---------- certificates ---------- *)

let check_cert_accepted name g s lang k =
  let o = decide ~k lang g s in
  match o.Outcome.verdict with
  | Outcome.Definable cert -> (
      let inst = Instance.of_binary g s in
      match Outcome.check_certificate inst cert with
      | Ok () -> ()
      | Error msg ->
          Alcotest.fail (Printf.sprintf "%s: %s cert rejected: %s" name lang msg))
  | _ -> ()

let test_certificates_fig1 () =
  List.iter
    (fun (name, s) ->
      List.iter
        (fun lang -> check_cert_accepted name fig1 s lang 2)
        all_langs)
    [ ("S1", s1); ("S2", s2); ("S3", s3) ]

let test_certificates_random () =
  List.iteri
    (fun i (g, s) ->
      List.iter
        (fun lang -> check_cert_accepted (Printf.sprintf "random %d" i) g s lang 1)
        all_langs)
    random_instances

let test_certificates_empty_relation () =
  (* The empty relation is definable everywhere; its certificates must
     also check (the engine special-cases the empty UCRDPQ union). *)
  let empty = Rel.empty (DG.size fig1) in
  List.iter
    (fun lang -> check_cert_accepted "empty" fig1 empty lang 1)
    all_langs;
  let o = decide "ucrdpq" fig1 empty in
  match o.Outcome.verdict with
  | Outcome.Definable (Outcome.Ucrdpq []) -> ()
  | _ -> Alcotest.fail "empty relation should certify as the empty union"

let test_mutated_certificates_rejected () =
  (* Swapping a real certificate for an empty-language query of the same
     language must fail the check whenever the relation is nonempty. *)
  let inst = Instance.of_binary fig1 s1 in
  List.iter
    (fun (name, cert) ->
      match Outcome.check_certificate inst cert with
      | Ok () -> Alcotest.fail (name ^ ": empty-language mutant accepted")
      | Error _ -> ())
    [
      ("rpq", Outcome.Rpq Regexp.Regex.Empty);
      ("rem", Outcome.Rem Remd.empty_rem);
      ("ree", Outcome.Ree Reed.empty_ree);
      ("ucrdpq", Outcome.Ucrdpq []);
    ]

let test_wrong_language_certificate_rejected () =
  (* An RPQ certificate that defines S1 must still be rejected against
     S2 — the checker compares answers, not shapes. *)
  let o = decide "rpq" fig1 s1 in
  match o.Outcome.verdict with
  | Outcome.Definable cert -> (
      let inst2 = Instance.of_binary fig1 s2 in
      match Outcome.check_certificate inst2 cert with
      | Ok () -> Alcotest.fail "S1 certificate accepted for S2"
      | Error _ -> ())
  | _ -> Alcotest.fail "S1 should be RPQ-definable"

(* ---------- outcome plumbing ---------- *)

let test_counterexample_missing_pairs () =
  let o = decide "rpq" fig1 s2 in
  match o.Outcome.verdict with
  | Outcome.Not_definable (Outcome.Missing_pairs pairs) ->
      Alcotest.(check bool) "pairs reported" true (pairs <> []);
      List.iter
        (fun (u, v) ->
          Alcotest.(check bool) "pair is in S2" true (Rel.mem s2 u v))
        pairs
  | _ -> Alcotest.fail "S2 should be RPQ-refuted with missing pairs"

let test_counterexample_violating_hom () =
  (* On a single-valued 3-cycle the rotation is a homomorphism, so the
     unary relation {0} is not preserved; the counterexample must be a
     genuine homomorphism moving a tuple out. *)
  let dv = Datagraph.Data_value.of_int in
  let c3 = Gen.cycle ~values:[ dv 0; dv 0; dv 0 ] ~label:"a" in
  let s = TR.of_list ~universe:3 ~arity:1 [ [ 0 ] ] in
  let inst = Instance.create_exn c3 s in
  let o =
    match Registry.decide ~lang:"ucrdpq" inst with
    | Ok o -> o
    | Error msg -> Alcotest.fail msg
  in
  match o.Outcome.verdict with
  | Outcome.Not_definable (Outcome.Violating_hom { hom; tuple }) ->
      Alcotest.(check bool) "hom is a hom" true
        (Definability.Hom.is_hom c3 hom);
      Alcotest.(check bool) "tuple in S" true (TR.mem s tuple);
      Alcotest.(check bool) "image escapes S" false
        (TR.mem s (List.map (fun p -> hom.(p)) tuple))
  | _ -> Alcotest.fail "{0} on the 3-cycle should be refuted by a hom"

(* One certificate string per language, recorded when the printers
   still went through Format: the Buffer printers must render the same
   bytes, including the hov line breaks of a ucrdpq union. *)
let golden_certificates =
  [
    ("rpq", 1, fig1, s1, "a . a . a");
    ("ree", 1, fig1, s1, "a!= (a a) | a= (a a)");
    ("rem", 1, fig1, s2, "(@r1 a[r1!=]) ((@r2 a[r1=]) a[r2=])");
    ( "krem", 2, fig1, s2,
      "(@r2 a[r1!= & r2!=]) ((@r1 a[r1!= & r2=]) a[r1= & r2!=])" );
    ( "ucrdpq", 1, fst (List.nth random_instances 3),
      snd (List.nth random_instances 3),
      "Ans(x0,x1) :- x0 -[eps]-> x0 /\\ x1 -[eps]-> x1 /\\ x2 -[eps]-> x2 /\\\n\
      \              x3 -[eps]-> x3 /\\ x3 -[b]-> x0 /\\ x2 -[b]-> x2 /\\\n\
      \              x0 -[b]-> x2 /\\ x0 -[b]-> x1 /\\ x3 -[a]-> x2 /\\ x3 -[a]-> x1 /\\\n\
      \              x2 -[a]-> x2 /\\ x0 -[a]-> x3 /\\ x3 -[((b | a)+)=]-> x3 /\\\n\
      \              x3 -[((b | a)+)=]-> x2 /\\ x3 -[((b | a)+)=]-> x0 /\\\n\
      \              x2 -[((b | a)+)=]-> x2 /\\ x0 -[((b | a)+)=]-> x3 /\\\n\
      \              x0 -[((b | a)+)=]-> x2 /\\ x0 -[((b | a)+)=]-> x0 /\\\n\
      \              x3 -[((b | a)+)!=]-> x1 /\\ x0 -[((b | a)+)!=]-> x1" );
  ]

let test_certificate_goldens () =
  List.iter
    (fun (lang, k, g, s, expect) ->
      match Outcome.certificate (decide ~k lang g s) with
      | Some c ->
          Alcotest.(check string) lang expect (Outcome.certificate_to_string c)
      | None -> Alcotest.failf "%s: no certificate" lang)
    golden_certificates

let () =
  Alcotest.run "engine"
    [
      ( "registry",
        [
          Alcotest.test_case "names" `Quick test_registry_names;
          Alcotest.test_case "unknown language" `Quick test_registry_unknown_lang;
          Alcotest.test_case "re-register" `Quick
            test_registry_reregister_idempotent;
        ] );
      ( "instance",
        [
          Alcotest.test_case "validation" `Quick test_instance_validation;
          Alcotest.test_case "non-binary unsupported" `Quick
            test_instance_nonbinary_unsupported;
        ] );
      ( "agreement",
        [
          Alcotest.test_case "fig1" `Quick test_agreement_fig1;
          Alcotest.test_case "random" `Quick test_agreement_random;
        ] );
      ( "budget",
        [
          Alcotest.test_case "fuel accounting" `Quick test_budget_take_fuel;
          Alcotest.test_case "invalid arguments" `Quick test_budget_invalid;
          Alcotest.test_case "fuel exhaustion deterministic" `Quick
            test_fuel_exhaustion_deterministic;
          Alcotest.test_case "expired deadline" `Quick
            test_deadline_already_expired;
          Alcotest.test_case "1ms deadline on fig1 krem" `Quick
            test_deadline_krem_fig1;
        ] );
      ( "certificates",
        [
          Alcotest.test_case "fig1 accepted" `Quick test_certificates_fig1;
          Alcotest.test_case "random accepted" `Quick test_certificates_random;
          Alcotest.test_case "empty relation" `Quick
            test_certificates_empty_relation;
          Alcotest.test_case "mutants rejected" `Quick
            test_mutated_certificates_rejected;
          Alcotest.test_case "wrong relation rejected" `Quick
            test_wrong_language_certificate_rejected;
          Alcotest.test_case "golden strings" `Quick test_certificate_goldens;
        ] );
      ( "outcomes",
        [
          Alcotest.test_case "missing pairs" `Quick
            test_counterexample_missing_pairs;
          Alcotest.test_case "violating hom" `Quick
            test_counterexample_violating_hom;
        ] );
    ]
