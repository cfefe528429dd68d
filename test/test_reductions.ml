(* Tests for the executable lower-bound constructions: 3-CNF/SAT
   (Theorem 35), corridor tiling (Theorem 25), and the RPQ embedding
   (Theorem 32). *)

module Cnf = Reductions.Cnf
module Sat = Reductions.Sat_reduction
module T = Reductions.Tiling
module Emb = Reductions.Rpq_embedding
module DG = Datagraph.Data_graph
module Rel = Datagraph.Relation
module RA = Rem_lang.Register_automaton
module DV = Datagraph.Data_value

let dv = DV.of_int

let ws_def (o : Definability.Witness_search.outcome) =
  match o.verdict with
  | Definability.Witness_search.Definable -> true
  | Definability.Witness_search.Not_definable _ -> false
  | Definability.Witness_search.Exhausted -> failwith "search truncated"

(* ---------- CNF ---------- *)

let test_cnf_eval () =
  let f = Cnf.make ~num_vars:2 [ (1, -2, -2) ] in
  Alcotest.(check bool) "10" true (Cnf.eval f [| true; false |]);
  Alcotest.(check bool) "01" false (Cnf.eval f [| false; true |]);
  Alcotest.(check bool) "sat" true (Cnf.satisfiable f)

let test_cnf_unsat () =
  let f = Cnf.make ~num_vars:1 [ (1, 1, 1); (-1, -1, -1) ] in
  Alcotest.(check bool) "unsat" false (Cnf.satisfiable f);
  Alcotest.(check bool) "no assignment" true (Cnf.satisfying_assignment f = None)

let test_cnf_validation () =
  Alcotest.check_raises "zero literal" (Invalid_argument "Cnf.make: zero literal")
    (fun () -> ignore (Cnf.make ~num_vars:1 [ (0, 1, 1) ]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Cnf.make: variable out of range") (fun () ->
      ignore (Cnf.make ~num_vars:1 [ (2, 1, 1) ]))

let test_cnf_random_deterministic () =
  let f1 = Cnf.random ~seed:4 ~num_vars:4 ~num_clauses:5 () in
  let f2 = Cnf.random ~seed:4 ~num_vars:4 ~num_clauses:5 () in
  Alcotest.(check string) "same" (Cnf.to_string f1) (Cnf.to_string f2);
  Alcotest.(check int) "clause count" 5 (List.length f1.Cnf.clauses)

(* ---------- Theorem 35 ---------- *)

let thm35_agree f =
  Alcotest.(check bool)
    ("thm35: " ^ Cnf.to_string f)
    (not (Cnf.satisfiable f))
    (Sat.definable f)

let test_sat_reduction_fixed () =
  thm35_agree (Cnf.make ~num_vars:1 [ (1, 1, 1) ]);
  thm35_agree (Cnf.make ~num_vars:1 [ (1, 1, 1); (-1, -1, -1) ]);
  thm35_agree (Cnf.make ~num_vars:2 [ (1, 2, 2); (-1, -2, -2) ]);
  thm35_agree
    (Cnf.make ~num_vars:2 [ (1, 2, 2); (1, -2, -2); (-1, 2, 2); (-1, -2, -2) ])

let test_sat_reduction_random () =
  for seed = 1 to 6 do
    thm35_agree (Cnf.random ~seed ~num_vars:3 ~num_clauses:4 ())
  done

let test_sat_reduction_shape () =
  let f = Cnf.make ~num_vars:3 [ (1, 2, 3); (-1, -2, -3) ] in
  let r = Sat.build f in
  Alcotest.(check int) "node count formula" (Sat.node_count f)
    (DG.size r.Sat.graph);
  Alcotest.(check int) "constant data value" 1 (DG.delta r.Sat.graph);
  (* S has m + 8m unary tuples. *)
  Alcotest.(check int) "|S|" 18 (Datagraph.Tuple_relation.cardinal r.Sat.target)

(* Theorem 35 through the engine, both halves: the reduction of F is
   decided UCRDPQ-definable iff F is unsatisfiable.  Literals may repeat
   a variable and one clause in three is a unit clause (l, l, l), so
   unsatisfiable formulas over 3 variables occur with 2–8 clauses.  A
   violating homomorphism must be one and must move a tuple out of S.
   A [Definable] certificate must be Lemma 34's canonical query, and
   the constraint-table search of [Hom_oracle] must find S preserved
   too.  Re-evaluating that query ([Outcome.check_certificate]) is left
   out: it is a conjunctive query with one variable per node, and on
   the smallest reduction graph (40 nodes) it runs for minutes. *)
let gen_cnf st =
  let lit () = (1 + Random.State.int st 3) * if Random.State.bool st then 1 else -1 in
  let clause () =
    if Random.State.int st 3 = 0 then
      let l = lit () in
      (l, l, l)
    else (lit (), lit (), lit ())
  in
  Cnf.make ~num_vars:3 (List.init (2 + Random.State.int st 7) (fun _ -> clause ()))

let thm35_engine_prop =
  QCheck.Test.make ~name:"ucrdpq decide is Definable iff F is unsatisfiable"
    ~count:100 ~long_factor:20
    (QCheck.make ~print:Cnf.to_string gen_cnf)
    (fun f ->
      Definability.Deciders.init ();
      let r = Sat.build f in
      let g = r.Sat.graph and s = r.Sat.target in
      let inst = Engine.Instance.create_exn g s in
      let unsat = not (Cnf.satisfiable f) in
      match Engine.Registry.decide ~lang:"ucrdpq" inst with
      | Error msg -> QCheck.Test.fail_report msg
      | Ok o -> (
          match o.Engine.Outcome.verdict with
          | Engine.Outcome.Definable cert ->
              (unsat || QCheck.Test.fail_report "Definable on a satisfiable formula")
              && cert
                 = Engine.Outcome.Ucrdpq
                     (Definability.Ucrdpq_definability.canonical_query g s)
              && fst (Hom_oracle.search_violating g s) = `Preserved
          | Engine.Outcome.Not_definable (Engine.Outcome.Violating_hom { hom; tuple }) ->
              ((not unsat)
              || QCheck.Test.fail_report "Not_definable on an unsatisfiable formula")
              && Definability.Hom.is_hom g hom
              && not (Datagraph.Tuple_relation.mem s (List.map (fun p -> hom.(p)) tuple))
          | _ -> QCheck.Test.fail_report "neither verdict carries its certificate"))

(* ---------- Theorem 25 ---------- *)

let stripes =
  {
    T.num_tiles = 2;
    horiz = [ (0, 1); (1, 0); (0, 0); (1, 1) ];
    vert = [ (0, 0); (1, 1) ];
    t_init = 0;
    t_final = 1;
    n = 1;
  }

let test_tiling_solver () =
  (match T.solve stripes with
  | Some tau -> Alcotest.(check bool) "legal" true (T.is_legal stripes tau)
  | None -> Alcotest.fail "stripes should be solvable");
  let unsolvable =
    { stripes with T.horiz = [ (0, 0); (1, 1) ]; vert = [ (0, 0); (1, 1) ] }
  in
  Alcotest.(check bool) "unsolvable" true (T.solve unsolvable = None)

let test_tiling_is_legal () =
  Alcotest.(check bool) "good" true (T.is_legal stripes [| [| 0; 1 |] |]);
  Alcotest.(check bool) "bad start" false (T.is_legal stripes [| [| 1; 1 |] |]);
  Alcotest.(check bool) "bad end" false (T.is_legal stripes [| [| 0; 0 |] |]);
  Alcotest.(check bool) "bad vert" false
    (T.is_legal stripes [| [| 0; 1 |]; [| 1; 1 |] |]);
  Alcotest.(check bool) "ragged" false (T.is_legal stripes [| [| 0 |] |])

let test_tiling_encoding_matches_rem () =
  let tau = Option.get (T.solve stripes) in
  let w = T.encode_tiling stripes tau in
  let e = T.tiling_rem stripes tau in
  Alcotest.(check bool) "encoding in L(rem)" true (Rem_lang.Basic_rem.matches e w);
  (* The REM accepts exactly the automorphism class: a same-shape path
     with a changed address value is rejected. *)
  let values = Datagraph.Data_path.values w in
  let labels = Datagraph.Data_path.labels w in
  values.(1) <- dv 999;
  (* first address value changes: still automorphic (it is only stored) —
     so instead break a *repeated* position: the second address's value. *)
  let w' = Datagraph.Data_path.make ~values ~labels in
  Alcotest.(check bool) "store-only change stays accepted" true
    (Rem_lang.Basic_rem.matches e w');
  let values2 = Datagraph.Data_path.values w in
  (* Position 2 is the second address (width 2, n=1); its bit is 1, i.e.
     "differs from the stored first-address value".  Making it *equal* to
     the stored value flips the bit and breaks membership.  (A different
     fresh value would still satisfy the != test.) *)
  values2.(2) <- values2.(1);
  let w2 = Datagraph.Data_path.make ~values:values2 ~labels in
  Alcotest.(check bool) "address bit flip rejected" false
    (Rem_lang.Basic_rem.matches e w2)

let test_tiling_reduction_conditions () =
  let red = T.build stripes in
  let g = red.T.graph in
  let tau = Option.get (T.solve stripes) in
  (* Condition 2: the encoding connects p2 to q2 (and nothing else). *)
  let w = T.encode_tiling stripes tau in
  Alcotest.(check (list (pair int int)))
    "encoding connects exactly (p2,q2)"
    [ (red.T.p2, red.T.q2) ]
    (DG.connects g w);
  (* Conditions 1-3 together: the legal tiling's REM evaluates to exactly
     the target relation. *)
  let rel = RA.eval_on_graph g (RA.of_basic (T.tiling_rem stripes tau)) in
  Alcotest.(check bool) "legal REM defines {(p2,q2)}" true
    (Rel.equal rel red.T.target)

let test_tiling_condition4_sampled () =
  let red = T.build stripes in
  let g = red.T.graph in
  (* Several illegal tilings: each one's REM must catch an automorphic
     copy from p1 to q1 (so it fails to define the target). *)
  let bad_tilings =
    [
      [| [| 1; 1 |] |] (* wrong initial tile *);
      [| [| 0; 0 |] |] (* wrong final tile *);
      [| [| 0; 1 |]; [| 1; 1 |] |] (* vertical incompatibility *);
    ]
  in
  List.iter
    (fun tau ->
      Alcotest.(check bool) "illegal indeed" false (T.is_legal stripes tau);
      let rel = RA.eval_on_graph g (RA.of_basic (T.tiling_rem stripes tau)) in
      Alcotest.(check bool) "caught at (p1,q1)" true
        (Rel.mem rel red.T.p1 red.T.q1))
    bad_tilings

let test_tiling_horizontal_error_caught () =
  (* An instance where horizontal compatibility can be violated. *)
  let inst = { stripes with T.horiz = [ (0, 1); (1, 0) ] } in
  let red = T.build inst in
  let bad = [| [| 0; 0 |] |] in
  (* 0,0 horizontally incompatible here; also wrong final tile — a
     doubly-bad tiling, still caught. *)
  let rel = RA.eval_on_graph red.T.graph (RA.of_basic (T.tiling_rem inst bad)) in
  Alcotest.(check bool) "caught" true (Rel.mem rel red.T.p1 red.T.q1)

let test_tiling_polynomial_size () =
  let sizes =
    List.map
      (fun n ->
        let red = T.build { stripes with T.n } in
        DG.size red.T.graph)
      [ 1; 2; 3; 4 ]
  in
  (* Polynomial (roughly cubic) growth: the ratio of consecutive sizes
     stays far below the exponential 2^n corridor width growth would
     suggest. *)
  let rec ratios = function
    | a :: (b :: _ as rest) -> (float_of_int b /. float_of_int a) :: ratios rest
    | _ -> []
  in
  List.iter
    (fun r -> Alcotest.(check bool) "sub-exponential" true (r < 4.0))
    (ratios sizes);
  Alcotest.(check bool) "monotone" true (List.sort compare sizes = sizes)

let test_tiling_validation () =
  Alcotest.check_raises "n too small" (Invalid_argument "Tiling: n must be >= 1")
    (fun () -> ignore (T.build { stripes with T.n = 0 }));
  Alcotest.check_raises "bad tile"
    (Invalid_argument "Tiling: initial/final tile out of range") (fun () ->
      ignore (T.build { stripes with T.t_init = 5 }))

(* Random tiling instances: for every solvable instance the legal
   tiling's REM must define exactly the target; for every illegal
   tiling (random corruption) the gadgets must catch it. *)
let test_tiling_random_instances () =
  let prng = ref 12345 in
  let next () =
    let s = !prng in
    let s = s lxor (s lsl 13) in
    let s = s lxor (s lsr 7) in
    let s = s lxor (s lsl 17) in
    prng := s;
    abs s
  in
  for _trial = 1 to 6 do
    let num_tiles = 2 + (next () mod 2) in
    let all_pairs =
      List.concat_map
        (fun a -> List.init num_tiles (fun b -> (a, b)))
        (List.init num_tiles Fun.id)
    in
    let subset l = List.filter (fun _ -> next () mod 3 > 0) l in
    let inst =
      {
        T.num_tiles;
        horiz = subset all_pairs;
        vert = subset all_pairs;
        t_init = next () mod num_tiles;
        t_final = next () mod num_tiles;
        n = 1;
      }
    in
    let red = T.build inst in
    (match T.solve ~max_rows:4 inst with
    | Some tau ->
        let rel =
          RA.eval_on_graph red.T.graph (RA.of_basic (T.tiling_rem inst tau))
        in
        Alcotest.(check bool) "legal tiling REM defines target" true
          (Rel.equal rel red.T.target)
    | None -> ());
    (* A random tiling; if illegal, its REM must hit (p1,q1). *)
    let rows = 1 + (next () mod 2) in
    let tau =
      Array.init rows (fun _ ->
          Array.init (T.width inst) (fun _ -> next () mod num_tiles))
    in
    if not (T.is_legal inst tau) then
      let rel =
        RA.eval_on_graph red.T.graph (RA.of_basic (T.tiling_rem inst tau))
      in
      Alcotest.(check bool) "illegal tiling caught" true
        (Rel.mem rel red.T.p1 red.T.q1)
  done

(* ---------- G_aut (Section 3 sketch) ---------- *)

let test_gaut_shape () =
  let g = Datagraph.Graph_gen.line ~values:[ dv 0; dv 1 ] ~label:"a" in
  let t = Reductions.Gaut.build g in
  (* delta = 2 so 2! = 2 copies; each copy doubles the nodes (entries). *)
  Alcotest.(check int) "copies" 2 t.Reductions.Gaut.copies;
  Alcotest.(check int) "nodes" 8 (DG.size t.Reductions.Gaut.graph);
  (* Entry nodes have exactly one outgoing edge. *)
  let entry = t.Reductions.Gaut.entry ~copy:0 0 in
  Alcotest.(check int) "entry degree" 1
    (List.length (DG.succ_all t.Reductions.Gaut.graph entry))

let test_gaut_agrees_with_direct () =
  (* The Section 3 reduction and the direct profile-automaton checker
     must give identical verdicts. *)
  List.iter
    (fun seed ->
      let g =
        Datagraph.Graph_gen.random ~seed ~n:3 ~delta:2 ~labels:[ "a" ]
          ~density:0.5 ()
      in
      let s = Datagraph.Graph_gen.random_reachable_relation ~seed g ~count:2 in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d" seed)
        (ws_def (Definability.Rem_definability.search g s))
        (Reductions.Gaut.rem_definable_via_rpq g s))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  (* And on a graph with repeated values where data genuinely matters. *)
  let g = Datagraph.Graph_gen.line ~values:[ dv 0; dv 1; dv 0 ] ~label:"a" in
  let s = Rel.of_list 3 [ (0, 2) ] in
  Alcotest.(check bool) "line with repeat"
    (ws_def (Definability.Rem_definability.search g s))
    (Reductions.Gaut.rem_definable_via_rpq g s)

(* ---------- Theorem 32 ---------- *)

let test_rpq_embedding_fixed () =
  let g = Datagraph.Graph_gen.fig1 () in
  (* On the constant-value embedding, REE-definability coincides with
     RPQ-definability of the original graph. *)
  List.iter
    (fun s ->
      let rpq, ree = Emb.agree g s in
      Alcotest.(check bool) "agree" true (rpq = ree))
    [
      Datagraph.Graph_gen.fig1_s1 g;
      Datagraph.Graph_gen.fig1_s2 g;
      Rel.identity (DG.size g);
      Rel.empty (DG.size g);
    ]

let test_rpq_embedding_random () =
  for seed = 1 to 8 do
    let g =
      Datagraph.Graph_gen.random ~seed ~n:4 ~delta:2 ~labels:[ "a"; "b" ]
        ~density:0.35 ()
    in
    let s = Datagraph.Graph_gen.random_reachable_relation ~seed g ~count:2 in
    let rpq, ree = Emb.agree g s in
    Alcotest.(check bool) (Printf.sprintf "seed %d" seed) true (rpq = ree)
  done

let () =
  Alcotest.run "reductions"
    [
      ( "cnf",
        [
          Alcotest.test_case "eval" `Quick test_cnf_eval;
          Alcotest.test_case "unsat" `Quick test_cnf_unsat;
          Alcotest.test_case "validation" `Quick test_cnf_validation;
          Alcotest.test_case "random deterministic" `Quick
            test_cnf_random_deterministic;
        ] );
      ( "theorem 35",
        [
          Alcotest.test_case "fixed formulas" `Quick test_sat_reduction_fixed;
          Alcotest.test_case "random formulas" `Slow test_sat_reduction_random;
          Alcotest.test_case "shape" `Quick test_sat_reduction_shape;
          QCheck_alcotest.to_alcotest thm35_engine_prop;
        ] );
      ( "theorem 25",
        [
          Alcotest.test_case "solver" `Quick test_tiling_solver;
          Alcotest.test_case "legality" `Quick test_tiling_is_legal;
          Alcotest.test_case "encoding vs REM" `Quick
            test_tiling_encoding_matches_rem;
          Alcotest.test_case "conditions 1-3" `Quick
            test_tiling_reduction_conditions;
          Alcotest.test_case "condition 4 sampled" `Quick
            test_tiling_condition4_sampled;
          Alcotest.test_case "horizontal error" `Quick
            test_tiling_horizontal_error_caught;
          Alcotest.test_case "polynomial size" `Quick test_tiling_polynomial_size;
          Alcotest.test_case "validation" `Quick test_tiling_validation;
          Alcotest.test_case "random instances" `Slow
            test_tiling_random_instances;
        ] );
      ( "gaut",
        [
          Alcotest.test_case "shape" `Quick test_gaut_shape;
          Alcotest.test_case "agrees with direct checker" `Slow
            test_gaut_agrees_with_direct;
        ] );
      ( "theorem 32",
        [
          Alcotest.test_case "fig1 relations" `Quick test_rpq_embedding_fixed;
          Alcotest.test_case "random graphs" `Slow test_rpq_embedding_random;
        ] );
    ]
