(* Benchmark harness.

   The paper is pure theory — it has no measurement tables or experiment
   figures (its three figures are an example graph, an algorithm sketch
   and a reduction gadget).  Per EXPERIMENTS.md, the harness therefore
   regenerates (a) every worked example as a verdict table and (b) one
   scaling series per complexity theorem, whose *shape* (what explodes in
   which parameter, who is cheaper) is the paper's claim.

   Two kinds of output:
   - plain-text tables T1..T8 and ablations A1/A2 (single-run wall-clock
     measurements, printed unconditionally);
   - Bechamel micro-benchmarks, one Test per experiment, printed last
     (pass "tables" as argv to skip them).                                 *)

open Bechamel

module Rel = Datagraph.Relation
module DG = Datagraph.Data_graph
module Gen = Datagraph.Graph_gen
module Rpq = Definability.Rpq_definability
module Remd = Definability.Rem_definability
module Reed = Definability.Ree_definability
module Ucd = Definability.Ucrdpq_definability
module Cnf = Reductions.Cnf
module Sat = Reductions.Sat_reduction
module T = Reductions.Tiling

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* The three-valued verdict of a witness search, for the tables. *)
let ws_verdict (o : Definability.Witness_search.outcome) =
  match o.verdict with
  | Definability.Witness_search.Definable -> Some true
  | Definability.Witness_search.Not_definable _ -> Some false
  | Definability.Witness_search.Exhausted -> None

let ws_def o =
  match ws_verdict o with
  | Some b -> b
  | None -> failwith "search truncated"

let rpq_def g s = ws_def (Rpq.search g s)
let rem_def g s = ws_def (Remd.search g s)
let krem_def g ~k s = ws_def (Remd.search_k g ~k s)

let ree_def g s =
  match Reed.verdict (Reed.search g s) with
  | Some b -> b
  | None -> failwith "REE closure truncated"

(* Repeat [f] often enough that the total runtime is measurable and
   report seconds per call; used for the acceptance metrics recorded in
   the BENCH_*.json series.  The reported figure is the best of three
   measurement rounds: these numbers are compared across PRs, and the
   minimum is far more stable under scheduler and cache noise than any
   single round. *)
let time_per_call f =
  (* Start from a compacted heap so timings do not depend on garbage
     left behind by whatever ran before this metric. *)
  Gc.compact ();
  ignore (f ());
  let _, t1 = wall f in
  let reps = max 1 (min 100_000 (int_of_float (0.25 /. Float.max t1 1e-7))) in
  let round () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (f ())
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps
  in
  let best = ref (round ()) in
  for _ = 2 to 3 do
    let t = round () in
    if t < !best then best := t
  done;
  (!best, reps)

let header title =
  Printf.printf "\n=== %s ===\n%!" title

(* ------------------------------------------------------------------ *)
(* T1: the Figure 1 / Example 12 verdict table.                        *)

let table1 () =
  header "T1: Figure 1 definability matrix (Examples 2, 12, 14)";
  let g = Gen.fig1 () in
  let v = DG.node_of_name g in
  let q4rel = Rel.of_list (DG.size g) [ (v "v1", v "v2") ] in
  let relations =
    [
      ("S1", Gen.fig1_s1 g); ("S2", Gen.fig1_s2 g); ("S3", Gen.fig1_s3 g);
      ("Q4(G)", q4rel);
    ]
  in
  Printf.printf "%-8s %-6s %-6s %-8s %-8s %-6s %-8s\n" "relation" "RPQ"
    "RDPQ=" "1-REM" "2-REM" "REM" "UCRDPQ";
  List.iter
    (fun (name, s) ->
      let b f = if f then "yes" else "no" in
      Printf.printf "%-8s %-6s %-6s %-8s %-8s %-6s %-8s\n%!" name
        (b (rpq_def g s))
        (b (ree_def g s))
        (b (krem_def g ~k:1 s))
        (b (krem_def g ~k:2 s))
        (b (rem_def g s))
        (b (Ucd.is_definable_binary g s)))
    relations;
  print_endline
    "expected (paper): S1 all yes; S2 only >=2 registers/REM/UCRDPQ;\n\
    \                  S3 no RPQ, no 1-REM, yes RDPQ=/2-REM/REM/UCRDPQ;\n\
    \                  Q4(G) only UCRDPQ."

(* ------------------------------------------------------------------ *)
(* T2: Theorem 22 — k-REM definability cost vs n, delta, k.            *)

let krem_instance ~seed ~n ~delta =
  let g = Gen.random ~seed ~n ~delta ~labels:[ "a" ] ~density:0.45 () in
  (g, Gen.random_reachable_relation ~seed g ~count:2)

let table2 () =
  header "T2: Theorem 22 scaling — k-RDPQmem definability, NSpace(O(n^2 d^k))";
  Printf.printf "%-4s %-6s %-4s %-10s %-10s %-10s\n" "n" "delta" "k"
    "tuples" "time(s)" "definable";
  List.iter
    (fun (n, delta, k) ->
      let g, s = krem_instance ~seed:(n + delta) ~n ~delta in
      let r, dt = wall (fun () -> Remd.search_k ~max_tuples:200_000 g ~k s) in
      Printf.printf "%-4d %-6d %-4d %-10d %-10.4f %-10s\n%!" n delta k
        r.Definability.Witness_search.tuples_explored dt
        (match ws_verdict r with
        | Some true -> "yes"
        | Some false -> "no"
        | None -> "unknown")
    )
    [
      (3, 2, 0); (3, 2, 1); (3, 2, 2);
      (4, 2, 0); (4, 2, 1); (4, 2, 2);
      (5, 2, 0); (5, 2, 1); (5, 2, 2);
      (4, 3, 1); (4, 3, 2);
      (5, 3, 1); (5, 3, 2);
      (6, 2, 1); (6, 2, 2);
    ];
  print_endline "expected shape: cost grows with each of n, delta and k;\n\
                 the k-dependence dominates (delta^k states per node)."

(* ------------------------------------------------------------------ *)
(* T3: Theorem 24 vs Theorem 32 — ExpSpace (REM) vs PSpace (REE).      *)

let table3 () =
  header "T3: REM (ExpSpace) vs REE (PSpace) checker cost on shared instances";
  Printf.printf "%-4s %-6s %-12s %-12s %-8s %-8s\n" "n" "delta" "rem-time"
    "ree-time" "rem?" "ree?";
  List.iter
    (fun (n, delta) ->
      let g, s = krem_instance ~seed:(7 * n) ~n ~delta in
      let rem, trem =
        wall (fun () -> ws_verdict (Remd.search ~max_tuples:200_000 g s))
      in
      let ree, tree =
        wall (fun () -> Reed.verdict (Reed.search ~max_size:2_000 g s))
      in
      let show = function
        | Some true -> "yes"
        | Some false -> "no"
        | None -> "n/a"
      in
      Printf.printf "%-4d %-6d %-12.4f %-12.4f %-8s %-8s\n%!" n delta trem
        tree (show rem) (show ree))
    [ (3, 2); (4, 2); (5, 2); (6, 2); (4, 3); (5, 3) ];
  print_endline
    "expected shape: REE-definable implies REM-definable (never yes/no);\n\
     the REM checker's cost explodes faster as delta grows."

(* ------------------------------------------------------------------ *)
(* T4: Lemma 28 — REE closure size and level heights vs n.             *)

let table4 () =
  header "T4: REE closure statistics (levels stabilize by n^2, Lemma 28)";
  Printf.printf "%-4s %-6s %-10s %-10s %-8s %-10s\n" "n" "delta" "closure"
    "maxheight" "n^2" "truncated";
  List.iter
    (fun (n, delta) ->
      let g, _ = krem_instance ~seed:(3 * n) ~n ~delta in
      let elements, truncated = Reed.closure ~max_size:2_000 g in
      let max_height =
        List.fold_left
          (fun acc (_, t) -> max acc (Ree_lang.Ree_term.height t))
          0 elements
      in
      Printf.printf "%-4d %-6d %-10d %-10d %-8d %-10b\n%!" n delta
        (List.length elements) max_height (n * n) truncated)
    [ (2, 2); (3, 2); (4, 2); (5, 2); (4, 3) ];
  print_endline
    "expected shape: max witness height well below the n^2 bound; the\n\
     closure (which the PSpace algorithm never materializes) can explode."

(* ------------------------------------------------------------------ *)
(* T5: Theorem 35 — SAT reduction: verdicts agree, coNP cost growth.   *)

let table5 () =
  header "T5: Theorem 35 — UCRDPQ-definability = UNSAT on Figure 3 graphs";
  Printf.printf "%-6s %-8s %-8s %-8s %-8s %-10s %-8s\n" "vars" "clauses"
    "nodes" "sat" "defin." "agree" "time(s)";
  let run f =
    let sat = Cnf.satisfiable f in
    let (def, dt) = wall (fun () -> Sat.definable f) in
    Printf.printf "%-6d %-8d %-8d %-8b %-8b %-10b %-8.3f\n%!" f.Cnf.num_vars
      (List.length f.Cnf.clauses)
      (Sat.node_count f) sat def (def = not sat) dt
  in
  run (Cnf.make ~num_vars:1 [ (1, 1, 1) ]);
  run (Cnf.make ~num_vars:1 [ (1, 1, 1); (-1, -1, -1) ]);
  run (Cnf.make ~num_vars:2 [ (1, 2, 2); (1, -2, -2); (-1, 2, 2); (-1, -2, -2) ]);
  List.iter
    (fun (seed, num_vars, num_clauses) ->
      run (Cnf.random ~seed ~num_vars ~num_clauses ()))
    [ (1, 3, 3); (2, 3, 5); (3, 4, 5); (4, 4, 7); (5, 5, 7) ];
  print_endline "expected shape: every row agrees; cost grows with formula size\n\
                 (the certificate search is the coNP part)."

(* ------------------------------------------------------------------ *)
(* T6: Theorem 25 — tiling reduction graphs grow polynomially in n.    *)

let stripes n =
  {
    T.num_tiles = 2;
    horiz = [ (0, 1); (1, 0); (0, 0); (1, 1) ];
    vert = [ (0, 0); (1, 1) ];
    t_init = 0;
    t_final = 1;
    n;
  }

let table6 () =
  header "T6: Theorem 25 — reduction graph size vs corridor width 2^n";
  Printf.printf "%-4s %-8s %-8s %-10s %-10s\n" "n" "width" "nodes" "edges"
    "build(s)";
  List.iter
    (fun n ->
      let inst = stripes n in
      let red, dt = wall (fun () -> T.build inst) in
      Printf.printf "%-4d %-8d %-8d %-10d %-10.4f\n%!" n (T.width inst)
        (DG.size red.T.graph)
        (DG.edge_count red.T.graph)
        dt)
    [ 1; 2; 3; 4; 5; 6 ];
  (* Also: tile-count dependence. *)
  Printf.printf "%-6s %-8s %-8s\n" "tiles" "nodes" "edges";
  List.iter
    (fun num_tiles ->
      let all t = List.concat_map (fun a -> List.init t (fun b -> (a, b))) (List.init t Fun.id) in
      let inst =
        {
          (stripes 2) with
          T.num_tiles;
          horiz = all num_tiles;
          vert = all num_tiles;
          t_init = 0;
          t_final = num_tiles - 1;
        }
      in
      let red = T.build inst in
      Printf.printf "%-6d %-8d %-8d\n%!" num_tiles
        (DG.size red.T.graph)
        (DG.edge_count red.T.graph))
    [ 1; 2; 3; 4 ];
  print_endline
    "expected shape: polynomial in n (and quadratic-ish in tile count)\n\
     while the encoded corridor width doubles with each n."

(* ------------------------------------------------------------------ *)
(* T7: query evaluation (the [20] substrate): REM eval cost vs k.      *)

let table7 () =
  header "T7: query evaluation — RDPQmem cost grows with register count k";
  let g = Gen.random ~seed:17 ~n:10 ~delta:4 ~labels:[ "a" ] ~density:0.4 () in
  (* e_k = @r1 a ... @rk a (a[r1=] ... a[rk=]) — a k-register query. *)
  let expr k =
    let rec binds i =
      if i > k then tests 1
      else Rem_lang.Rem.Bind ([ i - 1 ], Rem_lang.Rem.Concat (Rem_lang.Rem.Letter "a", binds (i + 1)))
    and tests i =
      if i > k then Rem_lang.Rem.Eps
      else
        Rem_lang.Rem.Concat
          ( Rem_lang.Rem.Test (Rem_lang.Rem.Letter "a", Rem_lang.Condition.Eq (i - 1)),
            tests (i + 1) )
    in
    binds 1
  in
  Printf.printf "%-4s %-12s %-10s\n" "k" "time(s)" "answer";
  List.iter
    (fun k ->
      let e = expr k in
      let r, dt =
        wall (fun () ->
            Rem_lang.Register_automaton.eval_on_graph g
              (Rem_lang.Register_automaton.of_rem e))
      in
      Printf.printf "%-4d %-12.5f %-10d\n%!" k dt (Rel.cardinal r))
    [ 1; 2; 3; 4; 5 ];
  print_endline "expected shape: evaluation cost grows exponentially in k\n\
                 ((delta+1)^k register assignments per node), matching [20]."

(* ------------------------------------------------------------------ *)
(* T8: Theorem 32 — the RPQ -> RDPQ= embedding agrees.                 *)

let table8 () =
  header "T8: Theorem 32 embedding — RPQ-definability = RDPQ=-definability";
  Printf.printf "%-6s %-6s %-8s %-8s %-8s\n" "seed" "n" "rpq" "ree" "agree";
  List.iter
    (fun seed ->
      let g =
        Gen.random ~seed ~n:4 ~delta:2 ~labels:[ "a"; "b" ] ~density:0.35 ()
      in
      let s =
        if seed mod 2 = 0 then
          (* Definable by construction: the answer of a fixed RPQ. *)
          Regexp.Nfa.eval_on_graph g
            (Regexp.Nfa.of_regex
               Regexp.Regex.(Concat (Letter "a", Star (Letter "b"))))
        else Gen.random_reachable_relation ~seed g ~count:2
      in
      let rpq, ree = Reductions.Rpq_embedding.agree g s in
      Printf.printf "%-6d %-6d %-8b %-8b %-8b\n%!" seed (DG.size g) rpq ree
        (rpq = ree))
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
  print_endline "expected shape: every row agrees (the reduction is exact)."

(* ------------------------------------------------------------------ *)
(* T9: definability census — the hierarchy, quantified.                *)

let census_graphs () =
  let dv = Datagraph.Data_value.of_int in
  [
    ("line 0-1-0", Gen.line ~values:[ dv 0; dv 1; dv 0 ] ~label:"a");
    ("cycle 0-0-0", Gen.cycle ~values:[ dv 0; dv 0; dv 0 ] ~label:"a");
    ("cycle 0-1-0", Gen.cycle ~values:[ dv 0; dv 1; dv 0 ] ~label:"a");
    ("fork", Datagraph.Data_graph.build
               ~values:[| dv 0; dv 1; dv 1 |]
               ~edges:[ (0, "a", 1); (0, "a", 2) ]);
  ]

let table9 () =
  header "T9: definability census over all 2^(n^2) binary relations";
  Printf.printf "%-16s %-6s %-6s %-6s %-8s %-8s\n" "graph" "RPQ" "RDPQ="
    "REM" "UCRDPQ" "total";
  List.iter
    (fun (name, g) ->
      let c = Definability.Census.binary ~max_k:0 g in
      Printf.printf "%-16s %-6d %-6d %-6d %-8d %-8d\n%!" name
        c.Definability.Census.rpq c.Definability.Census.ree
        c.Definability.Census.rem c.Definability.Census.ucrdpq
        c.Definability.Census.relations)
    (census_graphs ());
  print_endline "expected shape: counts monotone along the hierarchy;\n\
                 symmetric graphs cap even UCRDPQ below the total."

(* ------------------------------------------------------------------ *)
(* Ablations.                                                          *)

let ablation_condition_alphabet () =
  header "A1 ablation: single complete types vs all condition disjunctions";
  Printf.printf "%-4s %-4s %-12s %-12s %-8s\n" "n" "k" "single(s)" "alldisj(s)"
    "agree";
  List.iter
    (fun (n, k) ->
      let g, s = krem_instance ~seed:(11 * n) ~n ~delta:2 in
      let r1, t1 = wall (fun () -> Remd.search_k ~max_tuples:200_000 g ~k s) in
      let r2, t2 =
        wall (fun () ->
            Remd.search_k ~max_tuples:200_000 ~all_condition_sets:true g ~k s)
      in
      Printf.printf "%-4d %-4d %-12.4f %-12.4f %-8b\n%!" n k t1 t2
        (ws_verdict r1 = ws_verdict r2))
    [ (3, 1); (4, 1); (5, 1); (3, 2); (4, 2) ];
  print_endline "expected shape: identical verdicts; the disjunctive alphabet\n\
                 costs strictly more (more blocks per BFS step)."

let ablation_profile_vs_full () =
  header "A2 ablation: profile automaton vs full delta-register assignment graph";
  Printf.printf "%-4s %-6s %-12s %-12s %-8s\n" "n" "delta" "profile(s)"
    "full(s)" "agree";
  List.iter
    (fun (n, delta) ->
      let g, s = krem_instance ~seed:(13 * n) ~n ~delta in
      let r1, t1 = wall (fun () -> Remd.search ~max_tuples:200_000 g s) in
      let r2, t2 =
        wall (fun () -> Remd.search_delta_registers ~max_tuples:200_000 g s)
      in
      Printf.printf "%-4d %-6d %-12.4f %-12.4f %-8b\n%!" n delta t1 t2
        (ws_verdict r1 = ws_verdict r2))
    [ (3, 2); (4, 2); (5, 2); (3, 3) ];
  print_endline "expected shape: identical verdicts (Lemma 23); the profile\n\
                 search is cheaper (ordered stores vs arbitrary assignments)."

let ablation_gaut () =
  header "A3 ablation: direct REM checker vs the Section 3 G_aut reduction";
  Printf.printf "%-6s %-8s %-12s %-12s %-8s\n" "seed" "G_aut-n" "direct(s)"
    "via-rpq(s)" "agree";
  List.iter
    (fun seed ->
      let g =
        Gen.random ~seed ~n:3 ~delta:2 ~labels:[ "a" ] ~density:0.5 ()
      in
      let s = Gen.random_reachable_relation ~seed g ~count:2 in
      let d, t1 = wall (fun () -> rem_def g s) in
      let v, t2 = wall (fun () -> Reductions.Gaut.rem_definable_via_rpq g s) in
      let aut = Reductions.Gaut.build g in
      Printf.printf "%-6d %-8d %-12.4f %-12.4f %-8b\n%!" seed
        (DG.size aut.Reductions.Gaut.graph)
        t1 t2 (d = v))
    [ 1; 2; 3; 4; 5 ];
  print_endline "expected shape: identical verdicts; the reduction pays the\n\
                 delta! blow-up the paper's Section 3 anticipates."

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test per experiment.                 *)

let bechamel_tests () =
  let g = Gen.fig1 () in
  let s2 = Gen.fig1_s2 g in
  let s3 = Gen.fig1_s3 g in
  let g4, s4 = krem_instance ~seed:21 ~n:4 ~delta:2 in
  let f = Cnf.make ~num_vars:2 [ (1, 2, 2); (-1, -2, -2) ] in
  let red5 = Sat.build f in
  let inst6 = stripes 2 in
  let e7 =
    Rem_lang.Rem.Bind
      ( [ 0 ],
        Rem_lang.Rem.Concat
          ( Rem_lang.Rem.Letter "a",
            Rem_lang.Rem.Test (Rem_lang.Rem.Letter "a", Rem_lang.Condition.Eq 0) ) )
  in
  Test.make_grouped ~name:"definability"
    [
      Test.make ~name:"T1/fig1-rpq-s1" (Staged.stage (fun () ->
          rpq_def g (Gen.fig1_s1 g)));
      Test.make ~name:"T2/krem-k1-n4" (Staged.stage (fun () ->
          krem_def g4 ~k:1 s4));
      Test.make ~name:"T2/krem-k2-fig1-s2" (Staged.stage (fun () ->
          krem_def g ~k:2 s2));
      Test.make ~name:"T3/rem-profile-fig1-s2" (Staged.stage (fun () ->
          rem_def g s2));
      Test.make ~name:"T3+T4/ree-fig1-s3" (Staged.stage (fun () ->
          ree_def g s3));
      Test.make ~name:"T5/ucrdpq-sat-2var" (Staged.stage (fun () ->
          Ucd.is_definable red5.Sat.graph red5.Sat.target));
      Test.make ~name:"T6/tiling-build-n2" (Staged.stage (fun () ->
          T.build inst6));
      Test.make ~name:"T7/eval-rem-k1" (Staged.stage (fun () ->
          Rem_lang.Register_automaton.eval_on_graph g4
            (Rem_lang.Register_automaton.of_rem e7)));
      Test.make ~name:"T8/embedding-agree" (Staged.stage (fun () ->
          Reductions.Rpq_embedding.agree g4 s4));
      Test.make ~name:"T9/census-cycle3"
        (Staged.stage (fun () ->
             Definability.Census.binary ~max_k:0
               (Gen.cycle
                  ~values:
                    [
                      Datagraph.Data_value.of_int 0;
                      Datagraph.Data_value.of_int 0;
                      Datagraph.Data_value.of_int 0;
                    ]
                  ~label:"a")));
    ]

(* Returns (name, estimated ns/run) rows for the JSON record. *)
let run_bechamel () =
  header "Bechamel micro-benchmarks (median ns/run via OLS)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg instances (bechamel_tests ()) in
  let results = Analyze.all ols (Toolkit.Instance.monotonic_clock :> Measure.witness) raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  Printf.printf "%-40s %-16s\n" "benchmark" "time/run";
  List.filter_map
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] ->
          let pretty =
            if est > 1e9 then Printf.sprintf "%.3f s" (est /. 1e9)
            else if est > 1e6 then Printf.sprintf "%.3f ms" (est /. 1e6)
            else if est > 1e3 then Printf.sprintf "%.3f us" (est /. 1e3)
            else Printf.sprintf "%.0f ns" est
          in
          Printf.printf "%-40s %-16s\n%!" name pretty;
          Some (name, est)
      | _ ->
          Printf.printf "%-40s (no estimate)\n%!" name;
          None)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* JSON benchmark record (--json): per-table wall times, bechamel
   estimates, and the acceptance metrics tracked across PRs (Hom.count
   on the T9 census graphs, k=2 REM definability on the Fig. 1 / S2
   instance).  With --baseline FILE, the acceptance numbers of an
   earlier record are embedded and per-metric speedups computed.        *)

(* One named thunk per acceptance row.  The same thunks serve two
   passes: the timing pass (telemetry disabled, the numbers tracked
   across PRs) and one instrumented run per row for the per-phase time
   and counter breakdown recorded alongside them. *)
let acceptance_cases () =
  let g = Gen.fig1 () in
  let s2 = Gen.fig1_s2 g in
  let homs =
    List.map
      (fun (name, cg) ->
        let id =
          "hom-count-" ^ String.map (fun c -> if c = ' ' then '-' else c) name
        in
        (id, fun () -> ignore (Definability.Hom.count cg)))
      (census_graphs ())
  in
  (* End-to-end dispatch through the engine (instance validation, budget
     bookkeeping, certificate synthesis included), one row per decider.
     A fresh fuel budget per call keeps the measurement honest about the
     per-dispatch budget overhead. *)
  let engine_rows =
    Definability.Deciders.init ();
    let inst = Engine.Instance.of_binary g s2 in
    List.map
      (fun lang ->
        ( "engine-" ^ lang ^ "-fig1-s2",
          fun () ->
            let budget = Engine.Budget.create ~fuel:200_000 () in
            match
              Engine.Registry.decide ~budget
                ~params:{ Engine.Registry.k = 2 } ~lang inst
            with
            | Ok _ -> ()
            | Error msg -> failwith msg ))
      [ "rpq"; "krem"; "rem"; "ree"; "ucrdpq" ]
  in
  (* Service rows: the content-addressed cache in isolation (hash cost,
     cold decide, warm hit — the warm/cold ratio is the acceptance
     criterion for the verdict cache) and the full socket round-trip
     against an in-process server.  The server thread and its client
     connection start lazily on first use and live until process exit;
     the warm rows fail loudly if the cache ever answers a miss, so a
     keying regression cannot silently devalue the measurement into a
     cold one. *)
  let service_rows =
    let s2t = Datagraph.Tuple_relation.of_binary s2 in
    let warm = Service.Cache.create () in
    let expect = function Ok _ -> () | Error msg -> failwith msg in
    expect (Service.Cache.decide warm ~lang:"ree" g s2t);
    expect (Service.Cache.decide warm ~lang:"rem" g s2t);
    let warm_hit ~lang s () =
      match Service.Cache.decide warm ~lang g s with
      | Ok (_, `Hit) -> ()
      | Ok (_, `Miss) -> failwith "expected a warm cache hit"
      | Error msg -> failwith msg
    in
    let conn =
      lazy
        (let path = Filename.temp_file "defsvc-bench" ".sock" in
         let srv = Service.Server.create (Service.Wire.Unix_sock path) in
         ignore (Thread.create Service.Server.run srv);
         Service.Client.connect (Service.Wire.Unix_sock path))
    in
    let exchange line () =
      match Service.Client.request_raw (Lazy.force conn) line with
      | Ok _ -> ()
      | Error msg -> failwith msg
    in
    let decide_line =
      Service.Wire.request_to_string
        (Service.Wire.Decide
           {
             lang = "rem";
             k = None;
             fuel = None;
             timeout_s = None;
             instance = Datagraph.Graph_io.instance_to_string g s2t;
           })
    in
    [
      ( "service-hash-fig1-s2",
        fun () ->
          ignore (Service.Content_hash.instance_key ~lang:"rem" ~k:1 g s2t) );
      ( "service-decide-cold-ree-s2",
        fun () ->
          expect
            (Service.Cache.decide (Service.Cache.create ()) ~lang:"ree" g s2t)
      );
      ("service-decide-warm-ree-s2", warm_hit ~lang:"ree" s2t);
      ("service-decide-warm-rem-s2", warm_hit ~lang:"rem" s2t);
      ( "service-socket-ping",
        exchange (Service.Wire.request_to_string Service.Wire.Ping) );
      ("service-socket-decide-warm-rem-s2", exchange decide_line);
    ]
  in
  homs
  @ [ ("krem-k2-fig1-s2", fun () -> ignore (krem_def g ~k:2 s2)) ]
  @ engine_rows @ service_rows

(* ------------------------------------------------------------------ *)
(* Pool-size scaling curve, the bench's one pool-size family: the one
   path whose work depends on the pool size — batched dispatch; every
   kernel searches sequentially — measured at pool sizes 1/2/4/8 with
   per-row round statistics (min/median/max over [scaling_rounds]
   rounds) — the shape of this curve is what a change to the pool is
   judged by, and a single best-of number cannot show whether d4 beat
   d1 by scaling or by noise.  On a single-core host the whole
   family is skipped (explicit nulls, not coordination overhead posing
   as data); [host_domains] rides along in every row so a reader never
   has to guess which kind of host produced it.                         *)

type scaling_row = {
  p_id : string;
  p_rounds : int;
  p_stats : (float * float * float) option;  (* min/median/max secs *)
  p_speedup_vs_d1 : float option;  (* of medians; None when skipped *)
  p_note : string option;
}

let scaling_rounds = 5
let scaling_sizes = [ 1; 2; 4; 8 ]

let par_scaling_kernels () =
  let batch_insts =
    List.map
      (fun seed ->
        let bg, bs = krem_instance ~seed ~n:4 ~delta:2 in
        Engine.Instance.of_binary bg bs)
      [ 31; 32; 33; 34; 35; 36; 37; 38; 39; 40; 41; 42 ]
  in
  [
    ( "batch",
      fun () ->
        List.iter
          (function Ok _ -> () | Error msg -> failwith msg)
          (Engine.Registry.decide_batch ~lang:"rem" batch_insts) );
  ]

(* Per-round seconds per call, [scaling_rounds] rounds sorted so the
   caller can read off min/median/max.  Reps per round are sized once
   from a warm-up call so every round runs the same work. *)
let scaling_round_stats f =
  Gc.compact ();
  ignore (f ());
  let _, t1 = wall f in
  let reps = max 1 (min 10_000 (int_of_float (0.1 /. Float.max t1 1e-7))) in
  let round () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (f ())
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps
  in
  let xs = Array.init scaling_rounds (fun _ -> round ()) in
  Array.sort compare xs;
  (xs.(0), xs.(scaling_rounds / 2), xs.(scaling_rounds - 1))

let par_scaling_rows () =
  if Domain.recommended_domain_count () = 1 then
    List.concat_map
      (fun (kernel, _) ->
        List.map
          (fun d ->
            {
              p_id = Printf.sprintf "par-scaling-%s-d%d" kernel d;
              p_rounds = 0;
              p_stats = None;
              p_speedup_vs_d1 = None;
              p_note = Some "single-core host";
            })
          scaling_sizes)
      (par_scaling_kernels ())
  else begin
    let restore = Par.Pool.size () in
    let rows =
      List.concat_map
        (fun (kernel, f) ->
          let d1_median = ref nan in
          List.map
            (fun d ->
              Par.Pool.set_size d;
              let mn, md, mx = scaling_round_stats f in
              if d = 1 then d1_median := md;
              {
                p_id = Printf.sprintf "par-scaling-%s-d%d" kernel d;
                p_rounds = scaling_rounds;
                p_stats = Some (mn, md, mx);
                p_speedup_vs_d1 =
                  (if Float.is_nan !d1_median || md <= 0. then None
                   else Some (!d1_median /. md));
              p_note = None;
              })
            scaling_sizes)
        (par_scaling_kernels ())
    in
    Par.Pool.set_size restore;
    rows
  end

let acceptance_metrics cases =
  List.map (fun (id, f) -> (id, time_per_call f)) cases

(* One instrumented run per row: per-phase call counts and wall time
   from the aggregator sink, plus the full counter catalogue.  Runs
   after the timing pass so the timings are taken with telemetry
   disabled (the acceptance criterion) while the breakdown sees the
   warm caches the timing pass left behind. *)
let phase_breakdowns cases =
  List.map
    (fun (id, f) ->
      let agg = Obs.Sink.Agg.create () in
      Obs.enable [ Obs.Sink.Agg.sink agg ];
      f ();
      Obs.disable ();
      (id, Obs.Sink.Agg.phases agg, Obs.Counter.all ()))
    cases

(* ------------------------------------------------------------------ *)
(* Delta rows: the certificate-repair fast path on edit streams.

   Each family is a fixed instance plus a deterministic edit trace,
   measured two ways over the whole stream: through
   [Engine.Delta.decide_delta] (repair first, budgeted fallback on a
   miss) and cold ([apply_edit] followed by a full [Registry.decide]
   per step).  The per-family record keeps the repair hit rate next to
   the two per-edit times — the acceptance criterion is the ratio, and
   a family whose hit rate silently collapsed would otherwise still
   look fast on the misses' fallback decide.

   The churn families keep the target relation definable by
   construction and edit only a label the certificate cannot mention
   (the graphs are built over the single label "a"; the churn inserts
   and removes "b"-edges), so repair is expected on every step.  The
   retuple family exercises the other repair shape: a [ucrdpq]
   violating homomorphism surviving a relation toggle that keeps the
   witness tuple in and its image out (Lemma 34 is exact, so the
   repaired refutation is sound).                                      *)

type delta_row = {
  d_id : string;
  d_edits : int;
  d_hits : int;
  d_misses : int;
  d_repair_per_edit : float;
  d_cold_per_edit : float;
}

let delta_families () =
  Definability.Deciders.init ();
  (* Alternate insert/remove of [label]-edges over the pair list; every
     pair is inserted before it is removed, so the trace stays valid. *)
  let churn pairs label steps =
    List.init steps (fun i ->
        let u, v = List.nth pairs (i / 2 mod List.length pairs) in
        if i mod 2 = 0 then Engine.Delta.Add_edge (u, label, v)
        else Engine.Delta.Remove_edge (u, label, v))
  in
  (* The three churn families share the Figure 1 graph: its verdicts are
     the paper's worked example, its searches are expensive enough to be
     worth skipping (the certificate check is orders cheaper), and each
     target is definable in its family's language per Table 1 — S2 for
     REM and 2-REM, S3 for RDPQ= — so there is a certificate to repair.
     Every certificate speaks only the original alphabet {a}, which the
     "b"-churn cannot invalidate.  The cold decide pays the alphabet
     growth the edits cause (one more letter in every profile/closure
     step); that asymmetry is precisely what the fast path sells. *)
  let g = Gen.fig1 () in
  let pairs =
    let v = DG.node_of_name g in
    [ (v "v1", v "v3"); (v "v2", v "v4"); (v "z1", v "z2") ]
  in
  let fig1 =
    let inst = Engine.Instance.of_binary g (Gen.fig1_s2 g) in
    ("delta-fig1-rem-bchurn", "rem", 1, inst, churn pairs "b" 24)
  in
  let ree =
    let inst = Engine.Instance.of_binary g (Gen.fig1_s3 g) in
    ("delta-fig1-ree-bchurn", "ree", 1, inst, churn pairs "b" 24)
  in
  let krem =
    let inst = Engine.Instance.of_binary g (Gen.fig1_s2 g) in
    ("delta-fig1-krem-bchurn", "krem", 2, inst, churn pairs "b" 24)
  in
  let ucr =
    (* Satisfiable by construction (every clause contains literal 1), so
       the Theorem 35 instance is not definable and the refutation is a
       violating homomorphism.  Six variables keep the violating-hom
       search (what the cold path pays per step) well above the single
       homomorphism re-check the repair performs. *)
    let f =
      Cnf.make ~num_vars:6
        [
          (1, 2, 3); (1, -2, -3); (1, 4, 5); (1, -4, -5);
          (1, 5, 6); (1, -5, -6); (1, 2, -6);
        ]
    in
    let red = Sat.build f in
    let inst = Engine.Instance.create_exn red.Sat.graph red.Sat.target in
    let prev =
      match
        Engine.Registry.decide ~params:{ Engine.Registry.k = 1 }
          ~lang:"ucrdpq" inst
      with
      | Ok o -> o
      | Error msg -> failwith ("delta bench: " ^ msg)
    in
    match prev.Engine.Outcome.verdict with
    | Engine.Outcome.Not_definable (Engine.Outcome.Violating_hom { hom; tuple })
      ->
        let base = Datagraph.Tuple_relation.to_list red.Sat.target in
        let image = List.map (fun p -> hom.(p)) tuple in
        let arity = Datagraph.Tuple_relation.arity red.Sat.target in
        (* An extra tuple whose presence keeps the witness valid — the
           violating tuple stays in the relation, its image stays out —
           so toggling it in and out repairs on every step. *)
        let x =
          let n = DG.size red.Sat.graph in
          let rec find i =
            if i >= n then failwith "delta bench: no free node to retuple"
            else
              let cand = List.init arity (fun _ -> i) in
              if List.mem cand base || cand = image then find (i + 1) else cand
          in
          find 0
        in
        let edits =
          List.init 24 (fun i ->
              Engine.Delta.Set_relation
                (if i mod 2 = 0 then base @ [ x ] else base))
        in
        ("delta-sat6-ucrdpq-retuple", "ucrdpq", 1, inst, edits)
    | _ -> failwith "delta bench: expected a violating-hom refutation"
  in
  [ fig1; ree; krem; ucr ]

let delta_rows () =
  List.map
    (fun (id, lang, k, inst0, edits) ->
      let params = { Engine.Registry.k } in
      let decide inst =
        match Engine.Registry.decide ~params ~lang inst with
        | Ok o -> o
        | Error msg -> failwith (id ^ ": " ^ msg)
      in
      let prev0 = decide inst0 in
      let hits = ref 0 and misses = ref 0 in
      let counting = ref true in
      let repair_replay () =
        let prev = ref prev0 and cur = ref inst0 in
        List.iter
          (fun e ->
            match
              Engine.Delta.decide_delta ~params ~lang ~prev:!prev !cur e
            with
            | Ok { Engine.Delta.inst; outcome; repaired } ->
                if !counting then incr (if repaired then hits else misses);
                prev := outcome;
                cur := inst
            | Error msg -> failwith (id ^ ": " ^ msg))
          edits
      in
      (* One counted replay up front (the hit rate is replay-invariant:
         the trace and start state are fixed), then untimed counters off
         for the measurement rounds. *)
      repair_replay ();
      counting := false;
      let cold_replay () =
        let cur = ref inst0 in
        List.iter
          (fun e ->
            match Engine.Delta.apply_edit !cur e with
            | Ok inst ->
                cur := inst;
                ignore (decide inst)
            | Error msg -> failwith (id ^ ": " ^ msg))
          edits
      in
      let n_edits = List.length edits in
      let repair_secs, _ = time_per_call repair_replay in
      let cold_secs, _ = time_per_call cold_replay in
      {
        d_id = id;
        d_edits = n_edits;
        d_hits = !hits;
        d_misses = !misses;
        d_repair_per_edit = repair_secs /. float_of_int n_edits;
        d_cold_per_edit = cold_secs /. float_of_int n_edits;
      })
    (delta_families ())

(* ------------------------------------------------------------------ *)
(* Trace replay: a Zipf-skewed stream of decide requests over a pool of
   Graph_gen instances, replayed through a two-shard router in front of
   durable stores — the serving path measured end to end, hot keys and
   all.  The trace is deterministic (fixed pool seeds, fixed PRNG), so
   hit rate is a property of the configuration, not of the run.

   The full budget is 10^6 requests; TRACE_REQUESTS cuts it in CI,
   and a cut budget records null latency metrics with a "skipped" note
   (the PR 6 convention) — structural facts (fsync policy, store sizes
   around compaction) are kept either way.                              *)

type trace_result = {
  t_requests : int;
  t_reduced : bool;
  t_pool : int;
  t_zipf_s : float;
  t_fsync : string;
  t_hit_rate : float;
  t_p50_us : float;
  t_p99_us : float;
  t_server_p50_us : float;  (** op.decide histogram via the metrics op *)
  t_server_p99_us : float;
  t_store_bytes_before : int;
  t_store_bytes_after : int;
}

let trace_default_requests = 1_000_000

let rm_rf_dir dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let trace_replay () =
  let requests =
    match Sys.getenv_opt "TRACE_REQUESTS" with
    | Some v -> (
        match int_of_string_opt v with
        | Some n when n > 0 -> n
        | _ -> trace_default_requests)
    | None -> trace_default_requests
  in
  let pool_size = 256 and zipf_s = 1.1 in
  let fsync = Store.Log.Every 64 in
  (* One pre-rendered request line per pool instance: parsing and
     rendering stay out of the timed loop. *)
  let lines =
    Array.init pool_size (fun seed ->
        let g =
          Gen.random ~seed ~n:4 ~delta:2 ~labels:[ "a" ] ~density:0.4 ()
        in
        let s =
          Datagraph.Tuple_relation.of_binary
            (Gen.random_reachable_relation ~seed g ~count:2)
        in
        Service.Wire.request_to_string
          (Service.Wire.Decide
             {
               lang = "rem";
               k = None;
               fuel = None;
               timeout_s = None;
               instance = Datagraph.Graph_io.instance_to_string g s;
             }))
  in
  (* Zipf CDF over ranks 1..pool_size; rank r gets weight 1/r^s. *)
  let cdf =
    let w =
      Array.init pool_size (fun i ->
          1.0 /. Float.pow (float_of_int (i + 1)) zipf_s)
    in
    let total = Array.fold_left ( +. ) 0.0 w in
    let acc = ref 0.0 in
    Array.map
      (fun x ->
        acc := !acc +. (x /. total);
        !acc)
      w
  in
  let sample =
    (* Deterministic xorshift: the same trace on every host. *)
    let state = ref 0x13579BDF2468ACE in
    fun () ->
      state := !state lxor (!state lsl 13);
      state := !state lxor (!state lsr 7);
      state := !state lxor (!state lsl 17);
      let u =
        float_of_int ((!state lsr 11) land 0xFFFFFFFFFFF)
        /. float_of_int (1 lsl 44)
      in
      let rec bs lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if cdf.(mid) < u then bs (mid + 1) hi else bs lo mid
      in
      bs 0 (pool_size - 1)
  in
  (* Two shards over fresh durable stores, one router in front. *)
  let mk_shard i =
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "defbench-shard%d-%d" i (Unix.getpid ()))
    in
    rm_rf_dir dir;
    let path = Filename.temp_file "defbench-shard" ".sock" in
    let config =
      {
        Service.Server.default_config with
        Service.Server.store_dir = Some dir;
        fsync;
        shard = Some (i, 2);
      }
    in
    let srv = Service.Server.create ~config (Service.Wire.Unix_sock path) in
    (srv, Thread.create Service.Server.run srv)
  in
  let s0, th0 = mk_shard 0 and s1, th1 = mk_shard 1 in
  let rpath = Filename.temp_file "defbench-route" ".sock" in
  let router =
    Service.Router.create
      ~shards:
        [
          ("shard0", Service.Server.address s0);
          ("shard1", Service.Server.address s1);
        ]
      (Service.Wire.Unix_sock rpath)
  in
  let rth = Thread.create Service.Router.run router in
  let conn =
    Service.Client.connect ~retries:50 ~backoff_s:0.02
      (Service.Wire.Unix_sock rpath)
  in
  (* The span plane stays on for the whole replay, so the serving path
     is timed as production runs it (plane on, spans to a null sink).
     Enabling also zeroes the histograms, which scopes the op.decide
     percentiles below to this replay. *)
  Obs.enable [ Obs.Sink.null ];
  let lat = Array.make requests 0.0 in
  for i = 0 to requests - 1 do
    let line = lines.(sample ()) in
    let t0 = Unix.gettimeofday () in
    (match Service.Client.request_raw conn line with
    | Ok _ -> ()
    | Error msg -> failwith ("trace replay: " ^ msg));
    lat.(i) <- Unix.gettimeofday () -. t0
  done;
  (* Scrape the router-aggregated histograms over the wire — the same
     path an operator's Prometheus scrape takes. *)
  let server_pct =
    match
      Service.Client.request_raw conn
        (Service.Wire.request_to_string Service.Wire.Metrics)
    with
    | Error msg -> failwith ("trace replay metrics: " ^ msg)
    | Ok reply -> (
        match
          Result.to_option (Service.Json.parse reply)
          |> Fun.flip Option.bind (Service.Json.member "data")
          |> Fun.flip Option.bind (fun d ->
                 Result.to_option (Service.Metrics.of_json d))
        with
        | None -> failwith "trace replay metrics: unparsable snapshot"
        | Some snap ->
            fun p ->
              Option.value ~default:0.
                (Service.Metrics.percentile_us snap ~histogram:"op.decide" p))
  in
  let server_p50 = server_pct 50. and server_p99 = server_pct 99. in
  Obs.disable ();
  let shard_stat name =
    let get srv =
      Option.value ~default:0
        (List.assoc_opt name (Service.Server.stats srv))
    in
    get s0 + get s1
  in
  let hits = shard_stat "cache_verdict_hits"
  and misses = shard_stat "cache_verdict_misses" in
  let store_bytes () =
    shard_stat "cache_store_log_bytes"
    + shard_stat "cache_store_snapshot_bytes"
  in
  let before = store_bytes () in
  (match
     Service.Client.request_raw conn
       (Service.Wire.request_to_string Service.Wire.Compact)
   with
  | Ok _ -> ()
  | Error msg -> failwith ("trace replay compact: " ^ msg));
  let after = store_bytes () in
  Service.Client.close conn;
  Service.Router.shutdown router;
  Service.Server.shutdown s0;
  Service.Server.shutdown s1;
  Thread.join rth;
  Thread.join th0;
  Thread.join th1;
  Array.sort compare lat;
  let pct p =
    lat.(min (requests - 1) (int_of_float (p *. float_of_int requests)))
    *. 1e6
  in
  {
    t_requests = requests;
    t_reduced = requests < trace_default_requests;
    t_pool = pool_size;
    t_zipf_s = zipf_s;
    t_fsync = Store.Log.fsync_policy_to_string fsync;
    t_hit_rate = float_of_int hits /. float_of_int (max 1 (hits + misses));
    t_p50_us = pct 0.50;
    t_p99_us = pct 0.99;
    t_server_p50_us = server_p50;
    t_server_p99_us = server_p99;
    t_store_bytes_before = before;
    t_store_bytes_after = after;
  }

(* ------------------------------------------------------------------ *)
(* Adversarial load rows: the seeded workload generator driven through
   the 2-shard router — closed loop, open loop, and closed loop again
   through a zero-fault chaos proxy (the proxy's pure relay overhead).
   Latency numbers come from the runner's own [load.op.decide]
   histogram; a row whose decide count is zero records explicit nulls
   (the honest-null convention), never a made-up number.               *)

type load_row = {
  l_id : string;
  l_requests : int;  (* wire requests actually sent *)
  l_wall_s : float;
  l_rps : float;
  l_decide_p50_us : int option;
  l_decide_p99_us : int option;
  l_errors : (string * int) list;
}

let load_default_requests = 2_000

let load_rows () =
  let requests =
    match Sys.getenv_opt "LOAD_REQUESTS" with
    | Some v -> (
        match int_of_string_opt v with
        | Some n when n > 0 -> n
        | _ -> load_default_requests)
    | None -> load_default_requests
  in
  (* In-memory shards: these rows measure the serving and transport
     path, not fsync latency (the trace replay covers durable stores). *)
  let mk_shard i =
    let path = Filename.temp_file "defload-shard" ".sock" in
    let config =
      { Service.Server.default_config with Service.Server.shard = Some (i, 2) }
    in
    let srv = Service.Server.create ~config (Service.Wire.Unix_sock path) in
    (srv, Thread.create Service.Server.run srv)
  in
  let s0, th0 = mk_shard 0 and s1, th1 = mk_shard 1 in
  let rpath = Filename.temp_file "defload-route" ".sock" in
  let router =
    Service.Router.create
      ~shards:
        [
          ("shard0", Service.Server.address s0);
          ("shard1", Service.Server.address s1);
        ]
      (Service.Wire.Unix_sock rpath)
  in
  let rth = Thread.create Service.Router.run router in
  let profile =
    {
      Load.Workload.default_profile with
      Load.Workload.requests;
      (* random + fig1 only: millisecond decides, so the rows measure
         the serving path rather than solver time. *)
      families = [ ("random", 6); ("fig1", 2) ];
      fuel = 1_000;
      deadline_s = Some 10.;
    }
  in
  let run_one l_id mode addr =
    let profile = { profile with Load.Workload.mode } in
    match Load.Workload.build ~seed:42 profile with
    | Error e -> failwith ("load rows: " ^ e)
    | Ok wl -> (
        match Load.Runner.run ~seed:42 ~addr wl with
        | Error e -> failwith ("load rows: " ^ e)
        | Ok r ->
            let p50, p99 =
              match List.assoc_opt "decide" r.Load.Runner.latency_us with
              | Some (count, p50, p99, _) when count > 0 ->
                  (Some p50, Some p99)
              | _ -> (None, None)
            in
            {
              l_id;
              l_requests = r.Load.Runner.requests;
              l_wall_s = r.Load.Runner.wall_s;
              l_rps =
                float_of_int r.Load.Runner.requests
                /. Float.max 1e-9 r.Load.Runner.wall_s;
              l_decide_p50_us = p50;
              l_decide_p99_us = p99;
              l_errors = r.Load.Runner.errors;
            })
  in
  let router_addr = Service.Wire.Unix_sock rpath in
  let closed = run_one "load-closed-router" (Load.Workload.Closed 4) router_addr in
  let open_ =
    run_one "load-open-router"
      (Load.Workload.Open { rate = 500.; max_outstanding = 8 })
      router_addr
  in
  (* The same closed-loop workload through a transparent (zero-fault)
     proxy: the delta against [load-closed-router] is the proxy's own
     relay cost, the overhead every chaos run pays before any fault
     fires. *)
  let ppath = Filename.temp_file "defload-proxy" ".sock" in
  let proxy =
    Fault.Proxy.create
      ~listen:(Unix.ADDR_UNIX ppath)
      ~upstream:(Service.Wire.sockaddr_of router_addr)
      []
  in
  let pth = Thread.create Fault.Proxy.run proxy in
  let proxied =
    run_one "load-closed-proxy-clean" (Load.Workload.Closed 4)
      (Service.Wire.Unix_sock ppath)
  in
  Fault.Proxy.shutdown proxy;
  Service.Router.shutdown router;
  Service.Server.shutdown s0;
  Service.Server.shutdown s1;
  Thread.join pth;
  Thread.join rth;
  Thread.join th0;
  Thread.join th1;
  [ closed; open_; proxied ]

(* Minimal scanner for the acceptance section of an earlier --json
   record: the writer puts one entry per line, so a line-based scan
   suffices (no JSON dependency in the package).                        *)
let read_baseline path =
  let contains_from line i sub =
    let n = String.length sub in
    String.length line - i >= n && String.sub line i n = sub
  in
  let find_sub line sub =
    let rec go i =
      if i + String.length sub > String.length line then None
      else if contains_from line i sub then Some i
      else go (i + 1)
    in
    go 0
  in
  let ic =
    try open_in path
    with Sys_error msg ->
      Printf.eprintf "bench: cannot read baseline: %s\n%!" msg;
      exit 2
  in
  let rec go acc =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        List.rev acc
    | line -> (
        let line = String.trim line in
        match find_sub line "\"secs_per_call\":" with
        | Some j when String.length line > 0 && line.[0] = '"' -> (
            match String.index_from_opt line 1 '"' with
            | Some close ->
                let key = String.sub line 1 (close - 1) in
                let rest =
                  String.sub line
                    (j + String.length "\"secs_per_call\":")
                    (String.length line - j - String.length "\"secs_per_call\":")
                in
                let num =
                  String.trim rest |> String.split_on_char ','
                  |> List.hd |> String.trim
                in
                (match float_of_string_opt num with
                | Some f -> go ((key, f) :: acc)
                | None -> go acc)
            | None -> go acc)
        | _ -> go acc)
  in
  go []

let write_json ~path ~table_times ~acceptance ~scaling ~delta ~trace ~load
    ~breakdown ~bechamel ~baseline =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"schema\": \"definability-bench-10\",\n";
  p
    "  \"command\": \"dune exec bench/main.exe -- tables --json --out \
     bench/BENCH_10.json --baseline bench/BENCH_9.json\",\n";
  (* How many hardware threads the host offers: the context needed to
     read the par-scaling rows (d2/d4 cannot beat d1 on one core). *)
  p "  \"host_domains\": %d,\n" (Domain.recommended_domain_count ());
  p "  \"tables_wall_secs\": {\n";
  let rec commas f = function
    | [] -> ()
    | [ x ] -> f x; p "\n"
    | x :: rest -> f x; p ",\n"; commas f rest
  in
  commas (fun (name, dt) -> p "    \"%s\": %.6f" name dt) table_times;
  p "  },\n";
  p "  \"acceptance\": {\n";
  commas
    (fun (name, (secs, reps)) ->
      p "    \"%s\": { \"secs_per_call\": %.9e, \"calls\": %d }" name secs
        reps)
    acceptance;
  p "  },\n";
  p "  \"par_scaling\": {\n";
  let host = Domain.recommended_domain_count () in
  commas
    (fun r ->
      match (r.p_stats, r.p_note) with
      | Some (mn, md, mx), _ ->
          p
            "    \"%s\": { \"rounds\": %d, \"min_s\": %.9e, \"median_s\": \
             %.9e, \"max_s\": %.9e, \"host_domains\": %d, \
             \"speedup_vs_d1\": %s }"
            r.p_id r.p_rounds mn md mx host
            (match r.p_speedup_vs_d1 with
            | Some s -> Printf.sprintf "%.2f" s
            | None -> "null")
      | None, note ->
          p
            "    \"%s\": { \"rounds\": 0, \"min_s\": null, \"median_s\": \
             null, \"max_s\": null, \"host_domains\": %d, \
             \"speedup_vs_d1\": null, \"skipped\": %S }"
            r.p_id host
            (Option.value ~default:"skipped" note))
    scaling;
  p "  },\n";
  p "  \"delta\": {\n";
  commas
    (fun r ->
      p
        "    \"%s\": { \"edits\": %d, \"repair_hits\": %d, \
         \"repair_misses\": %d, \"hit_rate\": %.3f, \
         \"repair_secs_per_edit\": %.9e, \"cold_secs_per_edit\": %.9e, \
         \"speedup\": %.1f }"
        r.d_id r.d_edits r.d_hits r.d_misses
        (float_of_int r.d_hits /. float_of_int r.d_edits)
        r.d_repair_per_edit r.d_cold_per_edit
        (r.d_cold_per_edit /. r.d_repair_per_edit))
    delta;
  p "  },\n";
  p "  \"trace\": {\n";
  p "    \"requests\": %d,\n" trace.t_requests;
  p "    \"pool_instances\": %d,\n" trace.t_pool;
  p "    \"zipf_s\": %.2f,\n" trace.t_zipf_s;
  p "    \"shards\": 2,\n";
  p "    \"fsync\": %S,\n" trace.t_fsync;
  p "    \"store_bytes_before_compaction\": %d,\n" trace.t_store_bytes_before;
  p "    \"store_bytes_after_compaction\": %d,\n" trace.t_store_bytes_after;
  if trace.t_reduced then begin
    (* A cut budget would report latencies dominated by the cold pool
       fill and a hit rate that depends on the cut — null them, per the
       skipped-row convention. *)
    p "    \"hit_rate\": null,\n";
    p "    \"p50_us\": null,\n";
    p "    \"p99_us\": null,\n";
    p "    \"server_p50_us\": null,\n";
    p "    \"server_p99_us\": null,\n";
    p "    \"skipped\": \"reduced trace budget (TRACE_REQUESTS=%d)\"\n"
      trace.t_requests
  end
  else begin
    p "    \"hit_rate\": %.4f,\n" trace.t_hit_rate;
    p "    \"p50_us\": %.1f,\n" trace.t_p50_us;
    p "    \"p99_us\": %.1f,\n" trace.t_p99_us;
    p "    \"server_p50_us\": %.1f,\n" trace.t_server_p50_us;
    p "    \"server_p99_us\": %.1f\n" trace.t_server_p99_us
  end;
  p "  },\n";
  p "  \"load\": {\n";
  let opt = function Some n -> string_of_int n | None -> "null" in
  commas
    (fun r ->
      p
        "    \"%s\": { \"requests\": %d, \"wall_s\": %.3f, \"rps\": %.1f, \
         \"decide_p50_us\": %s, \"decide_p99_us\": %s, \"errors\": {%s} }"
        r.l_id r.l_requests r.l_wall_s r.l_rps (opt r.l_decide_p50_us)
        (opt r.l_decide_p99_us)
        (String.concat ", "
           (List.map
              (fun (k, v) -> Printf.sprintf "\"%s\": %d" k v)
              r.l_errors)))
    load;
  p "  },\n";
  p "  \"phase_breakdown\": {\n";
  commas
    (fun (name, phases, counters) ->
      p "    \"%s\": {\n" name;
      p "      \"phases\": {\n";
      commas
        (fun (ph, calls, total_s) ->
          p "        \"%s\": { \"calls\": %d, \"wall_s\": %.9e }" ph calls
            total_s)
        phases;
      p "      },\n";
      p "      \"counters\": {\n";
      commas
        (fun (c, v) -> p "        \"%s\": %d" c v)
        (List.filter (fun (_, v) -> v <> 0) counters);
      p "      }\n";
      p "    }")
    breakdown;
  p "  },\n";
  (match baseline with
  | None -> ()
  | Some base ->
      p "  \"baseline_acceptance_secs_per_call\": {\n";
      commas (fun (name, secs) -> p "    \"%s\": %.9e" name secs) base;
      p "  },\n";
      p "  \"speedup_vs_baseline\": {\n";
      (* Every acceptance row appears here: rows the baseline file does
         not know get an explicit null instead of being dropped, so a
         missing baseline is visible in the record rather than silently
         shrinking the speedup table. *)
      let speedups =
        List.map
          (fun (name, (secs, _)) ->
            ( name,
              match List.assoc_opt name base with
              | Some b when secs > 0. -> Some (b /. secs)
              | _ -> None ))
          acceptance
      in
      commas
        (fun (name, s) ->
          match s with
          | Some s -> p "    \"%s\": %.2f" name s
          | None -> p "    \"%s\": null" name)
        speedups;
      p "  },\n");
  p "  \"bechamel_ns_per_run\": {\n";
  commas (fun (name, est) -> p "    \"%s\": %.1f" name est) bechamel;
  p "  }\n";
  p "}\n";
  close_out oc

let () =
  let argv = Array.to_list Sys.argv in
  let tables_only = List.mem "tables" argv in
  let json = List.mem "--json" argv in
  let rec opt_after key = function
    | [ a ] when a = key ->
        Printf.eprintf "bench: %s requires a value\n%!" key;
        exit 2
    | a :: b :: _ when a = key -> Some b
    | _ :: rest -> opt_after key rest
    | [] -> None
  in
  let out = Option.value ~default:"BENCH_9.json" (opt_after "--out" argv) in
  let baseline = Option.map read_baseline (opt_after "--baseline" argv) in
  (match opt_after "--domains" argv with
  | None -> ()
  | Some n -> (
      match int_of_string_opt n with
      | Some n when n >= 1 -> Par.Pool.set_size n
      | _ ->
          Printf.eprintf "bench: --domains requires a positive integer\n%!";
          exit 2));
  let tabs =
    [
      ("T1", table1); ("T2", table2); ("T3", table3); ("T4", table4);
      ("T5", table5); ("T6", table6); ("T7", table7); ("T8", table8);
      ("T9", table9);
      ("A1", ablation_condition_alphabet);
      ("A2", ablation_profile_vs_full);
      ("A3", ablation_gaut);
    ]
  in
  let table_times =
    List.map
      (fun (name, f) ->
        let (), dt = wall f in
        (name, dt))
      tabs
  in
  let bechamel = if tables_only then [] else run_bechamel () in
  if json then begin
    header "acceptance metrics (secs/call)";
    let cases = acceptance_cases () in
    let acceptance = acceptance_metrics cases in
    List.iter
      (fun (name, (secs, reps)) ->
        Printf.printf "%-32s %.3e s/call  (%d calls)\n%!" name secs reps)
      acceptance;
    let breakdown = phase_breakdowns cases in
    header "pool-size scaling curve (min/median/max secs per call)";
    let scaling = par_scaling_rows () in
    List.iter
      (fun r ->
        match r.p_stats with
        | Some (mn, md, mx) ->
            Printf.printf "%-32s rounds %d  min %.3e  med %.3e  max %.3e%s\n%!"
              r.p_id r.p_rounds mn md mx
              (match r.p_speedup_vs_d1 with
              | Some s -> Printf.sprintf "  (%.2fx vs d1)" s
              | None -> "")
        | None ->
            Printf.printf "%-32s skipped (%s)\n%!" r.p_id
              (Option.value ~default:"skipped" r.p_note))
      scaling;
    header "delta edit streams (secs/edit, repair vs cold)";
    let delta = delta_rows () in
    List.iter
      (fun r ->
        Printf.printf
          "%-32s hits %d/%d  repair %.3e  cold %.3e  (%.0fx)\n%!" r.d_id
          r.d_hits r.d_edits r.d_repair_per_edit r.d_cold_per_edit
          (r.d_cold_per_edit /. r.d_repair_per_edit))
      delta;
    (* The per-edit times also join the acceptance series so the next
       PR's record can baseline against them. *)
    let acceptance =
      acceptance
      @ List.concat_map
          (fun r ->
            [
              (r.d_id ^ "-repair-edit", (r.d_repair_per_edit, r.d_edits));
              (r.d_id ^ "-cold-edit", (r.d_cold_per_edit, r.d_edits));
            ])
          delta
    in
    header "trace replay (2-shard router, Zipf stream)";
    let trace = trace_replay () in
    Printf.printf
      "%d requests over %d instances (zipf s=%.2f, fsync %s)\n%!"
      trace.t_requests trace.t_pool trace.t_zipf_s trace.t_fsync;
    if trace.t_reduced then
      Printf.printf
        "reduced budget (TRACE_REQUESTS): latency metrics recorded as null\n%!"
    else begin
      Printf.printf "hit rate %.4f  p50 %.1fus  p99 %.1fus\n%!"
        trace.t_hit_rate trace.t_p50_us trace.t_p99_us;
      Printf.printf "server-side op.decide p50 %.1fus  p99 %.1fus\n%!"
        trace.t_server_p50_us trace.t_server_p99_us
    end;
    Printf.printf "store bytes %d -> %d across compaction\n%!"
      trace.t_store_bytes_before trace.t_store_bytes_after;
    header "adversarial load (2-shard router; closed / open / proxied)";
    let load = load_rows () in
    List.iter
      (fun r ->
        Printf.printf "%-32s %d req  %.2fs  %.0f req/s  p50 %s  p99 %s%s\n%!"
          r.l_id r.l_requests r.l_wall_s r.l_rps
          (match r.l_decide_p50_us with
          | Some n -> Printf.sprintf "%dus" n
          | None -> "null")
          (match r.l_decide_p99_us with
          | Some n -> Printf.sprintf "%dus" n
          | None -> "null")
          (match r.l_errors with
          | [] -> ""
          | e ->
              "  errors "
              ^ String.concat ","
                  (List.map (fun (k, v) -> Printf.sprintf "%s:%d" k v) e)))
      load;
    write_json ~path:out ~table_times ~acceptance ~scaling ~delta ~trace ~load
      ~breakdown ~bechamel ~baseline;
    Printf.printf "\nwrote %s\n%!" out
  end;
  print_endline "\nbench: done."
