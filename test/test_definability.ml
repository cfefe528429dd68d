(* Tests for the paper's decision procedures: RPQ-definability [3],
   k-RDPQ_mem (Theorem 22), RDPQ_mem (Theorem 24), RDPQ_= (Theorem 32),
   UCRDPQ (Theorem 35), witness search and query synthesis. *)

module Rel = Datagraph.Relation
module TRel = Datagraph.Tuple_relation
module DG = Datagraph.Data_graph
module DV = Datagraph.Data_value
module Gen = Datagraph.Graph_gen
module WS = Definability.Witness_search
module Rpq = Definability.Rpq_definability
module Remd = Definability.Rem_definability
module Reed = Definability.Ree_definability
module Ucd = Definability.Ucrdpq_definability
module Hom = Definability.Hom
module Synth = Definability.Synthesis

let dv = DV.of_int

(* Boolean views over the raw searches (the deprecated [is_definable]
   wrappers these tests used were removed with the tiered-storage PR). *)
let ws_def (o : WS.outcome) =
  match o.verdict with
  | WS.Definable -> true
  | WS.Not_definable _ -> false
  | WS.Exhausted -> failwith "search truncated; raise max_tuples"

let rpq_def ?max_tuples g s = ws_def (Rpq.search ?max_tuples g s)
let rem_def ?max_tuples g s = ws_def (Remd.search ?max_tuples g s)
let krem_def ?max_tuples g ~k s = ws_def (Remd.search_k ?max_tuples g ~k s)

let ree_def ?max_size g s =
  match Reed.verdict (Reed.search ?max_size g s) with
  | Some b -> b
  | None -> failwith "REE closure truncated; raise max_size"

let fig1 = Gen.fig1 ()
let s1 = Gen.fig1_s1 fig1
let s2 = Gen.fig1_s2 fig1
let s3 = Gen.fig1_s3 fig1

let pairs g names =
  Rel.of_list (DG.size g)
    (List.map (fun (u, v) -> (DG.node_of_name g u, DG.node_of_name g v)) names)

(* ---------- witness search engine ---------- *)

let test_ws_trivial () =
  (* Two isolated nodes, one self-block: only (i,i) pairs are
     witnessable, by the empty block sequence. *)
  let cfg =
    {
      WS.num_states = 2;
      sources = [| 0; 1 |];
      node_of = Fun.id;
      blocks = [| { WS.name = "a"; succ = (fun _ -> []) } |];
    }
  in
  let o = WS.search cfg ~target:(Rel.of_list 2 [ (0, 0); (1, 1) ]) in
  (match o.verdict with
  | WS.Definable -> ()
  | _ -> Alcotest.fail "identity should be witnessable");
  Alcotest.(check (list (pair (pair int int) (list string))))
    "empty witnesses"
    [ ((0, 0), []); ((1, 1), []) ]
    o.witnesses;
  (* A cross pair is not witnessable. *)
  let o = WS.search cfg ~target:(Rel.of_list 2 [ (0, 1) ]) in
  match o.verdict with
  | WS.Not_definable [ (0, 1) ] -> ()
  | _ -> Alcotest.fail "cross pair should have no witness"

let test_ws_empty_target () =
  let cfg =
    {
      WS.num_states = 1;
      sources = [| 0 |];
      node_of = Fun.id;
      blocks = [| { WS.name = "a"; succ = (fun s -> [ s ]) } |];
    }
  in
  match (WS.search cfg ~target:(Rel.empty 1)).verdict with
  | WS.Definable -> ()
  | _ -> Alcotest.fail "empty target is trivially definable"

let test_ws_truncation () =
  (* A line long enough that max_tuples = 2 cannot finish. *)
  let cfg =
    {
      WS.num_states = 5;
      sources = [| 0; 1; 2; 3; 4 |];
      node_of = Fun.id;
      blocks = [| { WS.name = "a"; succ = (fun s -> if s < 4 then [ s + 1 ] else []) } |];
    }
  in
  match (WS.search ~max_tuples:2 cfg ~target:(Rel.of_list 5 [ (0, 4) ])).verdict with
  | WS.Exhausted -> ()
  | _ -> Alcotest.fail "expected truncation"

(* ---------- witness search: flat words vs reference ---------- *)

(* The witness search as it stood before its flat-word rewrite, kept
   verbatim (minus logging and tracing) as an oracle: each tuple an array
   of [Bitset]s keyed by its full-pattern hash in a [Hashtbl], successors
   allocated per block.  The packed kernel must agree with it on verdict,
   covered pairs, witnesses and tuple count — the same "packed vs
   reference" pattern as test_bitset.ml. *)
module Reference = struct
  module Relation = Datagraph.Relation
  module Bitset = Util.Bitset
  open WS

  module Tuple_key = struct
    type t = { h : int; rows : Bitset.t array }

    let equal a b =
      a.h = b.h
      && Array.length a.rows = Array.length b.rows
      &&
      let rec go i = i < 0 || (Bitset.equal a.rows.(i) b.rows.(i) && go (i - 1)) in
      go (Array.length a.rows - 1)

    let hash k = k.h

    let make rows =
      let h = ref 0 in
      Array.iter (fun b -> h := (!h * 1000003) lxor Bitset.hash b) rows;
      { h = !h land max_int; rows }
  end

  module Tuple_tbl = Hashtbl.Make (Tuple_key)

  let search ?(max_tuples = 2_000_000) ?budget cfg ~target =
    let n = Array.length cfg.sources in
    if Relation.universe target <> n then
      invalid_arg "Witness_search.search: target universe <> number of sources";
    let take () =
      match budget with None -> true | Some b -> Engine.Budget.take b
    in
    let budget_dead () =
      match budget with None -> false | Some b -> Engine.Budget.exhausted b
    in
    let ns = cfg.num_states in
    let succ_rows =
      Array.map
        (fun block ->
          Array.init ns (fun s ->
              let row = Bitset.create ns in
              List.iter (fun s' -> Bitset.add row s') (block.succ s);
              row))
        cfg.blocks
    in
    let bad =
      Array.init n (fun i ->
          let b = Bitset.create ns in
          for s = 0 to ns - 1 do
            if not (Relation.mem target i (cfg.node_of s)) then Bitset.add b s
          done;
          b)
    in
    let t0 =
      Tuple_key.make
        (Array.init n (fun i ->
             let b = Bitset.create ns in
             Bitset.add b cfg.sources.(i);
             b))
    in
    let visited : int Tuple_tbl.t = Tuple_tbl.create 4096 in
    let parents : (int * int) option array ref = ref (Array.make 1024 None) in
    let tuples : Tuple_key.t array ref = ref (Array.make 1024 t0) in
    let count = ref 0 in
    let register t parent =
      let id = !count in
      incr count;
      if id >= Array.length !parents then begin
        let parents' = Array.make (2 * id) None in
        Array.blit !parents 0 parents' 0 id;
        parents := parents';
        let tuples' = Array.make (2 * id) t0 in
        Array.blit !tuples 0 tuples' 0 id;
        tuples := tuples'
      end;
      !parents.(id) <- parent;
      !tuples.(id) <- t;
      Tuple_tbl.add visited t id;
      id
    in
    let covered = ref (Relation.empty n) in
    let witness_ids : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
    let target_card = Relation.cardinal target in
    let done_ = ref (target_card = 0) in
    let truncated = ref false in
    let apply rows t =
      Array.map
        (fun qi ->
          let q' = Bitset.create ns in
          Bitset.iter (fun s -> Bitset.union_inplace q' rows.(s)) qi;
          q')
        t
    in
    let queue = Queue.create () in
    if take () then Queue.add (register t0 None) queue else truncated := true;
    while (not (Queue.is_empty queue)) && (not !done_) && not (budget_dead ())
    do
      let id = Queue.pop queue in
      let t = (!tuples.(id)).Tuple_key.rows in
      let safe = ref true in
      for i = 0 to n - 1 do
        if not (Bitset.disjoint t.(i) bad.(i)) then safe := false
      done;
      if !safe then begin
        for i = 0 to n - 1 do
          Bitset.iter
            (fun s ->
              let q = cfg.node_of s in
              if not (Relation.mem !covered i q) then begin
                covered := Relation.add !covered i q;
                Hashtbl.replace witness_ids (i, q) id
              end)
            t.(i)
        done;
        if Relation.cardinal !covered = target_card then done_ := true
      end;
      if not !done_ then
        Array.iteri
          (fun bi rows ->
            let rows' = apply rows t in
            if Array.exists (fun q -> not (Bitset.is_empty q)) rows' then begin
              let t' = Tuple_key.make rows' in
              if not (Tuple_tbl.mem visited t') then
                if !count >= max_tuples || not (take ()) then truncated := true
                else Queue.add (register t' (Some (id, bi))) queue
            end)
          succ_rows
    done;
    let path_of id =
      let rec go id acc =
        match !parents.(id) with
        | None -> acc
        | Some (pid, bi) -> go pid (cfg.blocks.(bi).name :: acc)
      in
      go id []
    in
    let witnesses =
      Hashtbl.fold (fun pair id acc -> ((pair, path_of id)) :: acc) witness_ids []
      |> List.sort compare
    in
    if budget_dead () then truncated := true;
    let verdict =
      if Relation.cardinal !covered = target_card then Definable
      else if !truncated then Exhausted
      else Not_definable (Relation.to_list (Relation.diff target !covered))
    in
    { verdict; covered = !covered; witnesses; tuples_explored = !count }
end

(* One search case: a config, a target, and its cuts.  Fuel is
   a number, not a [Budget.t], because a budget is consumed by a run and
   each side needs a fresh one. *)
type ws_case = {
  label : string;
  cfg : WS.config;
  target : Rel.t;
  max_tuples : int;
  fuel : int option;
}

let ws_agree c =
  let run search =
    let budget = Option.map (fun f -> Engine.Budget.create ~fuel:f ()) c.fuel in
    let o = search ?max_tuples:(Some c.max_tuples) ?budget c.cfg ~target:c.target in
    (o, Option.map Engine.Budget.used budget)
  in
  let got, got_used = run WS.search and want, want_used = run Reference.search in
  got.WS.verdict = want.WS.verdict
  && Rel.equal got.WS.covered want.WS.covered
  && got.WS.witnesses = want.WS.witnesses
  && got.WS.tuples_explored = want.WS.tuples_explored
  && got_used = want_used

let print_ws_case c =
  Printf.sprintf "%s: %d states, %d sources, %d blocks, %d target pairs, max %d%s"
    c.label c.cfg.WS.num_states
    (Array.length c.cfg.WS.sources)
    (Array.length c.cfg.WS.blocks)
    (Rel.cardinal c.target) c.max_tuples
    (match c.fuel with Some f -> Printf.sprintf ", fuel %d" f | None -> "")

let gen_cuts st =
  let max_tuples =
    match Random.State.int st 3 with
    | 0 -> 5_000
    | 1 -> 1 + Random.State.int st 20
    | _ -> 1 + Random.State.int st 2_000
  in
  let fuel =
    if Random.State.int st 3 = 0 then Some (Random.State.int st 40) else None
  in
  (max_tuples, fuel)

(* Empty, partial or full targets over [n] sources. *)
let gen_target st n =
  match Random.State.int st 4 with
  | 0 -> Rel.empty n
  | 1 -> Rel.full n
  | _ ->
      let p = Random.State.float st 1. in
      Rel.filter (fun _ _ -> Random.State.float st 1. < p) (Rel.full n)

(* Synthetic configs: 1..200 states, so a row spans 1–4 words and
   crosses the 63-bit word boundary; 0–8 sources, some sharing a start
   state; 1–6 nondeterministic blocks. *)
let gen_synthetic_case st =
  let ns = 1 + Random.State.int st 200 in
  let n = Random.State.int st 9 in
  let starts = Array.init (1 + Random.State.int st 4) (fun _ -> Random.State.int st ns) in
  let sources =
    Array.init n (fun _ ->
        if Random.State.bool st then starts.(Random.State.int st (Array.length starts))
        else Random.State.int st ns)
  in
  let node_tbl = Array.init ns (fun _ -> Random.State.int st (max n 1)) in
  let blocks =
    Array.init (1 + Random.State.int st 6) (fun b ->
        let out = 1 + Random.State.int st 3 in
        let succ =
          Array.init ns (fun _ ->
              List.init (Random.State.int st (out + 1)) (fun _ -> Random.State.int st ns))
        in
        { WS.name = Printf.sprintf "b%d" b; succ = Array.get succ })
  in
  let max_tuples, fuel = gen_cuts st in
  {
    label = "synthetic";
    cfg = { WS.num_states = ns; sources; node_of = Array.get node_tbl; blocks };
    target = gen_target st n;
    max_tuples;
    fuel;
  }

(* Many distinct state sets: 64–200 states, up to 24 mostly
   deterministic blocks and one or two start states.  Three cases in
   four put a pair in the target whose node no state projects to, so
   the search runs until the space or a cut ends it.  Most searches
   meet more than 64 sets and register more than 64 tuples, so the set
   table, the image table and the tuple table all grow past their
   first size. *)
let gen_growth_case st =
  let ns = 64 + Random.State.int st 137 in
  let n = 2 + Random.State.int st 3 in
  let starts = Array.init (1 + Random.State.int st 2) (fun _ -> Random.State.int st ns) in
  let sources = Array.init n (fun _ -> starts.(Random.State.int st (Array.length starts))) in
  let unreached = Random.State.int st 4 > 0 in
  let nodes = if unreached then n - 1 else n in
  let node_tbl = Array.init ns (fun _ -> Random.State.int st nodes) in
  let blocks =
    Array.init (2 + Random.State.int st 23) (fun b ->
        let succ =
          Array.init ns (fun _ ->
              match Random.State.int st 10 with
              | 0 -> []
              | 1 -> [ Random.State.int st ns; Random.State.int st ns ]
              | _ -> [ Random.State.int st ns ])
        in
        { WS.name = Printf.sprintf "b%d" b; succ = Array.get succ })
  in
  let target = gen_target st n in
  let target = if unreached then Rel.add target 0 (n - 1) else target in
  let max_tuples = 65 + Random.State.int st 600 in
  let fuel = if Random.State.int st 4 = 0 then Some (65 + Random.State.int st 600) else None in
  {
    label = "growth";
    cfg = { WS.num_states = ns; sources; node_of = Array.get node_tbl; blocks };
    target;
    max_tuples;
    fuel;
  }

(* Two distinct one-word state sets whose hashes collide: the set table
   must still tell them apart by their words.  A set of [w = 1] word
   [x] hashes to [Util.Bitset.hash_words 1 [| x |]], which ends in
   an invertible mix and a sign-bit mask, so [x1] and [x2] are the
   preimages of two mix outputs that differ only in the masked bit. *)
let colliding_words st =
  let c = 0x2545F4914F6CDD1D in
  let inv = ref c in
  for _ = 1 to 6 do
    inv := !inv * (2 - (c * !inv))
  done;
  let unmix y =
    let x = y lxor (y lsr 29) lxor (y lsr 58) in
    (x * !inv) lxor 1
  in
  let y = Random.State.bits st lor (Random.State.bits st lsl 30) in
  let x1 = unmix y and x2 = unmix (y lxor min_int) in
  let h x = Util.Bitset.hash_words 1 [| x |] in
  if x1 = x2 || h x1 <> h x2 then failwith "colliding_words: no collision";
  (x1, x2)

(* 63 states (one word): block 0 takes the start state to the set [x1]
   and block 1 to [x2], two sets whose hashes collide; the other blocks
   and successors are random. *)
let gen_collision_case st =
  let ns = Sys.int_size in
  let x1, x2 = colliding_words st in
  let states x = List.filter (fun s -> (x lsr s) land 1 = 1) (List.init ns Fun.id) in
  let n = 1 + Random.State.int st 3 in
  let start = Random.State.int st ns in
  let sources = Array.init n (fun i -> if i = 0 then start else Random.State.int st ns) in
  let node_tbl = Array.init ns (fun _ -> Random.State.int st n) in
  let blocks =
    Array.init (2 + Random.State.int st 3) (fun b ->
        let succ =
          Array.init ns (fun s ->
              if s = start && b < 2 then states (if b = 0 then x1 else x2)
              else List.init (Random.State.int st 3) (fun _ -> Random.State.int st ns))
        in
        { WS.name = Printf.sprintf "b%d" b; succ = Array.get succ })
  in
  {
    label = "collision";
    cfg = { WS.num_states = ns; sources; node_of = Array.get node_tbl; blocks };
    target = gen_target st n;
    max_tuples = 5_000;
    fuel = None;
  }

(* The configs the deciders build, over small random graphs: the RPQ
   search, the profile automaton (REM) and the assignment graph (k-REM,
   k = 1, 2). *)
let gen_decider_case st =
  let n = 2 + Random.State.int st 4 in
  let g =
    Gen.random ~seed:(Random.State.bits st) ~n
      ~delta:(1 + Random.State.int st 3)
      ~labels:(if Random.State.bool st then [ "a" ] else [ "a"; "b" ])
      ~density:(0.2 +. Random.State.float st 0.4)
      ()
  in
  let label, cfg =
    match Random.State.int st 4 with
    | 0 -> ("rpq", Rpq.config g)
    | 1 -> ("rem", Definability.Profile_graph.(config (create g)))
    | i ->
        let ag = Definability.Assignment_graph.create g ~k:(i - 1) in
        (Printf.sprintf "krem k=%d" (i - 1), Definability.Assignment_graph.config ag)
  in
  let target =
    if Random.State.bool st then
      Gen.random_reachable_relation ~seed:(Random.State.bits st) g
        ~count:(1 + Random.State.int st 3)
    else gen_target st n
  in
  let max_tuples, fuel = gen_cuts st in
  { label; cfg; target; max_tuples; fuel }

let ws_reference_props =
  [
    QCheck.Test.make ~name:"synthetic configs agree with the reference"
      ~count:500 ~long_factor:20
      (QCheck.make ~print:print_ws_case gen_synthetic_case)
      ws_agree;
    QCheck.Test.make ~name:"decider configs agree with the reference"
      ~count:150 ~long_factor:20
      (QCheck.make ~print:print_ws_case gen_decider_case)
      ws_agree;
    QCheck.Test.make ~name:"grown tables agree with the reference"
      ~count:100 ~long_factor:20
      (QCheck.make ~print:print_ws_case gen_growth_case)
      ws_agree;
    QCheck.Test.make ~name:"colliding state sets agree with the reference"
      ~count:100 ~long_factor:20
      (QCheck.make ~print:print_ws_case gen_collision_case)
      ws_agree;
  ]

(* ---------- RPQ-definability ---------- *)

let test_rpq_fig1 () =
  Alcotest.(check bool) "S1 yes" true (rpq_def fig1 s1);
  Alcotest.(check bool) "S2 no" false (rpq_def fig1 s2);
  Alcotest.(check bool) "S3 no" false (rpq_def fig1 s3)

let test_rpq_structured () =
  (* On a line a->b->c, {(0,2)} is defined by the word of length 2. *)
  let line = Gen.line ~values:[ dv 0; dv 0; dv 0 ] ~label:"a" in
  let s = Rel.of_list 3 [ (0, 2) ] in
  Alcotest.(check bool) "line pair" true (rpq_def line s);
  (* On a 2-cycle with equal values, {(0,1)} is not RPQ-definable: every
     word connecting 0 to 1 also connects 1 to 0. *)
  let c2 = Gen.cycle ~values:[ dv 0; dv 0 ] ~label:"a" in
  Alcotest.(check bool) "cycle pair" false
    (rpq_def c2 (Rel.of_list 2 [ (0, 1) ]));
  (* ... but the full cycle relation is definable. *)
  Alcotest.(check bool) "cycle both" true
    (rpq_def c2 (Rel.of_list 2 [ (0, 1); (1, 0) ]));
  (* Unreachable pair: not definable. *)
  let line2 = Gen.line ~values:[ dv 0; dv 0 ] ~label:"a" in
  Alcotest.(check bool) "unreachable" false
    (rpq_def line2 (Rel.of_list 2 [ (1, 0) ]))

let test_rpq_identity_and_empty () =
  let g = Gen.fig1 () in
  Alcotest.(check bool) "empty relation" true
    (rpq_def g (Rel.empty (DG.size g)));
  (* The identity is defined by ε. *)
  Alcotest.(check bool) "identity" true
    (rpq_def g (Rel.identity (DG.size g)))

let test_rpq_synthesis () =
  let o = Rpq.search fig1 s1 in
  match o.verdict with
  | WS.Not_definable _ | WS.Exhausted -> Alcotest.fail "S1 should be definable"
  | WS.Definable ->
      let e = Rpq.query_of_witnesses o.witnesses in
      let r = Regexp.Nfa.eval_on_graph fig1 (Regexp.Nfa.of_regex e) in
      Alcotest.(check bool) "synthesized defines S1" true (Rel.equal r s1)

(* ---------- k-RDPQ_mem-definability ---------- *)

let test_krem_fig1 () =
  Alcotest.(check bool) "S2 k=1 no" false (krem_def fig1 ~k:1 s2);
  Alcotest.(check bool) "S2 k=2 yes" true (krem_def fig1 ~k:2 s2);
  Alcotest.(check bool) "S3 k=1 no" false (krem_def fig1 ~k:1 s3);
  Alcotest.(check bool) "S3 k=2 yes" true (krem_def fig1 ~k:2 s3);
  (* k=0 coincides with RPQ-definability. *)
  Alcotest.(check bool) "S1 k=0 yes" true (krem_def fig1 ~k:0 s1);
  Alcotest.(check bool) "S2 k=0 no" false (krem_def fig1 ~k:0 s2)

let test_krem_monotone_in_k () =
  (* If definable with k registers then with k+1 too. *)
  List.iter
    (fun s ->
      let d1 = krem_def fig1 ~k:1 s in
      let d2 = krem_def fig1 ~k:2 s in
      Alcotest.(check bool) "monotone" true ((not d1) || d2))
    [ s1; s2; s3 ]

let test_krem_synthesis () =
  match Synth.rem_k fig1 ~k:2 s2 with
  | None -> Alcotest.fail "S2 should be 2-definable"
  | Some v ->
      Alcotest.(check bool) "verified" true v.correct;
      Alcotest.(check bool) "uses at most 2 registers" true
        (Rem_lang.Rem.registers v.query <= 2)

(* ---------- RDPQ_mem-definability (unbounded) ---------- *)

let test_rem_fig1 () =
  Alcotest.(check bool) "S1" true (rem_def fig1 s1);
  Alcotest.(check bool) "S2" true (rem_def fig1 s2);
  Alcotest.(check bool) "S3" true (rem_def fig1 s3);
  let v = DG.node_of_name fig1 in
  let q4rel = Rel.of_list (DG.size fig1) [ (v "v1", v "v2") ] in
  Alcotest.(check bool) "Q4 relation" false (rem_def fig1 q4rel)

let test_rem_profile_vs_delta () =
  (* Lemma 23: the profile search agrees with the explicit δ-register
     assignment-graph search. *)
  List.iter
    (fun (g, s) ->
      Alcotest.(check bool) "profile = delta registers" true
        (rem_def g s
        = krem_def g ~k:(DG.delta g) s))
    [
      (Gen.line ~values:[ dv 0; dv 1; dv 0 ] ~label:"a", Rel.of_list 3 [ (0, 2) ]);
      (Gen.cycle ~values:[ dv 0; dv 1 ] ~label:"a", Rel.of_list 2 [ (0, 1) ]);
      (Gen.cycle ~values:[ dv 0; dv 0 ] ~label:"a", Rel.of_list 2 [ (0, 1) ]);
    ]

let test_rem_synthesis () =
  match Synth.rem fig1 s2 with
  | None -> Alcotest.fail "S2 should be REM-definable"
  | Some v -> Alcotest.(check bool) "verified" true v.correct

(* ---------- RDPQ_=-definability ---------- *)

let test_ree_fig1 () =
  Alcotest.(check bool) "S1" true (ree_def fig1 s1);
  Alcotest.(check bool) "S2" false (ree_def fig1 s2);
  Alcotest.(check bool) "S3" true (ree_def fig1 s3)

let test_ree_closure_height_bound () =
  (* Lemma 28: levels stabilize by n^2; witness heights stay below. *)
  let r = Reed.search fig1 s3 in
  let n = DG.size fig1 in
  Alcotest.(check bool) "height <= n^2" true (r.max_height <= n * n);
  Alcotest.(check bool) "closure nonempty" true (r.closure_size > 0)

let test_ree_truncation () =
  let r = Reed.search ~max_size:2 fig1 s2 in
  Alcotest.(check bool) "truncated gives unknown" true (Reed.verdict r = None)

let test_ree_synthesis () =
  match Synth.ree fig1 s3 with
  | None -> Alcotest.fail "S3 should be REE-definable"
  | Some v -> Alcotest.(check bool) "verified" true v.correct

let test_ree_empty_and_identity () =
  Alcotest.(check bool) "empty" true
    (ree_def fig1 (Rel.empty (DG.size fig1)));
  Alcotest.(check bool) "identity" true
    (ree_def fig1 (Rel.identity (DG.size fig1)))

(* ---------- homomorphisms and UCRDPQ ---------- *)

let test_hom_identity () =
  Alcotest.(check bool) "identity is hom" true
    (Hom.is_hom fig1 (Hom.identity fig1))

let test_hom_conditions () =
  (* A map breaking edge compatibility is rejected. *)
  let g = Gen.line ~values:[ dv 0; dv 1 ] ~label:"a" in
  Alcotest.(check bool) "reversal not hom" false (Hom.is_hom g [| 1; 0 |]);
  (* Data compatibility: same-value pair must stay same-value. *)
  let g2 =
    DG.make
      ~nodes:[ ("x", dv 0); ("y", dv 0); ("x'", dv 0); ("y'", dv 1) ]
      ~edges:[ ("x", "a", "y"); ("x'", "a", "y'") ]
  in
  let x = DG.node_of_name g2 "x" in
  let h = Hom.identity g2 in
  h.(x) <- DG.node_of_name g2 "x'";
  h.(DG.node_of_name g2 "y") <- DG.node_of_name g2 "y'";
  Alcotest.(check bool) "data incompat rejected" false (Hom.is_hom g2 h);
  (* Reverse direction of condition 2: ≠ must stay ≠. *)
  let h' = Hom.identity g2 in
  h'.(DG.node_of_name g2 "x'") <- x;
  h'.(DG.node_of_name g2 "y'") <- DG.node_of_name g2 "y";
  Alcotest.(check bool) "neq collapse rejected" false (Hom.is_hom g2 h')

let test_hom_count () =
  (* On a single a-cycle of 3 equal-value nodes, homs are the rotations. *)
  let c3 = Gen.cycle ~values:[ dv 0; dv 0; dv 0 ] ~label:"a" in
  Alcotest.(check int) "rotations" 3 (Hom.count c3);
  (* With distinct values, data compatibility kills non-identity maps:
     rotation sends a ≠-pair to a ... ≠-pair; all values distinct, so all
     rotations still qualify. *)
  let c3' = Gen.cycle ~values:[ dv 0; dv 1; dv 2 ] ~label:"a" in
  Alcotest.(check int) "distinct values rotations" 3 (Hom.count c3');
  (* Two equal + one distinct value: only identity survives. *)
  let c3'' = Gen.cycle ~values:[ dv 0; dv 0; dv 1 ] ~label:"a" in
  Alcotest.(check int) "only identity" 1 (Hom.count c3'')

let test_hom_find_violating () =
  let c3 = Gen.cycle ~values:[ dv 0; dv 0; dv 0 ] ~label:"a" in
  (* {0} is not preserved by rotation. *)
  let s = TRel.of_list ~universe:3 ~arity:1 [ [ 0 ] ] in
  (match Hom.find_violating c3 s with
  | Some h ->
      Alcotest.(check bool) "certificate is hom" true (Hom.is_hom c3 h);
      Alcotest.(check bool) "moves 0 out" true (not (TRel.mem s [ h.(0) ]))
  | None -> Alcotest.fail "rotation should violate");
  (* The full node set is preserved by everything. *)
  let full = TRel.of_list ~universe:3 ~arity:1 [ [ 0 ]; [ 1 ]; [ 2 ] ] in
  Alcotest.(check bool) "full preserved" true (Hom.find_violating c3 full = None)

let test_ucrdpq_fig1 () =
  let v = DG.node_of_name fig1 in
  let q4rel = Rel.of_list (DG.size fig1) [ (v "v1", v "v2") ] in
  Alcotest.(check bool) "Q4 relation definable" true
    (Ucd.is_definable_binary fig1 q4rel);
  Alcotest.(check bool) "S2 definable" true (Ucd.is_definable_binary fig1 s2);
  Alcotest.(check bool) "S3 definable" true (Ucd.is_definable_binary fig1 s3)

let test_ucrdpq_not_definable () =
  let c3 = Gen.cycle ~values:[ dv 0; dv 0; dv 0 ] ~label:"a" in
  let s = TRel.of_list ~universe:3 ~arity:1 [ [ 0 ] ] in
  let r = Ucd.check c3 s in
  Alcotest.(check bool) "not definable" false r.definable;
  match r.violation with
  | Some (h, tup) ->
      Alcotest.(check bool) "certificate" true
        (Hom.is_hom c3 h && not (TRel.mem s (List.map (fun p -> h.(p)) tup)))
  | None -> Alcotest.fail "expected certificate"

let test_ucrdpq_canonical_query () =
  (* Lemma 34's φ_G query actually defines the relation (small graph so
     the n-variable join stays cheap). *)
  let g = Gen.line ~values:[ dv 0; dv 1; dv 0 ] ~label:"a" in
  let s = TRel.of_binary (Rel.of_list 3 [ (0, 2) ]) in
  Alcotest.(check bool) "definable" true (Ucd.is_definable g s);
  match Ucd.defining_query g s with
  | Some q ->
      let r = Query_lang.Conjunctive.eval g q in
      Alcotest.(check bool) "phi_G defines S" true (TRel.equal r s)
  | None -> Alcotest.fail "expected query"

let test_ucrdpq_higher_arity () =
  (* A ternary relation: all triples (u,v,w) along the line. *)
  let g = Gen.line ~values:[ dv 0; dv 1; dv 2 ] ~label:"a" in
  let s = TRel.of_list ~universe:3 ~arity:3 [ [ 0; 1; 2 ] ] in
  (* All values distinct: only the identity hom exists, so definable. *)
  Alcotest.(check bool) "ternary definable" true (Ucd.is_definable g s);
  match Ucd.defining_query g s with
  | Some q ->
      let r = Query_lang.Conjunctive.eval g q in
      Alcotest.(check bool) "phi_G ternary" true (TRel.equal r s)
  | None -> Alcotest.fail "expected query"

(* ---------- degenerate graphs ---------- *)

let test_singleton_graphs () =
  (* One node, no edges: only ∅ and {(0,0)} exist; the identity is
     defined by ε in every language, ∅ by the empty query. *)
  let g = DG.build ~values:[| dv 0 |] ~edges:[] in
  let empty = Rel.empty 1 and id = Rel.identity 1 in
  List.iter
    (fun (name, s, expected) ->
      Alcotest.(check bool) (name ^ " rpq") expected (rpq_def g s);
      Alcotest.(check bool) (name ^ " ree") expected (ree_def g s);
      Alcotest.(check bool) (name ^ " rem") expected (rem_def g s);
      Alcotest.(check bool) (name ^ " uc") expected
        (Ucd.is_definable_binary g s))
    [ ("empty", empty, true); ("identity", id, true) ];
  (* One node with a self-loop: {(0,0)} still definable; and now
     arbitrarily long witness words exist. *)
  let g' = DG.build ~values:[| dv 0 |] ~edges:[ (0, "a", 0) ] in
  Alcotest.(check bool) "loop identity" true (rpq_def g' id)

let test_two_isolated_nodes () =
  (* Two equal-valued isolated nodes: the swap is a homomorphism, so
     {(0,0)} is not even UCRDPQ-definable; the full identity is. *)
  let g = DG.build ~values:[| dv 0; dv 0 |] ~edges:[] in
  let single = Rel.of_list 2 [ (0, 0) ] in
  Alcotest.(check bool) "single diag not definable" false
    (Ucd.is_definable_binary g single);
  Alcotest.(check bool) "nor by REM" false (rem_def g single);
  Alcotest.(check bool) "identity definable" true
    (rem_def g (Rel.identity 2));
  (* With distinct values the swap breaks data compatibility... for
     ISOLATED nodes reachability is trivial, so the swap survives and
     {(0,0)} stays undefinable even with distinct values. *)
  let g' = DG.build ~values:[| dv 0; dv 1 |] ~edges:[] in
  Alcotest.(check bool) "distinct values, still swap" false
    (Ucd.is_definable_binary g' single)

(* ---------- assignment graph conforms to Definition 19 ---------- *)

let test_assignment_graph_def19 () =
  (* For every block ↓r̄.a[t] and every state (v,σ): the successor set
     must be exactly { (v',σ') | (v,a,v') ∈ E, σ' = σ[r̄ → ρ(v)],
     ρ(v'),σ' ⊨ t } — Definition 19, checked against the block decoded
     from its name. *)
  let g = Gen.line ~values:[ dv 0; dv 1; dv 0 ] ~label:"a" in
  let k = 1 in
  let ag = Definability.Assignment_graph.create g ~k in
  let n_states = Definability.Assignment_graph.num_states ag in
  Alcotest.(check int) "state count" (3 * (2 + 1)) n_states;
  Array.iter
    (fun (b : Definability.Witness_search.block) ->
      let decoded =
        Definability.Assignment_graph.basic_block_of_name ag
          b.Definability.Witness_search.name
      in
      for st = 0 to n_states - 1 do
        let v = Definability.Assignment_graph.node_of ag st in
        let sigma = Definability.Assignment_graph.assignment_of ag st in
        let sigma' = Array.copy sigma in
        List.iter
          (fun r -> sigma'.(r) <- Some (DG.value g v))
          decoded.Rem_lang.Basic_rem.bind;
        let expected =
          List.filter
            (fun v' ->
              Rem_lang.Condition.sat decoded.Rem_lang.Basic_rem.cond
                ~d:(DG.value g v') ~assignment:sigma')
            (DG.succ g v decoded.Rem_lang.Basic_rem.label)
          |> List.sort compare
        in
        let got =
          List.map
            (fun st' ->
              let v' = Definability.Assignment_graph.node_of ag st' in
              (* σ' must match the computed one *)
              let sig_got = Definability.Assignment_graph.assignment_of ag st' in
              Alcotest.(check bool) "sigma updated" true (sig_got = sigma');
              v')
            (b.Definability.Witness_search.succ st)
          |> List.sort compare
        in
        Alcotest.(check (list int)) "successor nodes" expected got
      done)
    (Definability.Assignment_graph.blocks ag)

let test_profile_graph_states () =
  let g = Gen.line ~values:[ dv 0; dv 1; dv 0 ] ~label:"a" in
  let pg = Definability.Profile_graph.create g in
  (* Initial states store the start value; ids are dense and project back
     to the right node. *)
  List.iter
    (fun v ->
      let st = Definability.Profile_graph.initial pg v in
      Alcotest.(check int) "projects back" v
        (Definability.Profile_graph.node_of pg st))
    (DG.nodes g);
  (* The canonical path of a witness re-parses to the right shape. *)
  let w =
    Definability.Profile_graph.path_of_witness pg [ "a!"; "a=0" ]
  in
  Alcotest.(check int) "length" 2 (Datagraph.Data_path.length w);
  Alcotest.(check (array int)) "profile" [| 0; 1; 0 |]
    (Datagraph.Data_path.profile w)

(* ---------- witnesses decode to genuine basic REMs ---------- *)

let test_krem_witnesses_decode () =
  (* Every block sequence reported by the k-REM checker decodes (through
     the assignment graph's name table) to a basic k-REM that connects
     its pair and stays inside S — the two conditions of Definition 17. *)
  let g = fig1 and s = s2 and k = 2 in
  let ag = Definability.Assignment_graph.create g ~k in
  let o =
    Definability.Witness_search.search
      (Definability.Assignment_graph.config ag)
      ~target:s
  in
  (match o.Definability.Witness_search.verdict with
  | Definability.Witness_search.Definable -> ()
  | _ -> Alcotest.fail "S2 should be 2-definable");
  List.iter
    (fun ((u, v), names) ->
      let blocks =
        List.map (Definability.Assignment_graph.basic_block_of_name ag) names
      in
      let rel =
        Rem_lang.Register_automaton.eval_on_graph g
          (Rem_lang.Register_automaton.of_basic blocks)
      in
      Alcotest.(check bool) "connecting path" true (Rel.mem rel u v);
      Alcotest.(check bool) "no extraneous pairs" true (Rel.subset rel s))
    o.Definability.Witness_search.witnesses

let test_profile_witnesses_decode () =
  (* Same for the unbounded checker: witnesses decode through the profile
     automaton to e_[w] expressions. *)
  let g = fig1 and s = s3 in
  let pg = Definability.Profile_graph.create g in
  let o =
    Definability.Witness_search.search
      (Definability.Profile_graph.config pg)
      ~target:s
  in
  List.iter
    (fun ((u, v), names) ->
      let w = Definability.Profile_graph.path_of_witness pg names in
      let e = Rem_lang.Basic_rem.of_data_path w in
      let rel =
        Rem_lang.Register_automaton.eval_on_graph g
          (Rem_lang.Register_automaton.of_basic e)
      in
      Alcotest.(check bool) "connecting path" true (Rel.mem rel u v);
      Alcotest.(check bool) "no extraneous pairs" true (Rel.subset rel s))
    o.Definability.Witness_search.witnesses

(* ---------- census ---------- *)

let test_census_line () =
  (* On a 3-node a-line, the RPQ/REE/REM-definable relations are exactly
     the 8 unions of the three distance classes (identity, step, two-step)
     — data tests add nothing because all witness paths are automorphic. *)
  let g = Gen.line ~values:[ dv 0; dv 1; dv 0 ] ~label:"a" in
  let c = Definability.Census.binary ~max_k:1 g in
  Alcotest.(check int) "all relations" 512 c.Definability.Census.relations;
  Alcotest.(check int) "rpq" 8 c.Definability.Census.rpq;
  Alcotest.(check int) "ree" 8 c.Definability.Census.ree;
  Alcotest.(check int) "rem" 8 c.Definability.Census.rem;
  Alcotest.(check int) "k=0 equals rpq" c.Definability.Census.rpq
    c.Definability.Census.krem.(0);
  (* All values distinct on 3 nodes, no symmetry: identity is the only
     hom?  No — constant maps onto a self-loop-free graph fail edges, and
     data compat kills collapses; so UCRDPQ defines everything. *)
  Alcotest.(check int) "ucrdpq" 512 c.Definability.Census.ucrdpq

let test_census_cycle () =
  (* On the equal-valued 3-cycle the homomorphisms are the 3 rotations,
     so UCRDPQ-definable = rotation-closed: the pair orbits are
     {identity, forward-step, backward-step}, giving 2^3 = 8. *)
  let g = Gen.cycle ~values:[ dv 0; dv 0; dv 0 ] ~label:"a" in
  let c = Definability.Census.binary ~max_k:0 g in
  Alcotest.(check int) "ucrdpq = rotation-closed" 8
    c.Definability.Census.ucrdpq;
  Alcotest.(check int) "rpq" 8 c.Definability.Census.rpq

let test_census_sampled () =
  let g = Gen.random ~seed:3 ~n:4 ~delta:2 ~labels:[ "a" ] ~density:0.4 () in
  let c = Definability.Census.binary ~max_k:0 ~sample:20 g in
  Alcotest.(check bool) "sampled" true (c.Definability.Census.relations <= 20);
  Alcotest.(check bool) "hierarchy" true
    (c.Definability.Census.rpq <= c.Definability.Census.ree
    && c.Definability.Census.ree <= c.Definability.Census.rem
    && c.Definability.Census.rem <= c.Definability.Census.ucrdpq)

(* ---------- schema mapping ---------- *)

let test_schema_mapping_fit () =
  let g = fig1 in
  let outcomes =
    Definability.Schema_mapping.fit g
      [ ("s1", s1); ("s2", s2); ("s3", s3) ]
  in
  let lang target =
    match
      List.find_map
        (function
          | Definability.Schema_mapping.Fitted r
            when r.Definability.Schema_mapping.target = target ->
              Some (Definability.Schema_mapping.lang_name
                      r.Definability.Schema_mapping.query)
          | _ -> None)
        outcomes
    with
    | Some l -> l
    | None -> "unfittable"
  in
  (* Least expressive language per relation, per Example 12. *)
  Alcotest.(check string) "s1 as RPQ" "RPQ" (lang "s1");
  Alcotest.(check string) "s2 needs REM" "RDPQmem" (lang "s2");
  Alcotest.(check string) "s3 as REE" "RDPQ=" (lang "s3");
  (* Every fitted rule verifies. *)
  List.iter
    (function
      | Definability.Schema_mapping.Fitted r ->
          let s =
            List.assoc r.Definability.Schema_mapping.target
              [ ("s1", s1); ("s2", s2); ("s3", s3) ]
          in
          Alcotest.(check bool) "verifies" true
            (Definability.Schema_mapping.verify g r s)
      | Definability.Schema_mapping.Unfittable _ ->
          Alcotest.fail "all three are definable")
    outcomes

let test_schema_mapping_unfittable () =
  let g = Gen.cycle ~values:[ dv 0; dv 0; dv 0 ] ~label:"a" in
  let s = Rel.of_list 3 [ (0, 1) ] in
  match Definability.Schema_mapping.fit g [ ("bad", s) ] with
  | [ Definability.Schema_mapping.Unfittable { violation = Some _; _ } ] -> ()
  | _ -> Alcotest.fail "expected an unfittable target with certificate"

(* ---------- cross-language sanity on fig1 ---------- *)

let test_hierarchy_on_fig1 () =
  (* RPQ-definable ⊆ REE-definable ⊆ REM-definable ⊆ UCRDPQ-definable. *)
  List.iter
    (fun s ->
      let rpq = rpq_def fig1 s in
      let ree = ree_def fig1 s in
      let rem = rem_def fig1 s in
      let uc = Ucd.is_definable_binary fig1 s in
      Alcotest.(check bool) "rpq->ree" true ((not rpq) || ree);
      Alcotest.(check bool) "ree->rem" true ((not ree) || rem);
      Alcotest.(check bool) "rem->uc" true ((not rem) || uc))
    [ s1; s2; s3; Rel.empty 10; Rel.identity 10; pairs fig1 [ ("v1", "v2") ] ]

let () =
  Alcotest.run "definability"
    [
      ( "witness search",
        [
          Alcotest.test_case "trivial" `Quick test_ws_trivial;
          Alcotest.test_case "empty target" `Quick test_ws_empty_target;
          Alcotest.test_case "truncation" `Quick test_ws_truncation;
        ] );
      ( "witness search reference",
        List.map QCheck_alcotest.to_alcotest ws_reference_props );
      ( "rpq",
        [
          Alcotest.test_case "fig1" `Quick test_rpq_fig1;
          Alcotest.test_case "structured" `Quick test_rpq_structured;
          Alcotest.test_case "identity/empty" `Quick test_rpq_identity_and_empty;
          Alcotest.test_case "synthesis" `Quick test_rpq_synthesis;
        ] );
      ( "k-rem",
        [
          Alcotest.test_case "fig1" `Quick test_krem_fig1;
          Alcotest.test_case "monotone in k" `Quick test_krem_monotone_in_k;
          Alcotest.test_case "synthesis" `Quick test_krem_synthesis;
        ] );
      ( "rem",
        [
          Alcotest.test_case "fig1" `Quick test_rem_fig1;
          Alcotest.test_case "profile vs delta" `Quick test_rem_profile_vs_delta;
          Alcotest.test_case "synthesis" `Quick test_rem_synthesis;
        ] );
      ( "ree",
        [
          Alcotest.test_case "fig1" `Quick test_ree_fig1;
          Alcotest.test_case "height bound" `Quick test_ree_closure_height_bound;
          Alcotest.test_case "truncation" `Quick test_ree_truncation;
          Alcotest.test_case "synthesis" `Quick test_ree_synthesis;
          Alcotest.test_case "empty/identity" `Quick test_ree_empty_and_identity;
        ] );
      ( "homomorphisms",
        [
          Alcotest.test_case "identity" `Quick test_hom_identity;
          Alcotest.test_case "conditions" `Quick test_hom_conditions;
          Alcotest.test_case "count" `Quick test_hom_count;
          Alcotest.test_case "find violating" `Quick test_hom_find_violating;
        ] );
      ( "ucrdpq",
        [
          Alcotest.test_case "fig1" `Quick test_ucrdpq_fig1;
          Alcotest.test_case "not definable" `Quick test_ucrdpq_not_definable;
          Alcotest.test_case "canonical query" `Quick test_ucrdpq_canonical_query;
          Alcotest.test_case "higher arity" `Quick test_ucrdpq_higher_arity;
        ] );
      ( "degenerate graphs",
        [
          Alcotest.test_case "singleton" `Quick test_singleton_graphs;
          Alcotest.test_case "isolated pair" `Quick test_two_isolated_nodes;
        ] );
      ( "assignment graph",
        [
          Alcotest.test_case "definition 19" `Quick test_assignment_graph_def19;
          Alcotest.test_case "profile graph" `Quick test_profile_graph_states;
        ] );
      ( "witness decoding",
        [
          Alcotest.test_case "k-REM witnesses" `Quick test_krem_witnesses_decode;
          Alcotest.test_case "profile witnesses" `Quick
            test_profile_witnesses_decode;
        ] );
      ( "census",
        [
          Alcotest.test_case "line" `Slow test_census_line;
          Alcotest.test_case "cycle" `Quick test_census_cycle;
          Alcotest.test_case "sampled" `Quick test_census_sampled;
        ] );
      ( "schema mapping",
        [
          Alcotest.test_case "fit fig1" `Slow test_schema_mapping_fit;
          Alcotest.test_case "unfittable" `Quick test_schema_mapping_unfittable;
        ] );
      ( "hierarchy",
        [ Alcotest.test_case "fig1 inclusions" `Quick test_hierarchy_on_fig1 ] );
    ]
