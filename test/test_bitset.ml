(* Tests for the packed bitset kernel and the hot paths rebuilt on it:
   Bitset / Bitmatrix unit tests at word boundaries, then randomized
   agreement checks of the packed implementations against simple
   reference implementations (list-based sets, DFS reachability,
   brute-force homomorphism enumeration, the generic REM evaluator). *)

module Bitset = Util.Bitset
module Bitmatrix = Util.Bitmatrix
module DV = Datagraph.Data_value
module DP = Datagraph.Data_path
module DG = Datagraph.Data_graph
module TR = Datagraph.Tuple_relation
module Hom = Definability.Hom
module Rem = Rem_lang.Rem
module Condition = Rem_lang.Condition

let dv = DV.of_int

(* Widths that straddle the 63-bit word boundary. *)
let widths = [ 0; 1; 62; 63; 64; 65; 130 ]

(* ---------- Bitset unit tests ---------- *)

let test_bitset_empty_full () =
  List.iter
    (fun w ->
      let lbl s = Printf.sprintf "%s (width %d)" s w in
      let e = Bitset.create w in
      Alcotest.(check bool) (lbl "empty is_empty") true (Bitset.is_empty e);
      Alcotest.(check int) (lbl "empty cardinal") 0 (Bitset.cardinal e);
      Alcotest.(check (list int)) (lbl "empty to_list") [] (Bitset.to_list e);
      Alcotest.(check bool) (lbl "empty first") true (Bitset.first e = None);
      let f = Bitset.full w in
      Alcotest.(check int) (lbl "full cardinal") w (Bitset.cardinal f);
      Alcotest.(check (list int))
        (lbl "full to_list")
        (List.init w Fun.id) (Bitset.to_list f);
      for i = 0 to w - 1 do
        Alcotest.(check bool) (lbl "full mem") true (Bitset.mem f i)
      done;
      Bitset.clear f;
      Alcotest.(check bool) (lbl "cleared") true (Bitset.is_empty f);
      Bitset.fill f;
      Alcotest.(check int) (lbl "refilled") w (Bitset.cardinal f);
      Alcotest.(check bool) (lbl "full = full") true
        (Bitset.equal f (Bitset.full w)))
    widths

let test_bitset_add_remove_bounds () =
  List.iter
    (fun w ->
      if w > 0 then begin
        let lbl s = Printf.sprintf "%s (width %d)" s w in
        let b = Bitset.create w in
        Bitset.add b 0;
        Bitset.add b (w - 1);
        Alcotest.(check bool) (lbl "mem 0") true (Bitset.mem b 0);
        Alcotest.(check bool) (lbl "mem last") true (Bitset.mem b (w - 1));
        Alcotest.(check int)
          (lbl "card")
          (if w = 1 then 1 else 2)
          (Bitset.cardinal b);
        Alcotest.(check bool) (lbl "first") true (Bitset.first b = Some 0);
        let c = Bitset.copy b in
        Bitset.remove b 0;
        Alcotest.(check bool) (lbl "removed") false (Bitset.mem b 0);
        Alcotest.(check bool) (lbl "copy unaffected") true (Bitset.mem c 0)
      end)
    widths

let test_bitset_iter_remove_current () =
  (* [iter] guarantees f may remove the element it is called with — the
     CSP revise loop depends on this. *)
  let b = Bitset.of_list 130 [ 0; 5; 62; 63; 64; 100; 129 ] in
  let seen = ref [] in
  Bitset.iter
    (fun i ->
      seen := i :: !seen;
      Bitset.remove b i)
    b;
  Alcotest.(check (list int))
    "all visited ascending"
    [ 0; 5; 62; 63; 64; 100; 129 ]
    (List.rev !seen);
  Alcotest.(check bool) "emptied" true (Bitset.is_empty b)

(* ---------- Randomized Bitset ops vs list-based reference ---------- *)

let rand_subset st w =
  List.filter (fun _ -> Random.State.int st 3 = 0) (List.init w Fun.id)

let test_bitset_ops_agree () =
  let st = Random.State.make [| 42 |] in
  for _ = 1 to 300 do
    let w = List.nth widths (Random.State.int st (List.length widths)) in
    let xs = rand_subset st w and ys = rand_subset st w in
    let a = Bitset.of_list w xs and b = Bitset.of_list w ys in
    let inter = List.filter (fun x -> List.mem x ys) xs in
    let union = List.sort_uniq compare (xs @ ys) in
    let diff = List.filter (fun x -> not (List.mem x ys)) xs in
    Alcotest.(check int) "cardinal" (List.length xs) (Bitset.cardinal a);
    Alcotest.(check (list int)) "to_list" xs (Bitset.to_list a);
    Alcotest.(check bool) "first" true
      (Bitset.first a = match xs with [] -> None | x :: _ -> Some x);
    Alcotest.(check bool) "disjoint" (inter = []) (Bitset.disjoint a b);
    Alcotest.(check bool) "intersects" (inter <> []) (Bitset.intersects a b);
    Alcotest.(check bool) "subset"
      (List.for_all (fun x -> List.mem x ys) xs)
      (Bitset.subset a b);
    Alcotest.(check int) "fold"
      (List.fold_left ( + ) 0 xs)
      (Bitset.fold ( + ) a 0);
    let c = Bitset.copy a in
    Bitset.inter_inplace c b;
    Alcotest.(check (list int)) "inter" inter (Bitset.to_list c);
    let c = Bitset.copy a in
    Bitset.union_inplace c b;
    Alcotest.(check (list int)) "union" union (Bitset.to_list c);
    let c = Bitset.copy a in
    Bitset.diff_inplace c b;
    Alcotest.(check (list int)) "diff" diff (Bitset.to_list c);
    (* equal and hash must agree on equal sets however they were built. *)
    let a' = Bitset.of_list w (List.rev xs) in
    Alcotest.(check bool) "equal" true (Bitset.equal a a');
    Alcotest.(check int) "hash stable" (Bitset.hash a) (Bitset.hash a')
  done

(* ---------- Bitmatrix ---------- *)

let rand_matrix st r c =
  let m = Bitmatrix.create r c in
  for i = 0 to r - 1 do
    for j = 0 to c - 1 do
      if Random.State.int st 3 = 0 then Bitmatrix.set m i j
    done
  done;
  m

let test_bitmatrix_basics () =
  let m = Bitmatrix.create 3 70 in
  Bitmatrix.set m 0 69;
  Bitmatrix.set m 2 0;
  Alcotest.(check bool) "get set" true (Bitmatrix.get m 0 69);
  Alcotest.(check bool) "get unset" false (Bitmatrix.get m 1 33);
  Bitmatrix.unset m 0 69;
  Alcotest.(check bool) "unset" false (Bitmatrix.get m 0 69);
  Alcotest.(check (list int)) "row" [ 0 ] (Bitset.to_list (Bitmatrix.row m 2))

let test_bitmatrix_transpose () =
  let st = Random.State.make [| 7 |] in
  for _ = 1 to 50 do
    let r = 1 + Random.State.int st 5 and c = 1 + Random.State.int st 70 in
    let m = rand_matrix st r c in
    let t = Bitmatrix.transpose m in
    Alcotest.(check int) "rows" c (Bitmatrix.rows t);
    Alcotest.(check int) "cols" r (Bitmatrix.cols t);
    for i = 0 to r - 1 do
      for j = 0 to c - 1 do
        Alcotest.(check bool) "transposed bit" (Bitmatrix.get m i j)
          (Bitmatrix.get t j i)
      done
    done;
    Alcotest.(check bool) "involution" true
      (Bitmatrix.equal m (Bitmatrix.transpose t))
  done

let test_bitmatrix_closure () =
  let st = Random.State.make [| 11 |] in
  for _ = 1 to 60 do
    let n = 1 + Random.State.int st 8 in
    let m = rand_matrix st n n in
    (* Reference: reflexive-transitive closure via boolean Floyd–Warshall. *)
    let reach = Array.init n (fun i -> Array.init n (fun j -> i = j || Bitmatrix.get m i j)) in
    for k = 0 to n - 1 do
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if reach.(i).(k) && reach.(k).(j) then reach.(i).(j) <- true
        done
      done
    done;
    Bitmatrix.set_diagonal m;
    Bitmatrix.closure_inplace m;
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        Alcotest.(check bool) "closure bit" reach.(i).(j) (Bitmatrix.get m i j)
      done
    done
  done

(* ---------- Random data graphs: packed accessors vs references ---------- *)

let rand_graph st =
  let n = 1 + Random.State.int st 5 in
  let values = Array.init n (fun _ -> dv (Random.State.int st 3)) in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      List.iter
        (fun a -> if Random.State.int st 10 < 3 then edges := (u, a, v) :: !edges)
        [ "a"; "b" ]
    done
  done;
  DG.build ~values ~edges:!edges

let ref_reachable g u =
  let n = DG.size g in
  let seen = Array.make n false in
  let rec dfs v =
    if not seen.(v) then begin
      seen.(v) <- true;
      List.iter (fun (p, _, q) -> if p = v then dfs q) (DG.edges g)
    end
  in
  dfs u;
  seen

let test_graph_accessors_agree () =
  let st = Random.State.make [| 123 |] in
  for _ = 1 to 60 do
    let g = rand_graph st in
    let n = DG.size g in
    let edges = DG.edges g in
    Alcotest.(check int) "edge_count" (List.length edges) (DG.edge_count g);
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        List.iter
          (fun a ->
            Alcotest.(check bool) "mem_edge"
              (List.mem (u, a, v) edges)
              (DG.mem_edge g u a v))
          [ "a"; "b"; "zz" ]
      done;
      Alcotest.(check (array bool)) "reachable" (ref_reachable g u)
        (DG.reachable g u)
    done;
    (* Out-of-range probes answer false rather than raising. *)
    Alcotest.(check bool) "oob u" false (DG.mem_edge g (-1) "a" 0);
    Alcotest.(check bool) "oob v" false (DG.mem_edge g 0 "a" n)
  done

(* ---------- Hom: CSP search vs brute-force enumeration ---------- *)

let ref_is_hom g h =
  let edges = DG.edges g in
  List.for_all (fun (p, a, q) -> List.mem (h.(p), a, h.(q)) edges) edges
  && List.for_all
       (fun p ->
         let reach = ref_reachable g p in
         List.for_all
           (fun q ->
             (not reach.(q))
             || DG.same_value g p q = DG.same_value g h.(p) h.(q))
           (DG.nodes g))
       (DG.nodes g)

let all_maps n =
  let rec go i acc =
    if i = n then [ Array.of_list (List.rev acc) ]
    else List.concat_map (fun x -> go (i + 1) (x :: acc)) (List.init n Fun.id)
  in
  go 0 []

let test_hom_agrees_with_brute_force () =
  let st = Random.State.make [| 31337 |] in
  for _ = 1 to 40 do
    let g = rand_graph st in
    let n = DG.size g in
    if n <= 4 then begin
      let maps = all_maps n in
      let brute = List.filter (ref_is_hom g) maps in
      Alcotest.(check int) "count" (List.length brute) (Hom.count g);
      List.iter
        (fun h ->
          Alcotest.(check bool) "is_hom" (ref_is_hom g h) (Hom.is_hom g h))
        maps;
      let found = Hom.all g in
      Alcotest.(check int) "all length" (List.length brute) (List.length found);
      List.iter
        (fun h ->
          Alcotest.(check bool) "all sound" true (ref_is_hom g h))
        found;
      (* find_violating against the brute-force certificate check. *)
      let s =
        TR.of_list ~universe:n ~arity:2
          (List.filter
             (fun _ -> Random.State.bool st)
             (List.concat_map
                (fun p -> List.map (fun q -> [ p; q ]) (List.init n Fun.id))
                (List.init n Fun.id)))
      in
      let violates h =
        TR.exists
          (fun tup -> not (TR.mem s (List.map (fun p -> h.(p)) tup)))
          s
      in
      match Hom.find_violating g s with
      | Some h ->
          Alcotest.(check bool) "violator is hom" true (ref_is_hom g h);
          Alcotest.(check bool) "violator violates" true (violates h)
      | None ->
          Alcotest.(check bool) "no violator exists" false
            (List.exists violates brute)
    end
  done

(* The same agreement as a property: 1–5 nodes (at most 5⁵ = 3125 maps
   to enumerate), 1–3 labels with several labels on one ordered pair,
   edges both ways and self-loops, and 1–3 data values — so same-value
   and distinct-value constraints occur, alone and joined to edge
   constraints, and single-valued graphs too.  The target is a random
   relation of arity 1 or 2. *)
let gen_hom_case st =
  let n = 1 + Random.State.int st 5 in
  let delta = 1 + Random.State.int st 3 in
  let num_labels = 1 + Random.State.int st 3 in
  let labels = List.filteri (fun i _ -> i < num_labels) [ "a"; "b"; "c" ] in
  let values = Array.init n (fun _ -> dv (Random.State.int st delta)) in
  let density = Random.State.float st 0.6 in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      List.iter
        (fun a ->
          if Random.State.float st 1. < density then edges := (u, a, v) :: !edges)
        labels
    done
  done;
  let g = DG.build ~values ~edges:!edges in
  let arity = 1 + Random.State.int st 2 in
  let all_tuples =
    if arity = 1 then List.init n (fun p -> [ p ])
    else
      List.concat_map (fun p -> List.init n (fun q -> [ p; q ])) (List.init n Fun.id)
  in
  let p = Random.State.float st 1. in
  let target =
    TR.of_list ~universe:n ~arity
      (List.filter (fun _ -> Random.State.float st 1. < p) all_tuples)
  in
  (g, target)

let print_hom_case (g, s) =
  Printf.sprintf "values=[%s] edges=[%s] target(arity %d)=[%s]"
    (String.concat ";"
       (List.map (fun p -> string_of_int (DV.to_int (DG.value g p))) (DG.nodes g)))
    (String.concat ";"
       (List.map (fun (u, a, v) -> Printf.sprintf "%d-%s->%d" u a v) (DG.edges g)))
    (TR.arity s)
    (String.concat ";"
       (List.map
          (fun t -> String.concat "," (List.map string_of_int t))
          (TR.to_list s)))

let hom_agrees (g, s) =
  let n = DG.size g in
  let brute = List.filter (ref_is_hom g) (all_maps n) in
  let sorted l = List.sort compare (List.map Array.to_list l) in
  let violates h =
    TR.exists (fun tup -> not (TR.mem s (List.map (fun p -> h.(p)) tup))) s
  in
  Hom.count g = List.length brute
  && sorted (Hom.all g) = sorted brute
  &&
  match Hom.find_violating g s with
  | Some h -> ref_is_hom g h && violates h
  | None -> not (List.exists violates brute)

let hom_outcome_repr result nodes =
  let r =
    match result with
    | `Preserved -> "preserved"
    | `Budget_exhausted -> "exhausted"
    | `Violation (h, tup) ->
        Printf.sprintf "violation[%s|%s]"
          (String.concat "," (List.map string_of_int (Array.to_list h)))
          (String.concat "," (List.map string_of_int tup))
  in
  Printf.sprintf "%s nodes=%d" r nodes

let hom_reference_props =
  [
    QCheck.Test.make ~name:"Hom agrees with brute-force enumeration"
      ~count:200 ~long_factor:20
      (QCheck.make ~print:print_hom_case gen_hom_case)
      hom_agrees;
  ]

(* ---------- Hom: word-row arc consistency vs the table oracle ---------- *)

(* Graphs of 1–16 nodes, and one in five of 60–70 nodes so domains span
   two words; 1–3 labels with several labels on one ordered pair, edges
   both ways and self-loops, and 1–4 data values.  Larger graphs are
   sparser, so the searches below stay small.  The target is a random
   relation of arity 1 or 2 over reachable-or-not pairs. *)
let gen_oracle_case st =
  let n =
    if Random.State.int st 5 = 0 then 60 + Random.State.int st 11
    else 1 + Random.State.int st 16
  in
  let delta = 1 + Random.State.int st 4 in
  let num_labels = 1 + Random.State.int st 3 in
  let labels = List.filteri (fun i _ -> i < num_labels) [ "a"; "b"; "c" ] in
  let values = Array.init n (fun _ -> dv (Random.State.int st delta)) in
  let density = Random.State.float st (Float.min 0.6 (3. /. float_of_int n)) in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      List.iter
        (fun a ->
          if Random.State.float st 1. < density then edges := (u, a, v) :: !edges)
        labels
    done
  done;
  let g = DG.build ~values ~edges:!edges in
  let arity = 1 + Random.State.int st 2 in
  let target =
    TR.of_list ~universe:n ~arity
      (List.init (1 + Random.State.int st 4) (fun _ ->
           List.init arity (fun _ -> Random.State.int st n)))
  in
  (g, target)

let hom_oracle_props =
  let arb = QCheck.make ~print:print_hom_case gen_oracle_case in
  [
    QCheck.Test.make ~name:"root domains equal the table AC-3's" ~count:300
      ~long_factor:20 arb (fun (g, _) ->
        Hom.root_domains g = Hom_oracle.root_domains g);
    QCheck.Test.make
      ~name:"violation search equals the table search (nodes, hom, tuple)"
      ~count:200 ~long_factor:20 arb (fun (g, s) ->
        List.for_all
          (fun fuel ->
            let budget () = Option.map (fun f -> Engine.Budget.create ~fuel:f ()) fuel in
            let o = Hom.search_violating ?budget:(budget ()) g s in
            hom_outcome_repr o.result o.nodes_explored
            =
            let result, nodes = Hom_oracle.search_violating ?budget:(budget ()) g s in
            hom_outcome_repr result nodes)
          [ Some 3; Some 40; Some 400 ]
        && List.map Array.to_list (Hom.all ~limit:40 g)
           = List.map Array.to_list (Hom_oracle.all ~limit:40 g));
  ]

(* ---------- Rem: packed evaluator vs generic reference ---------- *)

let rand_cond st =
  match Random.State.int st 7 with
  | 0 -> Condition.True
  | 1 -> Condition.Eq (Random.State.int st 2)
  | 2 -> Condition.Neq (Random.State.int st 2)
  | 3 -> Condition.And (Condition.Eq 0, Condition.Neq 1)
  | 4 -> Condition.Or (Condition.Eq 1, Condition.Eq 0)
  | 5 -> Condition.Not (Condition.Eq (Random.State.int st 2))
  | _ -> Condition.Neq 0

let rec rand_rem st depth =
  if depth = 0 then
    if Random.State.bool st then Rem.Eps
    else Rem.Letter (if Random.State.bool st then "a" else "b")
  else
    match Random.State.int st 6 with
    | 0 -> Rem.Union (rand_rem st (depth - 1), rand_rem st (depth - 1))
    | 1 -> Rem.Concat (rand_rem st (depth - 1), rand_rem st (depth - 1))
    | 2 -> Rem.Plus (rand_rem st (depth - 1))
    | 3 -> Rem.Test (rand_rem st (depth - 1), rand_cond st)
    | 4 -> Rem.Bind ([ Random.State.int st 2 ], rand_rem st (depth - 1))
    | _ -> rand_rem st 0

let rand_path st =
  let m = Random.State.int st 4 in
  DP.make
    ~values:(Array.init (m + 1) (fun _ -> dv (Random.State.int st 3)))
    ~labels:(Array.init m (fun _ -> if Random.State.bool st then "a" else "b"))

let assignments_as_ints l =
  List.map
    (fun sigma -> Array.to_list sigma |> List.map (Option.map DV.to_int))
    l
  |> List.sort compare

let test_rem_packed_agrees_with_generic () =
  let st = Random.State.make [| 2718 |] in
  for _ = 1 to 300 do
    let e = rand_rem st (1 + Random.State.int st 3) in
    let w = rand_path st in
    let k = max 2 (Rem.registers e) in
    let sigma =
      Array.init k (fun _ ->
          if Random.State.bool st then None
          else Some (dv (Random.State.int st 3)))
    in
    let packed = Rem.final_assignments ~k e w sigma in
    let generic = Rem.final_assignments_generic ~k e w sigma in
    Alcotest.(check (list (list (option int))))
      (Format.asprintf "final_assignments of %a on %s" Rem.pp e
         (DP.to_string w))
      (assignments_as_ints generic)
      (assignments_as_ints packed)
  done

let () =
  Alcotest.run "bitset"
    [
      ( "bitset",
        [
          Alcotest.test_case "empty/full at word boundaries" `Quick
            test_bitset_empty_full;
          Alcotest.test_case "add/remove at bounds" `Quick
            test_bitset_add_remove_bounds;
          Alcotest.test_case "iter tolerates removal" `Quick
            test_bitset_iter_remove_current;
          Alcotest.test_case "ops agree with list reference" `Quick
            test_bitset_ops_agree;
        ] );
      ( "bitmatrix",
        [
          Alcotest.test_case "get/set/row" `Quick test_bitmatrix_basics;
          Alcotest.test_case "transpose" `Quick test_bitmatrix_transpose;
          Alcotest.test_case "closure vs Floyd-Warshall" `Quick
            test_bitmatrix_closure;
        ] );
      ( "agreement",
        [
          Alcotest.test_case "graph accessors vs references" `Quick
            test_graph_accessors_agree;
          Alcotest.test_case "Hom vs brute force" `Quick
            test_hom_agrees_with_brute_force;
          Alcotest.test_case "Rem packed vs generic" `Quick
            test_rem_packed_agrees_with_generic;
        ] );
      ( "hom reference",
        List.map QCheck_alcotest.to_alcotest hom_reference_props );
      ( "hom oracle", List.map QCheck_alcotest.to_alcotest hom_oracle_props );
    ]
