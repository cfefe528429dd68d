(* Tests for binary and tuple relations, including QCheck properties of
   the Definition 26 operators. *)

module Rel = Datagraph.Relation
module TRel = Datagraph.Tuple_relation
module DV = Datagraph.Data_value

let dv = DV.of_int

(* ---------- unit tests ---------- *)

let test_basics () =
  let r = Rel.of_list 4 [ (0, 1); (1, 2); (3, 3) ] in
  Alcotest.(check int) "cardinal" 3 (Rel.cardinal r);
  Alcotest.(check bool) "mem" true (Rel.mem r 1 2);
  Alcotest.(check bool) "not mem" false (Rel.mem r 2 1);
  Alcotest.(check (list (pair int int)))
    "to_list sorted" [ (0, 1); (1, 2); (3, 3) ] (Rel.to_list r);
  let r' = Rel.remove (Rel.add r 2 0) 0 1 in
  Alcotest.(check bool) "added" true (Rel.mem r' 2 0);
  Alcotest.(check bool) "removed" false (Rel.mem r' 0 1);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Relation: node out of range") (fun () ->
      ignore (Rel.mem r 0 4))

let test_set_ops () =
  let r1 = Rel.of_list 3 [ (0, 1); (1, 2) ] in
  let r2 = Rel.of_list 3 [ (1, 2); (2, 0) ] in
  Alcotest.(check (list (pair int int)))
    "union" [ (0, 1); (1, 2); (2, 0) ]
    (Rel.to_list (Rel.union r1 r2));
  Alcotest.(check (list (pair int int)))
    "inter" [ (1, 2) ]
    (Rel.to_list (Rel.inter r1 r2));
  Alcotest.(check (list (pair int int)))
    "diff" [ (0, 1) ]
    (Rel.to_list (Rel.diff r1 r2));
  Alcotest.(check bool) "subset" true (Rel.subset (Rel.inter r1 r2) r1);
  Alcotest.(check bool) "not subset" false (Rel.subset r1 r2)

let test_compose () =
  let r1 = Rel.of_list 4 [ (0, 1); (1, 2) ] in
  let r2 = Rel.of_list 4 [ (1, 3); (2, 0) ] in
  Alcotest.(check (list (pair int int)))
    "compose" [ (0, 3); (1, 0) ]
    (Rel.to_list (Rel.compose r1 r2));
  (* Identity is neutral. *)
  Alcotest.(check bool) "left unit" true
    (Rel.equal (Rel.compose (Rel.identity 4) r1) r1);
  Alcotest.(check bool) "right unit" true
    (Rel.equal (Rel.compose r1 (Rel.identity 4)) r1)

let test_restrict () =
  (* Values: 0 -> a, 1 -> b, 2 -> a *)
  let value = function 0 -> dv 10 | 1 -> dv 11 | _ -> dv 10 in
  let r = Rel.full 3 in
  let eq = Rel.restrict_eq ~value r in
  let neq = Rel.restrict_neq ~value r in
  Alcotest.(check int) "eq pairs" 5 (Rel.cardinal eq);
  Alcotest.(check bool) "eq mem" true (Rel.mem eq 0 2);
  Alcotest.(check bool) "eq self" true (Rel.mem eq 1 1);
  Alcotest.(check int) "partition" 9 (Rel.cardinal (Rel.union eq neq));
  Alcotest.(check bool) "disjoint" true (Rel.is_empty (Rel.inter eq neq))

let test_transitive_closure () =
  let r = Rel.of_list 4 [ (0, 1); (1, 2); (2, 3) ] in
  let tc = Rel.transitive_closure r in
  Alcotest.(check int) "closure size" 6 (Rel.cardinal tc);
  Alcotest.(check bool) "long hop" true (Rel.mem tc 0 3);
  Alcotest.(check bool) "not reflexive" false (Rel.mem tc 0 0);
  (* Cycle: closure contains self-loops. *)
  let c = Rel.of_list 2 [ (0, 1); (1, 0) ] in
  Alcotest.(check bool) "cycle self" true
    (Rel.mem (Rel.transitive_closure c) 0 0)

let test_edge_relations () =
  let g = Datagraph.Graph_gen.fig1 () in
  let ra = Rel.edge_relation g "a" in
  Alcotest.(check int) "a edges" 12 (Rel.cardinal ra);
  Alcotest.(check bool) "absent label empty" true
    (Rel.is_empty (Rel.edge_relation g "b"));
  Alcotest.(check bool) "step = union" true
    (Rel.equal ra (Rel.step_relation g))

let test_map () =
  let r = Rel.of_list 3 [ (0, 1); (1, 2) ] in
  let m = Rel.map (fun v -> (v + 1) mod 3) r in
  Alcotest.(check (list (pair int int))) "mapped" [ (1, 2); (2, 0) ] (Rel.to_list m)

(* ---------- tuple relations ---------- *)

let test_tuple_basics () =
  let r = TRel.of_list ~universe:4 ~arity:3 [ [ 0; 1; 2 ]; [ 1; 1; 1 ] ] in
  Alcotest.(check int) "cardinal" 2 (TRel.cardinal r);
  Alcotest.(check bool) "mem" true (TRel.mem r [ 1; 1; 1 ]);
  Alcotest.check_raises "wrong arity"
    (Invalid_argument "Tuple_relation: wrong arity") (fun () ->
      ignore (TRel.mem r [ 0; 1 ]));
  let m = TRel.map (fun v -> (v + 1) mod 4) r in
  Alcotest.(check bool) "mapped" true (TRel.mem m [ 1; 2; 3 ])

let test_tuple_binary_roundtrip () =
  let b = Rel.of_list 5 [ (0, 4); (2, 2) ] in
  let t = TRel.of_binary b in
  Alcotest.(check int) "arity" 2 (TRel.arity t);
  Alcotest.(check bool) "roundtrip" true (Rel.equal b (TRel.to_binary t))

(* ---------- QCheck properties ---------- *)

let rel_gen n =
  QCheck.Gen.(
    list_size (int_bound (n * 2))
      (pair (int_bound (n - 1)) (int_bound (n - 1)))
    |> map (fun pairs -> Rel.of_list n pairs))

let arb_rel n =
  QCheck.make ~print:(fun r -> Format.asprintf "%a" Rel.pp_raw r) (rel_gen n)

let prop_compose_assoc =
  QCheck.Test.make ~name:"compose associative" ~count:200
    (QCheck.triple (arb_rel 5) (arb_rel 5) (arb_rel 5))
    (fun (a, b, c) ->
      Rel.equal
        (Rel.compose a (Rel.compose b c))
        (Rel.compose (Rel.compose a b) c))

let prop_compose_distributes =
  QCheck.Test.make ~name:"compose distributes over union" ~count:200
    (QCheck.triple (arb_rel 5) (arb_rel 5) (arb_rel 5))
    (fun (a, b, c) ->
      Rel.equal
        (Rel.compose a (Rel.union b c))
        (Rel.union (Rel.compose a b) (Rel.compose a c)))

let prop_union_commutes =
  QCheck.Test.make ~name:"union commutative" ~count:200
    (QCheck.pair (arb_rel 6) (arb_rel 6))
    (fun (a, b) -> Rel.equal (Rel.union a b) (Rel.union b a))

let prop_restrict_partition =
  QCheck.Test.make ~name:"=/≠ restrictions partition" ~count:200 (arb_rel 6)
    (fun r ->
      let value v = dv (v mod 3) in
      let eq = Rel.restrict_eq ~value r and neq = Rel.restrict_neq ~value r in
      Rel.equal (Rel.union eq neq) r && Rel.is_empty (Rel.inter eq neq))

let prop_closure_idempotent =
  QCheck.Test.make ~name:"transitive closure idempotent" ~count:100
    (arb_rel 5) (fun r ->
      let tc = Rel.transitive_closure r in
      Rel.equal tc (Rel.transitive_closure tc))

let prop_closure_transitive =
  QCheck.Test.make ~name:"closure is transitive" ~count:100 (arb_rel 5)
    (fun r ->
      let tc = Rel.transitive_closure r in
      Rel.subset (Rel.compose tc tc) tc)

let prop_hash_consistent =
  QCheck.Test.make ~name:"equal implies same hash" ~count:200
    (QCheck.pair (arb_rel 4) (arb_rel 4))
    (fun (a, b) -> (not (Rel.equal a b)) || Rel.hash a = Rel.hash b)

(* ---------- reference agreement ---------- *)

module Ref = Relation_oracle

(* A case: a universe, two pair lists, a value modulus for the
   restrictions and a multiplier for [map].  Universes are biased to the
   word and byte edges (62/63/64, 126/127) and the second list is often
   the first with a few nearby pairs of one row toggled, so [compare]
   has to decide inside a byte — often one of the bytes 56–63 and
   120–127 that straddle two words. *)
let gen_case =
  QCheck.Gen.(
    let edge = oneofl [ 0; 1; 7; 8; 9; 62; 63; 64; 65; 126; 127; 128; 130 ] in
    oneof [ edge; int_range 0 130 ] >>= fun n ->
    let node = int_bound (max 0 (n - 1)) in
    let sparse = list_size (int_bound (3 * n)) (pair node node) in
    let dense =
      float_range 0.3 0.9 >>= fun p ->
      list_repeat n (list_repeat n (float_bound_inclusive 1.)) >|= fun rows ->
      List.concat
        (List.mapi
           (fun u row ->
             List.concat (List.mapi (fun v x -> if x < p then [ (u, v) ] else []) row))
           rows)
    in
    let edges =
      let col = oneofl [ 0; 55; 56; 61; 62; 63; 64; 69; 70; 125; 126; 127; 129 ] in
      list_size (int_bound (2 * n)) (pair node (map (fun v -> min v (n - 1)) col))
    in
    let rel = if n = 0 then return [] else oneof [ sparse; dense; edges ] in
    rel >>= fun a ->
    let toggles =
      if n = 0 then return []
      else
        node >>= fun u ->
        oneof [ node; oneofl [ 57; 60; 63; 121; 124; 127 ] ] >>= fun v ->
        let v = min v (n - 1) in
        list_size (int_range 1 3) (int_range (-8) 8) >|= fun ds ->
        (u, v) :: List.map (fun d -> (u, max 0 (min (n - 1) (v + d)))) ds
    in
    (* Bit 63 or 127 with a lower bit of the same byte: the first
       differing byte straddles two words. *)
    let straddle =
      node >>= fun u ->
      oneofl (List.filter (fun v -> v < n) [ 63; 127 ]) >>= fun hi ->
      int_range 1 7 >|= fun d -> [ (u, hi); (u, hi - d) ]
    in
    let toggles = if n > 63 then oneof [ toggles; straddle ] else toggles in
    let toggled =
      toggles >|= fun ts ->
      List.fold_left
        (fun l p -> if List.mem p l then List.filter (( <> ) p) l else p :: l)
        a ts
    in
    oneof [ return a; toggled; toggled; rel ] >>= fun b ->
    int_range 1 4 >>= fun k ->
    int_range 1 5 >|= fun m -> (n, a, b, k, m))

let print_case (n, a, b, k, m) =
  let pl l = String.concat ";" (List.map (fun (u, v) -> Printf.sprintf "%d,%d" u v) l) in
  Printf.sprintf "n=%d k=%d m=%d\na=[%s]\nb=[%s]" n k m (pl a) (pl b)

(* The result of [f], or the exception it raised. *)
let attempt f = match f () with x -> Ok x | exception e -> Error e

let prop_reference =
  QCheck.Test.make ~count:300 ~long_factor:30
    ~name:"relation = byte-matrix reference"
    (QCheck.make ~print:print_case gen_case)
    (fun (n, pa, pb, k, m) ->
      let agree what x y =
        if x <> y then QCheck.Test.fail_reportf "%s disagrees with the reference" what
      in
      let a = Rel.of_list n pa and b = Rel.of_list n pb in
      let oa = Ref.of_list n pa and ob = Ref.of_list n pb in
      let same what r o = agree what (Rel.to_list r) (Ref.to_list o) in
      let seq it r =
        let l = ref [] in
        it (fun u v -> l := (u, v) :: !l) r;
        !l
      in
      same "of_list a" a oa;
      same "of_list b" b ob;
      agree "iter" (seq Rel.iter a) (seq Ref.iter oa);
      agree "fold" (Rel.fold (fun u v l -> (u, v) :: l) a [])
        (Ref.fold (fun u v l -> (u, v) :: l) oa []);
      agree "cardinal" (Rel.cardinal a) (Ref.cardinal oa);
      agree "is_empty" (Rel.is_empty a) (Ref.is_empty oa);
      agree "equal" (Rel.equal a b) (Ref.equal oa ob);
      agree "subset a b" (Rel.subset a b) (Ref.subset oa ob);
      agree "subset b a" (Rel.subset b a) (Ref.subset ob oa);
      agree "compare a b" (compare (Rel.compare a b) 0) (compare (Ref.compare oa ob) 0);
      agree "compare b a" (compare (Rel.compare b a) 0) (compare (Ref.compare ob oa) 0);
      agree "compare a a" (Rel.compare a a) 0;
      (* Probes on and just off the universe, for the exceptions too. *)
      let probes =
        [ (0, 0); (n - 1, n - 1); (n / 2, n - 1); (n - 1, 0); (-1, 0); (0, n); (n, n) ]
        @ List.filteri (fun i _ -> i < 3) pb
      in
      List.iter
        (fun (u, v) ->
          agree "mem" (attempt (fun () -> Rel.mem a u v)) (attempt (fun () -> Ref.mem oa u v));
          agree "add"
            (attempt (fun () -> Rel.to_list (Rel.add a u v)))
            (attempt (fun () -> Ref.to_list (Ref.add oa u v)));
          agree "remove"
            (attempt (fun () -> Rel.to_list (Rel.remove a u v)))
            (attempt (fun () -> Ref.to_list (Ref.remove oa u v)));
          agree "of_list out of range"
            (attempt (fun () -> Rel.to_list (Rel.of_list n ((u, v) :: pa))))
            (attempt (fun () -> Ref.to_list (Ref.of_list n ((u, v) :: pa)))))
        probes;
      let binop what f g = same what (f a b) (g oa ob) in
      binop "union" Rel.union Ref.union;
      binop "inter" Rel.inter Ref.inter;
      binop "diff" Rel.diff Ref.diff;
      binop "compose a b" Rel.compose Ref.compose;
      binop "compose b a" (fun a b -> Rel.compose b a) (fun a b -> Ref.compose b a);
      (* Universe mismatches raise the same exceptions. *)
      let c = Rel.empty (n + 1) and oc = Ref.empty (n + 1) in
      let mismatch what f g =
        agree what
          (attempt (fun () -> Rel.to_list (f a c)))
          (attempt (fun () -> Ref.to_list (g oa oc)))
      in
      mismatch "union mismatch" Rel.union Ref.union;
      mismatch "inter mismatch" Rel.inter Ref.inter;
      mismatch "diff mismatch" Rel.diff Ref.diff;
      mismatch "compose mismatch" Rel.compose Ref.compose;
      (* [compose_into] overwrites whatever its scratch held, and a [copy]
         keeps its value when the scratch is reused. *)
      let into = Rel.empty n in
      Rel.compose_into ~into b b;
      Rel.compose_into ~into a b;
      same "compose_into a b" into (Ref.compose oa ob);
      let kept = Rel.copy into in
      Rel.compose_into ~into b a;
      same "compose_into b a" into (Ref.compose ob oa);
      same "copy of a reused scratch" kept (Ref.compose oa ob);
      same "copy" (Rel.copy a) oa;
      agree "compose_into mismatch"
        (attempt (fun () -> Rel.compose_into ~into:c a b))
        (attempt (fun () -> ignore (Ref.compose oa oc)));
      let a' = Rel.copy a in
      agree "compose_into aliasing"
        (attempt (fun () -> Rel.compose_into ~into:a' a' b))
        (if n = 0 then Ok ()
         else Error (Invalid_argument "Relation.compose_into: into aliases an operand"));
      agree "subset mismatch"
        (attempt (fun () -> Rel.subset a c))
        (attempt (fun () -> Ref.subset oa oc));
      let value v = dv (v mod k) in
      same "restrict_eq" (Rel.restrict_eq ~value a) (Ref.restrict_eq ~value oa);
      same "restrict_neq" (Rel.restrict_neq ~value a) (Ref.restrict_neq ~value oa);
      let p u v = ((u * 7) + (v * 3)) mod (k + 1) = 0 in
      same "filter" (Rel.filter p a) (Ref.filter p oa);
      if n <= 70 then
        same "transitive_closure" (Rel.transitive_closure a) (Ref.transitive_closure oa);
      let h v = (v * m) mod max 1 n in
      same "map" (Rel.map h a) (Ref.map h oa);
      let off v = v + m - 1 in
      agree "map out of range"
        (attempt (fun () -> Rel.to_list (Rel.map off a)))
        (attempt (fun () -> Ref.to_list (Ref.map off oa)));
      (* [hash] agrees with [equal]: a rebuild hashes alike, and toggling
         one pair — the last row's last word included — changes it. *)
      agree "hash of a rebuild" (Rel.hash (Rel.of_list n (List.rev pa))) (Rel.hash a);
      if Rel.equal a b then agree "hash of equal" (Rel.hash a) (Rel.hash b);
      if n > 0 then
        List.iter
          (fun (u, v) ->
            let t = if Rel.mem a u v then Rel.remove a u v else Rel.add a u v in
            if Rel.hash t = Rel.hash a then
              QCheck.Test.fail_reportf "hash ignores pair (%d,%d)" u v)
          [ (n - 1, n - 1); (n - 1, 0); (0, n - 1); (n / 2, n / 2) ];
      true)

let () =
  Alcotest.run "relation"
    [
      ( "binary",
        [
          Alcotest.test_case "basics" `Quick test_basics;
          Alcotest.test_case "set ops" `Quick test_set_ops;
          Alcotest.test_case "compose" `Quick test_compose;
          Alcotest.test_case "restrict" `Quick test_restrict;
          Alcotest.test_case "transitive closure" `Quick test_transitive_closure;
          Alcotest.test_case "edge relations" `Quick test_edge_relations;
          Alcotest.test_case "map" `Quick test_map;
        ] );
      ( "tuple",
        [
          Alcotest.test_case "basics" `Quick test_tuple_basics;
          Alcotest.test_case "binary roundtrip" `Quick test_tuple_binary_roundtrip;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_compose_assoc;
            prop_compose_distributes;
            prop_union_commutes;
            prop_restrict_partition;
            prop_closure_idempotent;
            prop_closure_transitive;
            prop_hash_consistent;
          ] );
      ("reference", [ QCheck_alcotest.to_alcotest prop_reference ]);
    ]
