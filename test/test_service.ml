(* The service layer: JSON parsing, the LRU store, content-addressed
   instance keys (invariant under node renaming and value automorphisms,
   collision-free over random instances), the cross-request verdict
   cache (hit/miss, revalidation, Unknown never cached), the admission
   gate, and the server end-to-end over a Unix socket. *)

module DG = Datagraph.Data_graph
module TR = Datagraph.Tuple_relation
module Gen = Datagraph.Graph_gen
module Io = Datagraph.Graph_io
module Auto = Datagraph.Automorphism
module Outcome = Engine.Outcome
module Json = Service.Json
module Lru = Service.Lru
module Content_hash = Service.Content_hash
module Cache = Service.Cache
module Tier = Service.Tier
module Wire = Service.Wire
module Server = Service.Server
module Client = Service.Client

let () = Definability.Deciders.init ()

let fig1 = Gen.fig1 ()
let s2 = TR.of_binary (Gen.fig1_s2 fig1)
let s3 = TR.of_binary (Gen.fig1_s3 fig1)

let verdict_repr (o : Outcome.t) =
  match o.verdict with
  | Outcome.Definable c ->
      Printf.sprintf "definable[%s]" (Outcome.certificate_to_string c)
  | Outcome.Not_definable _ -> "not_definable"
  | Outcome.Unknown r -> Printf.sprintf "unknown[%s]" (Outcome.reason_to_string r)

(* ---------- Json ---------- *)

let test_json_parse () =
  match Json.parse "  {\"a\":[1,2,3],\"b\":\"x\\ny\",\"c\":true,\"d\":null,\"e\":-1.5e2} " with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok j ->
      let ints =
        Option.bind (Json.member "a" j) Json.to_list
        |> Option.map (List.filter_map Json.to_int)
      in
      Alcotest.(check (option (list int))) "a" (Some [ 1; 2; 3 ]) ints;
      Alcotest.(check (option string)) "b" (Some "x\ny")
        (Option.bind (Json.member "b" j) Json.to_str);
      Alcotest.(check (option bool)) "c" (Some true)
        (Option.bind (Json.member "c" j) Json.to_bool);
      Alcotest.(check bool) "d" true (Json.member "d" j = Some Json.Null);
      Alcotest.(check (option (float 1e-9))) "e" (Some (-150.))
        (Option.bind (Json.member "e" j) Json.to_float)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.String "a\"b\\c\n\t\x01");
        ("l", Json.List [ Json.Number 0.; Json.Bool false; Json.Null ]);
        ("o", Json.Obj [ ("k", Json.Number 42.) ]);
      ]
  in
  Alcotest.(check bool) "parse ∘ to_string = id" true
    (Json.parse (Json.to_string v) = Ok v)

let test_json_unicode () =
  Alcotest.(check bool) "BMP escape" true
    (Json.parse "\"\\u00e9\"" = Ok (Json.String "\xc3\xa9"));
  Alcotest.(check bool) "surrogate pair" true
    (Json.parse "\"\\ud83d\\ude00\"" = Ok (Json.String "\xf0\x9f\x98\x80"))

let test_json_errors () =
  List.iter
    (fun doc ->
      match Json.parse doc with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed JSON: %s" doc)
    [ ""; "{"; "[1 2]"; "\"abc"; "nul"; "{}x"; "{\"a\"}"; "[1,]" ]

let test_json_to_int () =
  Alcotest.(check (option int)) "integral" (Some 2) (Json.to_int (Json.Number 2.));
  Alcotest.(check (option int)) "fractional" None (Json.to_int (Json.Number 2.5))

(* ---------- Lru ---------- *)

let test_lru () =
  let t = Lru.create ~capacity:2 in
  Lru.put t "a" 1;
  Lru.put t "b" 2;
  Alcotest.(check (option int)) "find refreshes" (Some 1) (Lru.find t "a");
  Lru.put t "c" 3;
  (* [b] was least recently used (a was refreshed by the find). *)
  Alcotest.(check (option int)) "b evicted" None (Lru.find t "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Lru.find t "a");
  Alcotest.(check (option int)) "c kept" (Some 3) (Lru.find t "c");
  Alcotest.(check int) "evictions" 1 (Lru.evictions t);
  Lru.remove t "a";
  Alcotest.(check (option int)) "removed" None (Lru.find t "a");
  Alcotest.(check int) "length" 1 (Lru.length t);
  Lru.clear t;
  Alcotest.(check int) "cleared" 0 (Lru.length t)

(* The LRU as it stood before recency became a linked list, kept as an
   oracle: a stamp per entry, eviction by a scan for the minimum stamp.
   The store must agree with it on every observable — what [find]
   returns, [hot] order, [length], [hits], [misses] and [evictions] —
   after every operation of a random sequence. *)
module Lru_reference = struct
  type 'a entry = { mutable stamp : int; value : 'a }

  type 'a t = {
    capacity : int;
    table : (string, 'a entry) Hashtbl.t;
    mutable tick : int;
    mutable evicted : int;
    mutable hit : int;
    mutable miss : int;
  }

  let create ~capacity =
    { capacity; table = Hashtbl.create 16; tick = 0; evicted = 0; hit = 0; miss = 0 }

  let touch t e =
    t.tick <- t.tick + 1;
    e.stamp <- t.tick

  let find t k =
    match Hashtbl.find_opt t.table k with
    | None ->
        t.miss <- t.miss + 1;
        None
    | Some e ->
        touch t e;
        t.hit <- t.hit + 1;
        Some e.value

  let evict_lru t =
    let victim =
      Hashtbl.fold
        (fun k e acc ->
          match acc with
          | Some (_, stamp) when stamp <= e.stamp -> acc
          | _ -> Some (k, e.stamp))
        t.table None
    in
    match victim with
    | Some (k, _) ->
        Hashtbl.remove t.table k;
        t.evicted <- t.evicted + 1
    | None -> ()

  let put t k v =
    if Hashtbl.mem t.table k then Hashtbl.remove t.table k
    else if Hashtbl.length t.table >= t.capacity then evict_lru t;
    let e = { stamp = 0; value = v } in
    touch t e;
    Hashtbl.add t.table k e

  let remove t k = Hashtbl.remove t.table k

  let hot t n =
    let all = Hashtbl.fold (fun k e acc -> (e.stamp, k, e.value) :: acc) t.table [] in
    let sorted = List.sort (fun (a, _, _) (b, _, _) -> compare b a) all in
    List.filteri (fun i _ -> i < n) sorted |> List.map (fun (_, k, v) -> (k, v))

  let clear t =
    Hashtbl.reset t.table;
    t.tick <- 0
end

type lru_op =
  | Find of string
  | Put of string * int
  | Remove of string
  | Hot of int
  | Clear

let show_lru_op = function
  | Find k -> "find " ^ k
  | Put (k, v) -> Printf.sprintf "put %s %d" k v
  | Remove k -> "remove " ^ k
  | Hot n -> Printf.sprintf "hot %d" n
  | Clear -> "clear"

let gen_lru_case =
  let open QCheck.Gen in
  let key = map (fun i -> String.make 1 (Char.chr (Char.code 'a' + i))) (int_bound 5) in
  let op =
    frequency
      [
        (5, map (fun k -> Find k) key);
        (6, map2 (fun k v -> Put (k, v)) key (int_bound 99));
        (2, map (fun k -> Remove k) key);
        (1, map (fun n -> Hot n) (int_range (-1) 7));
        (1, return Clear);
      ]
  in
  pair (int_range 1 4) (list_size (int_range 0 60) op)

let lru_agrees (capacity, ops) =
  let t = Lru.create ~capacity and r = Lru_reference.create ~capacity in
  let observe_t () = (Lru.length t, Lru.hits t, Lru.misses t, Lru.evictions t, Lru.hot t 8)
  and observe_r () =
    ( Hashtbl.length r.Lru_reference.table, r.hit, r.miss, r.evicted,
      Lru_reference.hot r 8 )
  in
  List.for_all
    (fun op ->
      let same_result =
        match op with
        | Find k -> Lru.find t k = Lru_reference.find r k
        | Put (k, v) ->
            Lru.put t k v;
            Lru_reference.put r k v;
            true
        | Remove k ->
            Lru.remove t k;
            Lru_reference.remove r k;
            true
        | Hot n -> Lru.hot t n = Lru_reference.hot r n
        | Clear ->
            Lru.clear t;
            Lru_reference.clear r;
            true
      in
      same_result && observe_t () = observe_r ())
    ops

let lru_model_props =
  [
    QCheck.Test.make ~name:"random operation sequences agree with the reference"
      ~count:1000 ~long_factor:20
      (QCheck.make
         ~print:(fun (c, ops) ->
           Printf.sprintf "capacity %d: %s" c
             (String.concat "; " (List.map show_lru_op ops)))
         gen_lru_case)
      lru_agrees;
  ]

(* ---------- Content_hash ---------- *)

let rename_nodes g =
  DG.make
    ~nodes:
      (List.map (fun u -> ("renamed" ^ string_of_int u, DG.value g u)) (DG.nodes g))
    ~edges:
      (List.map
         (fun (u, a, v) ->
           ("renamed" ^ string_of_int u, a, "renamed" ^ string_of_int v))
         (DG.edges g))

let key = Content_hash.instance_key ~lang:"rem" ~k:1

let test_hash_name_invariance () =
  Alcotest.(check string) "node names are not observable" (key fig1 s2)
    (key (rename_nodes fig1) s2)

let test_hash_automorphism_invariance () =
  let base = key fig1 s2 in
  List.iter
    (fun pi ->
      Alcotest.(check string) "value automorphism preserves the key" base
        (key (Auto.apply_graph pi fig1) s2))
    (Auto.permutations (DG.domain fig1))

let test_hash_edge_order_invariance () =
  let reordered =
    DG.make
      ~nodes:(List.map (fun u -> (DG.name fig1 u, DG.value fig1 u)) (DG.nodes fig1))
      ~edges:
        (List.rev
           (List.map
              (fun (u, a, v) -> (DG.name fig1 u, a, DG.name fig1 v))
              (DG.edges fig1)))
  in
  Alcotest.(check string) "edge order is not observable" (key fig1 s2)
    (key reordered s2)

let test_hash_sensitivity () =
  let k1 = key fig1 s2 in
  Alcotest.(check bool) "relation matters" true (k1 <> key fig1 s3);
  Alcotest.(check bool) "lang matters" true
    (k1 <> Content_hash.instance_key ~lang:"ree" ~k:1 fig1 s2);
  Alcotest.(check bool) "k matters" true
    (k1 <> Content_hash.instance_key ~lang:"rem" ~k:2 fig1 s2);
  (* Collapsing the value partition (all nodes one value) must change
     the key: the partition is the observable content of the values. *)
  Alcotest.(check bool) "value partition matters" true
    (k1 <> key (DG.constant_values fig1) s2)

let test_hash_no_collisions () =
  (* 10k randomized instances; equal keys must mean equal canonical
     bytes (i.e. genuinely the same problem, which duplicate seeds can
     legitimately produce). *)
  let tbl = Hashtbl.create 4096 in
  let samples = ref 0 in
  for seed = 0 to 4_999 do
    let g = Gen.random ~seed ~n:6 ~delta:3 ~labels:[ "a"; "b" ] ~density:0.25 () in
    List.iter
      (fun count ->
        let s = TR.of_binary (Gen.random_reachable_relation ~seed g ~count) in
        let bytes = Content_hash.instance_bytes ~lang:"rem" ~k:1 g s in
        let k = key g s in
        incr samples;
        match Hashtbl.find_opt tbl k with
        | Some bytes' when bytes' <> bytes ->
            Alcotest.failf "key collision at seed %d" seed
        | Some _ -> ()
        | None -> Hashtbl.add tbl k bytes)
      [ 1; 3 ]
  done;
  Alcotest.(check int) "sample count" 10_000 !samples

(* Durable stores and the router's ring placement are keyed by these
   digests, so the canonical bytes must never drift: the expected values
   are the digests every earlier release produced. *)
let test_hash_golden () =
  let pins =
    [
      ("instance rem S2", Content_hash.instance_key ~lang:"rem" ~k:1 fig1 s2,
       "f4b3d64c71d1ba7c3812468ab3ceee12");
      ("instance rem S3", Content_hash.instance_key ~lang:"rem" ~k:1 fig1 s3,
       "44540f188693ff9508ea912bc5cceb7d");
      ("instance ree S2", Content_hash.instance_key ~lang:"ree" ~k:1 fig1 s2,
       "a3e1638daba10b6afe2348cb3194fe24");
      ("instance ree S3", Content_hash.instance_key ~lang:"ree" ~k:1 fig1 s3,
       "37a91d08c0ab57be18d25feba85a50ca");
      ("graph fig1", Content_hash.graph_key fig1,
       "a0061797157f1d782a80a273864a3491");
      ( "keys rem S2",
        (let gk, ik = Content_hash.keys ~lang:"rem" ~k:1 fig1 s2 in
         gk ^ "/" ^ ik),
        "a0061797157f1d782a80a273864a3491/f4b3d64c71d1ba7c3812468ab3ceee12" );
      ( "chain",
        Content_hash.chain_key
          ~parent:(Content_hash.instance_key ~lang:"rem" ~k:1 fig1 s2)
          (Engine.Delta.Add_edge (0, "a", 1)),
        "ff52b4f2de4de33fe25f93944838a7ce" );
    ]
  in
  List.iter (fun (what, got, want) -> Alcotest.(check string) what want got) pins;
  (* The 10k instances of [test_hash_no_collisions], keys in order. *)
  let b = Buffer.create (10_000 * 33) in
  for seed = 0 to 4_999 do
    let g = Gen.random ~seed ~n:6 ~delta:3 ~labels:[ "a"; "b" ] ~density:0.25 () in
    List.iter
      (fun count ->
        let s = TR.of_binary (Gen.random_reachable_relation ~seed g ~count) in
        Buffer.add_string b (key g s);
        Buffer.add_char b '\n')
      [ 1; 3 ]
  done;
  Alcotest.(check string) "MD5 over 10k sample keys"
    "a57efbb41c567e21002b2ae3a9303a5f"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* ---------- Cache ---------- *)

let cache_decide ?fuel ?k cache ~lang g s =
  match Cache.decide cache ?fuel ?k ~lang g s with
  | Ok r -> r
  | Error msg -> Alcotest.fail msg

let test_cache_miss_then_hit () =
  let cache = Cache.create () in
  let o1, origin1 = cache_decide cache ~lang:"rem" fig1 s2 in
  let o2, origin2 = cache_decide cache ~lang:"rem" fig1 s2 in
  Alcotest.(check bool) "first is a miss" true (origin1 = `Miss);
  Alcotest.(check bool) "second is a hit" true (origin2 = `Hit);
  Alcotest.(check string) "same verdict" (verdict_repr o1) (verdict_repr o2);
  Alcotest.(check string) "byte-identical verdict block"
    (Wire.verdict_to_string fig1 ~lang:"rem" o1)
    (Wire.verdict_to_string fig1 ~lang:"rem" o2);
  let stats = Cache.stats cache in
  Alcotest.(check (option int)) "one hit" (Some 1)
    (List.assoc_opt "verdict_hits" stats);
  Alcotest.(check (option int)) "one miss" (Some 1)
    (List.assoc_opt "verdict_misses" stats)

let test_cache_hit_across_renaming () =
  let cache = Cache.create () in
  let _ = cache_decide cache ~lang:"rem" fig1 s2 in
  (* The same problem under renamed nodes and permuted data values hits
     the same cache line. *)
  let renamed = rename_nodes fig1 in
  let _, origin = cache_decide cache ~lang:"rem" renamed s2 in
  Alcotest.(check bool) "renamed hit" true (origin = `Hit);
  let pi = List.hd (List.rev (Auto.permutations (DG.domain fig1))) in
  let _, origin = cache_decide cache ~lang:"rem" (Auto.apply_graph pi fig1) s2 in
  Alcotest.(check bool) "automorphic hit" true (origin = `Hit)

let test_cache_unknown_not_cached () =
  let cache = Cache.create () in
  let o1, origin1 = cache_decide cache ~fuel:1 ~lang:"rem" fig1 s2 in
  Alcotest.(check bool) "exhausted" true
    (match o1.verdict with Outcome.Unknown _ -> true | _ -> false);
  Alcotest.(check bool) "miss" true (origin1 = `Miss);
  let _, origin2 = cache_decide cache ~fuel:1 ~lang:"rem" fig1 s2 in
  Alcotest.(check bool) "still a miss: Unknown is never cached" true
    (origin2 = `Miss);
  (* With a real budget the instance now gets decided and cached. *)
  let o3, _ = cache_decide cache ~lang:"rem" fig1 s2 in
  let _, origin4 = cache_decide cache ~lang:"rem" fig1 s2 in
  Alcotest.(check bool) "definable" true
    (match o3.verdict with Outcome.Definable _ -> true | _ -> false);
  Alcotest.(check bool) "then a hit" true (origin4 = `Hit)

let test_cache_revalidation_drops_bogus_entries () =
  let cache = Cache.create () in
  let o_s2, _ = cache_decide cache ~lang:"rem" fig1 s2 in
  (* Seed the S3 cache line with S2's outcome: its certificate defines
     S2, so revalidation against S3 must fail and force a recompute. *)
  (match Cache.insert cache ~lang:"rem" fig1 s3 o_s2 with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  let o, origin = cache_decide cache ~lang:"rem" fig1 s3 in
  Alcotest.(check bool) "bogus entry not served" true (origin = `Miss);
  Alcotest.(check bool) "recomputed verdict differs from the seed" true
    (verdict_repr o <> verdict_repr o_s2);
  Alcotest.(check (option int)) "failure counted" (Some 1)
    (List.assoc_opt "revalidation_failures" (Cache.stats cache))

let test_cache_eviction () =
  let config = { Cache.verdict_capacity = 1 } in
  let cache = Cache.create ~config () in
  let _ = cache_decide cache ~lang:"rem" fig1 s2 in
  let _ = cache_decide cache ~lang:"rem" fig1 s3 in
  let _, origin = cache_decide cache ~lang:"rem" fig1 s2 in
  Alcotest.(check bool) "evicted entry misses again" true (origin = `Miss);
  Alcotest.(check bool) "evictions counted" true
    (match List.assoc_opt "verdict_evictions" (Cache.stats cache) with
    | Some n -> n >= 1
    | None -> false)

(* ---------- text memo ----------
   [Cache.probe_text] answers a request text through a memo keyed by
   the text's digest.  It must be exact: the same digest, provenance and
   verdict block as parsing the text afresh and calling [Cache.probe]. *)

(* A random instance and several spellings of it.  Node names, token
   separators, blank lines, comments and the order of the edge and
   tuple lines vary; node lines keep their order, which fixes node
   indices, and indices are what the content key observes. *)
type spelled = { lang : string; k : int; texts : string list }

let gen_spelled st =
  let int n = Random.State.int st n in
  let pick a = a.(int (Array.length a)) in
  let shuffle l =
    List.map snd (List.sort compare (List.map (fun x -> (Random.State.bits st, x)) l))
  in
  let n = 2 + int 3 in
  let values = Array.init n (fun _ -> int 3) in
  let edges =
    List.sort_uniq compare
      (List.init (int 7) (fun _ -> (int n, pick [| "a"; "b" |], int n)))
  in
  let tuples = List.sort_uniq compare (List.init (1 + int 3) (fun _ -> (int n, int n))) in
  let lang, k = pick [| ("rpq", 1); ("rem", 1); ("krem", 2) |] in
  let spell () =
    let prefix = pick [| "v"; "n_"; "x'"; "node" |] in
    let perm = Array.of_list (shuffle (List.init n Fun.id)) in
    let name i = prefix ^ string_of_int perm.(i) in
    let sep () = pick [| " "; "  "; "\t"; " \t " |] in
    let line words =
      (if Random.State.bool st then sep () else "")
      ^ String.concat (sep ()) words
      ^ if int 4 = 0 then sep () ^ "# trailing" else ""
    in
    let noise () = match int 5 with 0 -> [ "" ] | 1 -> [ "# a comment" ] | _ -> [] in
    let nodes = List.init n (fun i -> line [ "node"; name i; string_of_int values.(i) ]) in
    let rest =
      shuffle
        (List.map (fun (u, a, v) -> line [ "edge"; name u; a; name v ]) edges
        @ List.map
            (fun (u, v) -> line [ pick [| "tuple"; "pair" |]; name u; name v ])
            tuples)
    in
    String.concat "\n" (List.concat_map (fun l -> noise () @ [ l ]) (nodes @ rest)) ^ "\n"
  in
  { lang; k; texts = List.init (2 + int 3) (fun _ -> spell ()) }

let print_spelled c =
  Printf.sprintf "lang %s k %d\n%s" c.lang c.k
    (String.concat "----\n" c.texts)

(* (digest, provenance, verdict block) of one request, finishing a
   [`Pending] probe with [resolve]. *)
let answer cache g ~lang = function
  | `Hit (o, digest) -> (digest, "hit", Wire.verdict_to_string g ~lang o)
  | `Pending p -> (
      match Cache.resolve cache ~fuel:100_000 p with
      | Ok (o, origin, digest) ->
          ( digest,
            (match origin with `Hit -> "hit" | `Miss -> "miss"),
            Wire.verdict_to_string g ~lang o )
      | Error m -> ("", "error: " ^ m, ""))

let via_memo cache ~lang ~k text =
  match Cache.probe_text cache ~k ~lang text with
  | Error m -> ("", "parse: " ^ m, "")
  | Ok (g, r) -> answer cache g ~lang r

let via_parse cache ~lang ~k text =
  match Io.instance_of_string text with
  | Error m -> ("", "parse: " ^ m, "")
  | Ok (g, s) -> answer cache g ~lang (Cache.probe cache ~k ~lang g s)

let cache_stat cache name =
  Option.value ~default:(-1) (List.assoc_opt name (Cache.stats cache))

(* Every spelling twice, through a memoizing cache and through a cache
   that parses every request: the two must answer alike, and the memo
   must hold one entry per distinct text and hit on every repeat. *)
let memo_agrees { lang; k; texts } =
  let memo = Cache.create () and fresh = Cache.create () in
  List.for_all
    (fun text -> via_memo memo ~lang ~k text = via_parse fresh ~lang ~k text)
    (texts @ texts)
  && cache_stat memo "text_size" = List.length (List.sort_uniq compare texts)
  && cache_stat memo "text_hits" >= List.length texts

let text_memo_props =
  [
    QCheck.Test.make ~name:"memo path agrees with a fresh parse and probe"
      ~count:300 ~long_factor:20
      (QCheck.make ~print:print_spelled gen_spelled)
      memo_agrees;
  ]

let s2_src = Io.instance_to_string fig1 s2

let test_text_memo_lang_separation () =
  let rem = Content_hash.text_key ~lang:"rem" ~k:1 s2_src
  and krem = Content_hash.text_key ~lang:"krem" ~k:2 s2_src in
  Alcotest.(check bool) "rem and krem k=2 keys differ" true (rem <> krem);
  Alcotest.(check bool) "k is keyed" true
    (krem <> Content_hash.text_key ~lang:"krem" ~k:1 s2_src);
  Alcotest.(check bool) "a text key is never a content key" true
    (rem <> Content_hash.instance_key ~lang:"rem" ~k:1 fig1 s2);
  let cache = Cache.create () in
  let d_rem, _, _ = via_memo cache ~lang:"rem" ~k:1 s2_src in
  let d_krem, _, _ = via_memo cache ~lang:"krem" ~k:2 s2_src in
  Alcotest.(check string) "rem digest"
    (Content_hash.instance_key ~lang:"rem" ~k:1 fig1 s2) d_rem;
  Alcotest.(check string) "krem digest"
    (Content_hash.instance_key ~lang:"krem" ~k:2 fig1 s2) d_krem;
  Alcotest.(check int) "two memo entries" 2 (cache_stat cache "text_size");
  Alcotest.(check int) "no memo hit across languages" 0 (cache_stat cache "text_hits")

let test_text_memo_parse_error () =
  let cache = Cache.create () in
  let bad = "node v1\n" in
  let error () =
    match Cache.probe_text cache ~lang:"rem" bad with
    | Error m -> m
    | Ok _ -> Alcotest.fail "an unparsable text probed"
  in
  let e1 = error () in
  let e2 = error () in
  Alcotest.(check string) "the parser's message"
    (match Io.instance_of_string bad with Error m -> m | Ok _ -> "parsed")
    e1;
  Alcotest.(check string) "identical twice" e1 e2;
  Alcotest.(check int) "the memo did not grow" 0 (cache_stat cache "text_size")

(* ---------- Admission ---------- *)

let wait_until ?(timeout_s = 5.) f =
  let t0 = Unix.gettimeofday () in
  let rec loop () =
    if f () then true
    else if Unix.gettimeofday () -. t0 > timeout_s then false
    else begin
      Thread.yield ();
      Thread.delay 0.005;
      loop ()
    end
  in
  loop ()

let test_admission_overload () =
  let g = Server.Admission.make ~max_inflight:1 ~queue_depth:0 in
  Alcotest.(check bool) "first admitted" true (Server.Admission.admit g = `Admitted);
  Alcotest.(check bool) "no queue: overloaded" true
    (Server.Admission.admit g = `Overloaded);
  Server.Admission.release g;
  Alcotest.(check bool) "slot free again" true (Server.Admission.admit g = `Admitted);
  Server.Admission.release g

let test_admission_queueing () =
  let g = Server.Admission.make ~max_inflight:1 ~queue_depth:1 in
  Alcotest.(check bool) "admitted" true (Server.Admission.admit g = `Admitted);
  let second = ref `Overloaded in
  let th = Thread.create (fun () -> second := Server.Admission.admit g) () in
  Alcotest.(check bool) "second waits" true
    (wait_until (fun () -> Server.Admission.waiting g = 1));
  Alcotest.(check bool) "third refused" true
    (Server.Admission.admit g = `Overloaded);
  Server.Admission.release g;
  Thread.join th;
  Alcotest.(check bool) "waiter admitted after release" true (!second = `Admitted);
  Server.Admission.release g

let test_admission_drain () =
  let g = Server.Admission.make ~max_inflight:1 ~queue_depth:4 in
  Alcotest.(check bool) "admitted" true (Server.Admission.admit g = `Admitted);
  let drained = ref false in
  let th =
    Thread.create
      (fun () ->
        Server.Admission.drain g;
        drained := true)
      ()
  in
  Thread.delay 0.05;
  Alcotest.(check bool) "drain waits for the running op" true (not !drained);
  Alcotest.(check bool) "no admissions while draining" true
    (Server.Admission.admit g = `Draining);
  Server.Admission.release g;
  Thread.join th;
  Alcotest.(check bool) "drained" true !drained;
  (* Idempotent, and still refusing. *)
  Server.Admission.drain g;
  Alcotest.(check bool) "still draining" true (Server.Admission.admit g = `Draining)

(* ---------- end-to-end over a Unix socket ---------- *)

let with_server ?(config = Server.default_config) f =
  let path = Filename.temp_file "defsvc" ".sock" in
  let addr = Wire.Unix_sock path in
  let srv = Server.create ~config addr in
  let th = Thread.create Server.run srv in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown srv;
      Thread.join th)
    (fun () -> f addr srv)

let member_str field j = Option.bind (Json.member field j) Json.to_str

let request_ok conn req =
  match Client.request conn req with
  | Error msg -> Alcotest.failf "request failed: %s" msg
  | Ok j -> j

let s2_text = Io.instance_to_string fig1 s2
let s3_text = Io.instance_to_string fig1 s3

let decide_req ?(lang = "rem") instance =
  Wire.Decide { lang; k = None; fuel = None; timeout_s = None; instance }

let test_e2e_ping_decide_cache () =
  with_server (fun addr _srv ->
      Client.with_connection addr (fun conn ->
          let pong = request_ok conn Wire.Ping in
          Alcotest.(check (option string)) "pong" (Some "ok")
            (member_str "status" pong);
          let cold = request_ok conn (decide_req s2_text) in
          let warm = request_ok conn (decide_req s2_text) in
          Alcotest.(check (option string)) "cold misses" (Some "miss")
            (member_str "cache" cold);
          Alcotest.(check (option string)) "warm hits" (Some "hit")
            (member_str "cache" warm);
          let result j =
            match Json.member "result" j with
            | Some r -> Json.to_string r
            | None -> Alcotest.fail "no result field"
          in
          Alcotest.(check string) "identical verdict blocks" (result cold)
            (result warm);
          Alcotest.(check (option string)) "a definable verdict"
            (Some "definable")
            (Option.bind (Json.member "result" warm) (member_str "verdict"));
          let stats = request_ok conn Wire.Stats in
          Alcotest.(check (option int)) "stats sees the hit" (Some 1)
            (Option.bind (Json.member "stats" stats) (fun s ->
                 Option.bind (Json.member "cache_verdict_hits" s) Json.to_int))))

let test_e2e_batch_and_errors () =
  with_server (fun addr _srv ->
      Client.with_connection addr (fun conn ->
          let resp =
            request_ok conn
              (Wire.Batch
                 {
                   lang = "rem";
                   k = None;
                   fuel = None;
                   timeout_s = None;
                   instances = [ s2_text; "node v1\n"; s3_text ];
                 })
          in
          Alcotest.(check (option string)) "ok" (Some "ok")
            (member_str "status" resp);
          match Option.bind (Json.member "results" resp) Json.to_list with
          | Some [ r1; r2; r3 ] ->
              Alcotest.(check (option string)) "first decided" (Some "definable")
                (Option.bind (Json.member "result" r1) (member_str "verdict"));
              Alcotest.(check bool) "second is a per-item error" true
                (Json.member "error" r2 <> None);
              Alcotest.(check bool) "third still decided" true
                (Json.member "result" r3 <> None)
          | _ -> Alcotest.fail "expected three results");
      (* A syntactically broken request line answers an error response,
         and the connection survives for the next request. *)
      Client.with_connection addr (fun conn ->
          (match Client.request_raw conn "{\"op\":}" with
          | Ok line ->
              Alcotest.(check bool) "error status" true
                (match Json.parse line with
                | Ok j -> member_str "status" j = Some "error"
                | Error _ -> false)
          | Error msg -> Alcotest.failf "transport failed: %s" msg);
          let pong = request_ok conn Wire.Ping in
          Alcotest.(check (option string)) "connection survives" (Some "ok")
            (member_str "status" pong)))

let test_e2e_ping_while_busy () =
  with_server (fun addr _srv ->
      let sleeper_status = ref None in
      let sleeper =
        Thread.create
          (fun () ->
            Client.with_connection addr (fun conn ->
                let j = request_ok conn (Wire.Sleep { ms = 600 }) in
                sleeper_status := member_str "status" j))
          ()
      in
      Thread.delay 0.1;
      let t0 = Unix.gettimeofday () in
      Client.with_connection addr (fun conn ->
          let pong = request_ok conn Wire.Ping in
          Alcotest.(check (option string)) "pong while busy" (Some "ok")
            (member_str "status" pong));
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool) "ping did not queue behind the sleeper" true
        (elapsed < 0.4);
      Thread.join sleeper;
      Alcotest.(check (option string)) "sleeper completed" (Some "ok")
        !sleeper_status)

let test_e2e_overload () =
  let config = { Server.default_config with Server.max_inflight = 1; queue_depth = 0 } in
  with_server ~config (fun addr _srv ->
      let sleeper =
        Thread.create
          (fun () ->
            Client.with_connection addr (fun conn ->
                ignore (request_ok conn (Wire.Sleep { ms = 600 }))))
          ()
      in
      Thread.delay 0.15;
      Client.with_connection addr (fun conn ->
          let j = request_ok conn (Wire.Sleep { ms = 10 }) in
          Alcotest.(check (option string)) "refused" (Some "overloaded")
            (member_str "status" j);
          Alcotest.(check (option string)) "with a reason" (Some "queue_full")
            (member_str "detail" j));
      Thread.join sleeper)

let with_pool_size n f =
  let old = Par.Pool.size () in
  Par.Pool.set_size n;
  Fun.protect ~finally:(fun () -> Par.Pool.set_size old) f

let pool_stat stats name =
  Option.bind (Json.member "stats" stats) (fun s ->
      Option.bind (Json.member name s) Json.to_int)

let test_e2e_pool_execution () =
  (* With a multi-domain pool, request bodies run on pool workers via
     [submit] — the handler thread never executes them itself, so every
     pool-served request implies at least one successful steal.  The
     verdict must nonetheless be byte-identical to the inline path. *)
  let inline =
    with_pool_size 1 (fun () ->
        with_server (fun addr _srv ->
            Client.with_connection addr (fun conn ->
                request_ok conn (decide_req s2_text))))
  in
  with_pool_size 4 (fun () ->
      with_server (fun addr _srv ->
          Client.with_connection addr (fun conn ->
              let before =
                Option.value ~default:0
                  (pool_stat (request_ok conn Wire.Stats) "pool_steal_success")
              in
              let pooled = request_ok conn (decide_req s2_text) in
              let batch =
                request_ok conn
                  (Wire.Batch
                     {
                       lang = "rem";
                       k = None;
                       fuel = None;
                       timeout_s = None;
                       instances = [ s2_text; s3_text ];
                     })
              in
              Alcotest.(check (option string)) "batch ok" (Some "ok")
                (member_str "status" batch);
              let result j =
                match Json.member "result" j with
                | Some r -> Json.to_string r
                | None -> Alcotest.fail "no result field"
              in
              Alcotest.(check string) "pool verdict = inline verdict"
                (result inline) (result pooled);
              let stats = request_ok conn Wire.Stats in
              (match pool_stat stats "pool_steal_success" with
              | Some after ->
                  Alcotest.(check bool) "workers stole the request bodies"
                    true (after > before)
              | None -> Alcotest.fail "stats missing pool_steal_success");
              List.iter
                (fun name ->
                  match pool_stat stats name with
                  | Some v ->
                      Alcotest.(check bool) (name ^ " non-negative") true
                        (v >= 0)
                  | None -> Alcotest.failf "stats missing %s" name)
                [ "pool_size"; "pool_deque_push"; "pool_deque_pop";
                  "pool_steal_fail"; "pool_submitted"; "pool_nested_inline" ])))

(* Fig. 1 with the data values of z1, z2, v2 and v3 read off the base-5
   digits of [i]: a digit below 4 is one of Fig. 1's values, 4 a value
   private to that node.  Every Fig. 1 value also sits on a node that
   keeps its value, so distinct [i < 625] are distinct instances. *)
let fig1_variant i =
  let digits = ref i in
  let value u =
    if List.mem (DG.name fig1 u) [ "z1"; "z2"; "v2"; "v3" ] then begin
      let d = !digits mod 5 in
      digits := !digits / 5;
      Datagraph.Data_value.of_int (if d < 4 then d else 100 + u)
    end
    else DG.value fig1 u
  in
  let g =
    DG.make
      ~nodes:(List.map (fun u -> (DG.name fig1 u, value u)) (DG.nodes fig1))
      ~edges:
        (List.map
           (fun (u, a, v) -> (DG.name fig1 u, a, DG.name fig1 v))
           (DG.edges fig1))
  in
  Io.instance_to_string g s2

let test_e2e_admitted_batches_never_refused () =
  (* The admission gate is the server's one bound on work: a batch it
     admitted is queued on the domain pool whatever else is queued there.
     When the pool also capped its submission backlog (32 tasks), three
     concurrent 40-item batches of misses, below the gate's limit of 4,
     were now and then answered [overloaded]; how often depended on
     thread timing, so that design failed this test only some of the
     time.  With one bound it must pass every time. *)
  let clients = 3 and rounds = 4 and items = 40 in
  with_pool_size 4 (fun () ->
      with_server (fun addr _srv ->
          let submitted () =
            Client.with_connection addr (fun conn ->
                Option.value ~default:0
                  (pool_stat (request_ok conn Wire.Stats) "pool_submitted"))
          in
          let before = submitted () in
          let answers = Array.make clients [] in
          let client c () =
            Client.with_connection addr (fun conn ->
                for r = 0 to rounds - 1 do
                  let base = ((c * rounds) + r) * items in
                  let instances =
                    List.init items (fun i -> fig1_variant (base + i))
                  in
                  let answer =
                    match
                      Client.request conn
                        (Wire.Batch
                           { lang = "rem"; k = None; fuel = None;
                             timeout_s = None; instances })
                    with
                    | Error msg -> Error msg
                    | Ok j ->
                        Ok
                          ( member_str "status" j,
                            Option.map
                              (List.map (member_str "cache"))
                              (Option.bind (Json.member "results" j)
                                 Json.to_list) )
                  in
                  answers.(c) <- answer :: answers.(c)
                done)
          in
          List.iter Thread.join
            (List.init clients (fun c -> Thread.create (client c) ()));
          Array.iter
            (List.iter (function
              | Error msg -> Alcotest.failf "batch failed: %s" msg
              | Ok (status, caches) ->
                  Alcotest.(check (option string)) "batch admitted and served"
                    (Some "ok") status;
                  Alcotest.(check (option (list (option string))))
                    "every item answered, every item a miss"
                    (Some (List.init items (fun _ -> Some "miss")))
                    caches))
            answers;
          Client.with_connection addr (fun conn ->
              let stats = request_ok conn Wire.Stats in
              Alcotest.(check (option int)) "nothing refused" (Some 0)
                (pool_stat stats "overloaded"));
          Alcotest.(check int) "one pool task per item"
            (clients * rounds * items)
            (submitted () - before)))

let test_e2e_shutdown_drains () =
  let path = Filename.temp_file "defsvc" ".sock" in
  let addr = Wire.Unix_sock path in
  let config = { Server.default_config with Server.max_inflight = 1; queue_depth = 0 } in
  let srv = Server.create ~config addr in
  let server_thread = Thread.create Server.run srv in
  let sleeper_status = ref None in
  let sleeper =
    Thread.create
      (fun () ->
        Client.with_connection addr (fun conn ->
            let j = request_ok conn (Wire.Sleep { ms = 400 }) in
            sleeper_status := member_str "status" j))
      ()
  in
  Thread.delay 0.1;
  let t0 = Unix.gettimeofday () in
  Client.with_connection addr (fun conn ->
      let j = request_ok conn Wire.Shutdown in
      Alcotest.(check (option string)) "shutdown ok" (Some "ok")
        (member_str "status" j));
  Alcotest.(check bool) "shutdown waited for the drain" true
    (Unix.gettimeofday () -. t0 > 0.2);
  Thread.join sleeper;
  Alcotest.(check (option string)) "in-flight op was answered, not dropped"
    (Some "ok") !sleeper_status;
  Thread.join server_thread;
  Alcotest.(check bool) "socket file removed" true (not (Sys.file_exists path));
  match Client.connect addr with
  | exception Unix.Unix_error _ -> ()
  | conn ->
      Client.close conn;
      Alcotest.fail "server still accepting after shutdown"

let test_wire_roundtrip () =
  List.iter
    (fun req ->
      Alcotest.(check bool) "request round-trips" true
        (Wire.request_of_string (Wire.request_to_string req) = Ok req))
    [
      Wire.Ping;
      Wire.Stats;
      Wire.Shutdown;
      Wire.Sleep { ms = 250 };
      Wire.Decide
        {
          lang = "krem";
          k = Some 2;
          fuel = Some 100_000;
          timeout_s = None;
          instance = s2_text;
        };
      Wire.Batch
        {
          lang = "rem";
          k = None;
          fuel = None;
          timeout_s = Some 1.5;
          instances = [ s2_text; s3_text ];
        };
      Wire.Compact;
      Wire.Export { limit = Some 5 };
      Wire.Export { limit = None };
      Wire.Import { entries = [ ("d1", "aabb"); ("d2", "00ff") ] };
    ]

(* ---------- durable tier & tiered cache ---------- *)

let fresh_store_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "defsvc-store-%d-%d" (Unix.getpid ()) !counter)

let test_tier_codec () =
  let inst =
    match Engine.Instance.create fig1 s2 with
    | Ok i -> i
    | Error msg -> Alcotest.fail msg
  in
  let o =
    match Engine.Registry.decide ~lang:"rem" inst with
    | Ok o -> o
    | Error msg -> Alcotest.fail msg
  in
  let entry = { Tier.lang = "rem"; k = 1; inst; outcome = o } in
  let raw = Tier.encode entry in
  (match Tier.decode raw with
  | Error msg -> Alcotest.failf "decode failed: %s" msg
  | Ok e ->
      Alcotest.(check string) "lang" "rem" e.Tier.lang;
      Alcotest.(check string) "same verdict" (verdict_repr o)
        (verdict_repr e.Tier.outcome));
  (* Hex round-trip (the export/import wire form). *)
  Alcotest.(check bool) "hex round-trip" true
    (Tier.of_hex (Tier.to_hex raw) = Ok raw);
  (* Corrupt bytes are rejected, not trusted. *)
  Alcotest.(check bool) "garbage refused" true
    (Result.is_error (Tier.decode "defv1\ngarbage"));
  Alcotest.(check bool) "wrong magic refused" true
    (Result.is_error (Tier.decode ("XX" ^ raw)))

let test_cache_write_through_and_promotion () =
  let dir = fresh_store_dir () in
  let tier = Tier.open_ dir in
  let cache = Cache.create ~durable:tier () in
  let o1, origin1 = cache_decide cache ~lang:"rem" fig1 s2 in
  Alcotest.(check bool) "cold miss" true (origin1 = `Miss);
  Alcotest.(check int) "written through to the store" 1 (Tier.length tier);
  (* A fresh memory tier over the same store: the hit is served by
     promotion from the durable tier. *)
  let cache2 = Cache.create ~durable:tier () in
  let o2, origin2 = cache_decide cache2 ~lang:"rem" fig1 s2 in
  Alcotest.(check bool) "durable hit" true (origin2 = `Hit);
  Alcotest.(check (option int)) "store hit counted" (Some 1)
    (List.assoc_opt "store_hits" (Cache.stats cache2));
  Alcotest.(check string) "byte-identical verdict block"
    (Wire.verdict_to_string fig1 ~lang:"rem" o1)
    (Wire.verdict_to_string fig1 ~lang:"rem" o2);
  (* Promoted: the next lookup is a pure memory hit. *)
  let _, origin3 = cache_decide cache2 ~lang:"rem" fig1 s2 in
  Alcotest.(check bool) "promoted to memory" true (origin3 = `Hit);
  Alcotest.(check (option int)) "no second store probe" (Some 1)
    (List.assoc_opt "store_hits" (Cache.stats cache2));
  Cache.close cache2;
  ignore cache

let test_cache_restart_byte_identical () =
  (* The acceptance property: close everything, reopen the directory,
     and the warm (certificate-revalidated) hit renders byte-identical
     to the cold verdict block. *)
  let dir = fresh_store_dir () in
  let cache = Cache.create ~durable:(Tier.open_ dir) () in
  let o_cold, origin = cache_decide cache ~lang:"rem" fig1 s2 in
  Alcotest.(check bool) "cold miss" true (origin = `Miss);
  Cache.close cache;
  let cache = Cache.create ~durable:(Tier.open_ dir) () in
  let o_warm, origin = cache_decide cache ~lang:"rem" fig1 s2 in
  Alcotest.(check bool) "warm hit after restart" true (origin = `Hit);
  Alcotest.(check string) "byte-identical across restart"
    (Wire.verdict_to_string fig1 ~lang:"rem" o_cold)
    (Wire.verdict_to_string fig1 ~lang:"rem" o_warm);
  Cache.close cache

(* A durable record whose certificate does not check on its own
   instance: recovery keeps it (it checks frames, not certificates), its
   first hit refuses it, and the recomputed verdict replaces it. *)
let test_tier_bogus_record_dropped_on_first_hit () =
  let dir = fresh_store_dir () in
  let tier = Tier.open_ dir in
  let cache = Cache.create ~durable:tier () in
  let o_s2, _ = cache_decide cache ~lang:"rem" fig1 s2 in
  (* S2's outcome stored under S3's key, with S3's instance: its
     certificate defines S2, so it fails on the record's own instance. *)
  let inst_s3 =
    match Engine.Instance.create fig1 s3 with
    | Ok i -> i
    | Error msg -> Alcotest.fail msg
  in
  let key_s3 = Content_hash.instance_key ~lang:"rem" ~k:1 fig1 s3 in
  Tier.put tier key_s3
    { Tier.lang = "rem"; k = 1; inst = inst_s3; outcome = o_s2 };
  Cache.close cache;
  let tier = Tier.open_ dir in
  Alcotest.(check int) "recovery checks no certificate" 2 (Tier.length tier);
  let cache = Cache.create ~durable:tier () in
  let o, origin = cache_decide cache ~lang:"rem" fig1 s3 in
  Alcotest.(check bool) "bogus record answered as a miss" true (origin = `Miss);
  Alcotest.(check bool) "recomputed verdict differs from the record" true
    (verdict_repr o <> verdict_repr o_s2);
  let stat name = List.assoc_opt name (Cache.stats cache) in
  Alcotest.(check (option int)) "failure counted" (Some 1)
    (stat "revalidation_failures");
  Alcotest.(check (option int)) "removed from the store" (Some 1)
    (stat "store_drops");
  (match Tier.find tier key_s3 with
  | Some e ->
      Alcotest.(check string) "the store now holds the recomputed verdict"
        (verdict_repr o) (verdict_repr e.Tier.outcome)
  | None -> Alcotest.fail "recomputed verdict not written through");
  Cache.close cache

(* A record written by a build with another version header: intact
   frame, undecodable payload.  It loads at recovery, is dropped by its
   first [find], and the verdict is recomputed. *)
let test_tier_stale_magic_dropped () =
  let dir = fresh_store_dir () in
  let inst =
    match Engine.Instance.create fig1 s2 with
    | Ok i -> i
    | Error msg -> Alcotest.fail msg
  in
  let o_cold =
    match Engine.Registry.decide ~lang:"rem" inst with
    | Ok o -> o
    | Error msg -> Alcotest.fail msg
  in
  let raw = Tier.encode { Tier.lang = "rem"; k = 1; inst; outcome = o_cold } in
  let stale = "defv0\n" ^ String.sub raw 6 (String.length raw - 6) in
  let key = Content_hash.instance_key ~lang:"rem" ~k:1 fig1 s2 in
  let log = Store.Log.open_ dir in
  Store.Log.put log key stale;
  Store.Log.close log;
  let tier = Tier.open_ dir in
  Alcotest.(check int) "recovered" 1 (Tier.length tier);
  Alcotest.(check bool) "first find drops it" true
    (Option.is_none (Tier.find tier key));
  Alcotest.(check int) "gone from the store" 0 (Tier.length tier);
  let cache = Cache.create ~durable:tier () in
  let o, origin = cache_decide cache ~lang:"rem" fig1 s2 in
  Alcotest.(check bool) "recomputed" true (origin = `Miss);
  Alcotest.(check string) "same verdict block as the cold decide"
    (Wire.verdict_to_string fig1 ~lang:"rem" o_cold)
    (Wire.verdict_to_string fig1 ~lang:"rem" o);
  Alcotest.(check int) "written back" 1 (Tier.length tier);
  Cache.close cache

let test_cache_eviction_backstopped_by_store () =
  (* With a 1-entry memory tier, an evicted verdict survives in the
     durable tier and comes back as a hit, not a recompute. *)
  let dir = fresh_store_dir () in
  let config = { Cache.verdict_capacity = 1 } in
  let cache = Cache.create ~config ~durable:(Tier.open_ dir) () in
  let _ = cache_decide cache ~lang:"rem" fig1 s2 in
  let _ = cache_decide cache ~lang:"rem" fig1 s3 in
  (* s2 was evicted from memory, but the store still has it. *)
  let _, origin = cache_decide cache ~lang:"rem" fig1 s2 in
  Alcotest.(check bool) "evicted entry hits the store" true (origin = `Hit);
  Alcotest.(check bool) "served from the durable tier" true
    (match List.assoc_opt "store_hits" (Cache.stats cache) with
    | Some n -> n >= 1
    | None -> false);
  Cache.close cache

(* ---------- consistent-hash ring ---------- *)

let test_ring_deterministic () =
  let names = [ "shard0"; "shard1"; "shard2" ] in
  let r1 = Service.Ring.create names in
  let r2 = Service.Ring.create names in
  let keys = List.init 200 (fun i -> Printf.sprintf "digest-%d" i) in
  List.iter
    (fun k ->
      Alcotest.(check string) "same placement" (Service.Ring.shard r1 k)
        (Service.Ring.shard r2 k))
    keys;
  (* Every shard owns a nonempty share of 200 random keys. *)
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " owns keys") true
        (List.exists (fun k -> Service.Ring.shard r1 k = name) keys))
    names;
  (* Adding a shard only moves keys toward the new shard. *)
  let r3 = Service.Ring.create (names @ [ "shard3" ]) in
  List.iter
    (fun k ->
      let before = Service.Ring.shard r1 k and after = Service.Ring.shard r3 k in
      Alcotest.(check bool) "moves only to the new shard" true
        (before = after || after = "shard3"))
    keys

(* ---------- client retry ---------- *)

let test_client_retry_backoff () =
  let path = Filename.temp_file "defsvc" ".sock" in
  Sys.remove path;
  (* Nothing is listening yet: a plain connect must fail fast... *)
  (match Client.connect (Wire.Unix_sock path) with
  | exception Unix.Unix_error _ -> ()
  | conn ->
      Client.close conn;
      Alcotest.fail "connected to nothing");
  (* ...while a retrying connect outlasts a server that binds late. *)
  let srv = ref None in
  let starter =
    Thread.create
      (fun () ->
        Thread.delay 0.3;
        let s = Server.create (Wire.Unix_sock path) in
        srv := Some s;
        Server.run s)
      ()
  in
  let conn = Client.connect ~retries:30 ~backoff_s:0.02 (Wire.Unix_sock path) in
  let pong = request_ok conn Wire.Ping in
  Alcotest.(check (option string)) "pong after retrying" (Some "ok")
    (member_str "status" pong);
  Client.close conn;
  (match !srv with Some s -> Server.shutdown s | None -> ());
  Thread.join starter

let test_client_retry_jitter () =
  (* Pure-function contract of the connect backoff: every delay lands in
     the ±25% band around base·2^attempt, consecutive attempts strictly
     increase (bands never overlap: 1.25 < 2·0.75), and different salts
     actually decorrelate instead of collapsing to one value. *)
  let base = 0.05 in
  let distinct = Hashtbl.create 64 in
  for salt = 1 to 50 do
    let prev = ref neg_infinity in
    for attempt = 0 to 6 do
      let d = Client.retry_delay_s ~salt ~attempt base in
      let nominal = base *. (2. ** float_of_int attempt) in
      if d < 0.75 *. nominal || d >= 1.25 *. nominal then
        Alcotest.failf "delay %g outside [%g, %g) (salt %d attempt %d)" d
          (0.75 *. nominal) (1.25 *. nominal) salt attempt;
      if d <= !prev then
        Alcotest.failf "delay not increasing at salt %d attempt %d" salt
          attempt;
      prev := d;
      if attempt = 3 then Hashtbl.replace distinct (Printf.sprintf "%h" d) ()
    done
  done;
  Alcotest.(check bool) "salts decorrelate" true (Hashtbl.length distinct > 10);
  (* Deterministic: same inputs, same delay. *)
  Alcotest.(check bool) "pure" true
    (Client.retry_delay_s ~salt:7 ~attempt:2 base
    = Client.retry_delay_s ~salt:7 ~attempt:2 base);
  (* Pinned, not just bounded: exact delays as hex
     floats, plus a digest over a salt × attempt sweep that includes
     the extreme salts, so a rewrite of the hash must be byte-identical. *)
  let delay ~salt ~attempt =
    Printf.sprintf "%h" (Client.retry_delay_s ~salt ~attempt base)
  in
  List.iter
    (fun (salt, attempt, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "salt %d attempt %d" salt attempt)
        expected (delay ~salt ~attempt))
    [
      (1, 0, "0x1.690062d666667p-5");
      (7, 2, "0x1.5187ca7cccccdp-3");
      (-7, 3, "0x1.c11870bcccccdp-2");
      (max_int, 6, "0x1.65d1b7c99999ap+1");
    ];
  let sweep =
    List.concat_map
      (fun salt -> List.init 7 (fun attempt -> delay ~salt ~attempt))
      ([ min_int; -7; 0; max_int; 0x1000193 ] @ List.init 50 succ)
  in
  Alcotest.(check string)
    "sweep digest" "0b9f8541da1968a35e7b058d0dcbb136"
    (Digest.to_hex (Digest.string (String.concat "," sweep)))

(* ---------- sharded serving end-to-end ---------- *)

let with_sharded_cluster ?(store = true) f =
  let mk_server i =
    let path = Filename.temp_file "defshard" ".sock" in
    let store_dir = if store then Some (fresh_store_dir ()) else None in
    let config =
      {
        Server.default_config with
        Server.store_dir;
        shard = Some (i, 2);
        fsync = Store.Log.Always;
      }
    in
    let srv = Server.create ~config (Wire.Unix_sock path) in
    (srv, Thread.create Server.run srv)
  in
  let (s0, t0) = mk_server 0 and (s1, t1) = mk_server 1 in
  let shards =
    [ ("shard0", Server.address s0); ("shard1", Server.address s1) ]
  in
  let rpath = Filename.temp_file "defroute" ".sock" in
  let router = Service.Router.create ~shards (Wire.Unix_sock rpath) in
  let rth = Thread.create Service.Router.run router in
  Fun.protect
    ~finally:(fun () ->
      Service.Router.shutdown router;
      Server.shutdown s0;
      Server.shutdown s1;
      Thread.join rth;
      Thread.join t0;
      Thread.join t1)
    (fun () -> f ~router ~s0 ~s1 (Wire.Unix_sock rpath))

let test_e2e_router_decide () =
  with_sharded_cluster (fun ~router:_ ~s0:_ ~s1:_ addr ->
      Client.with_connection addr (fun conn ->
          let cold = request_ok conn (decide_req s2_text) in
          let warm = request_ok conn (decide_req s2_text) in
          Alcotest.(check (option string)) "cold misses" (Some "miss")
            (member_str "cache" cold);
          Alcotest.(check (option string))
            "warm hits (same problem, same shard)" (Some "hit")
            (member_str "cache" warm);
          let block j =
            match Json.member "result" j with
            | Some r -> Json.to_string r
            | None -> Alcotest.fail "no result"
          in
          Alcotest.(check string) "verdict blocks relay byte-identically"
            (block cold) (block warm);
          (* Aggregated stats see exactly one hit and one miss. *)
          let stats = request_ok conn Wire.Stats in
          let agg field =
            Option.bind (Json.member "stats" stats) (fun s ->
                Option.bind (Json.member field s) Json.to_int)
          in
          Alcotest.(check (option int)) "summed hits" (Some 1)
            (agg "cache_verdict_hits");
          Alcotest.(check (option int)) "summed misses" (Some 1)
            (agg "cache_verdict_misses");
          Alcotest.(check bool) "per-shard breakdown present" true
            (Json.member "shards" stats <> None)))

let test_e2e_router_batch () =
  with_sharded_cluster (fun ~router:_ ~s0:_ ~s1:_ addr ->
      Client.with_connection addr (fun conn ->
          let resp =
            request_ok conn
              (Wire.Batch
                 {
                   lang = "rem";
                   k = None;
                   fuel = None;
                   timeout_s = None;
                   instances = [ s2_text; "node v1\n"; s3_text ];
                 })
          in
          Alcotest.(check (option string)) "ok" (Some "ok")
            (member_str "status" resp);
          match Option.bind (Json.member "results" resp) Json.to_list with
          | Some [ r1; r2; r3 ] ->
              Alcotest.(check (option string)) "first decided"
                (Some "definable")
                (Option.bind (Json.member "result" r1) (member_str "verdict"));
              Alcotest.(check bool) "second is a per-item error" true
                (Json.member "error" r2 <> None);
              Alcotest.(check bool) "third decided" true
                (Json.member "result" r3 <> None)
          | _ -> Alcotest.fail "expected three results in request order"))

let test_e2e_router_delta_chain () =
  with_sharded_cluster (fun ~router:_ ~s0:_ ~s1:_ addr ->
      Client.with_connection addr (fun conn ->
          let first = request_ok conn (decide_req s2_text) in
          let digest =
            match member_str "digest" first with
            | Some d -> d
            | None -> Alcotest.fail "no digest in decide response"
          in
          let delta edit digest =
            request_ok conn
              (Wire.Delta
                 {
                   lang = "rem";
                   k = None;
                   fuel = None;
                   timeout_s = None;
                   digest;
                   edit;
                 })
          in
          let r1 = delta (Wire.Add_node ("w9", 7)) digest in
          Alcotest.(check (option string)) "delta answered" (Some "ok")
            (member_str "status" r1);
          (* Chain a second edit onto the response digest: the router
             must route it to the shard that holds the chained entry. *)
          let digest2 =
            match member_str "digest" r1 with
            | Some d -> d
            | None -> Alcotest.fail "no digest in delta response"
          in
          let r2 = delta (Wire.Add_node ("w10", 8)) digest2 in
          (* A chained digest resolving at all proves the router sent it
             to the shard holding the chain (a wrong shard answers
             "unknown instance digest"). *)
          Alcotest.(check (option string)) "chained delta answered" (Some "ok")
            (member_str "status" r2);
          Alcotest.(check bool) "repair outcome reported" true
            (member_str "repair" r2 <> None)))

let test_e2e_shard_restart_serves_warm () =
  (* Kill one shard (ungracefully: no shutdown, no sync beyond
     fsync=Always), restart it over the same store directory, and the
     verdict it decided earlier is served warm and byte-identical. *)
  let path = Filename.temp_file "defshard" ".sock" in
  let dir = fresh_store_dir () in
  let config =
    {
      Server.default_config with
      Server.store_dir = Some dir;
      fsync = Store.Log.Always;
    }
  in
  let srv = Server.create ~config (Wire.Unix_sock path) in
  let th = Thread.create Server.run srv in
  let cold =
    Client.with_connection (Wire.Unix_sock path) (fun conn ->
        request_ok conn (decide_req s2_text))
  in
  Alcotest.(check (option string)) "cold misses" (Some "miss")
    (member_str "cache" cold);
  Server.shutdown srv;
  Thread.join th;
  (* Restart over the same directory. *)
  let srv = Server.create ~config (Wire.Unix_sock path) in
  let th = Thread.create Server.run srv in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown srv;
      Thread.join th)
    (fun () ->
      Client.with_connection (Wire.Unix_sock path) (fun conn ->
          let warm = request_ok conn (decide_req s2_text) in
          Alcotest.(check (option string)) "warm hit after restart"
            (Some "hit")
            (member_str "cache" warm);
          let block j =
            match Json.member "result" j with
            | Some r -> Json.to_string r
            | None -> Alcotest.fail "no result"
          in
          Alcotest.(check string) "byte-identical verdict block"
            (block cold) (block warm)))

let test_e2e_export_import_compact () =
  with_sharded_cluster (fun ~router:_ ~s0 ~s1 _addr ->
      (* Decide shard-direct on shard0, then hand-carry the hot entry to
         shard1 and check shard1 serves it warm. *)
      let cold =
        Client.with_connection (Server.address s0) (fun conn ->
            request_ok conn (decide_req s2_text))
      in
      Alcotest.(check (option string)) "cold on shard0" (Some "miss")
        (member_str "cache" cold);
      let entries =
        Client.with_connection (Server.address s0) (fun conn ->
            let resp = request_ok conn (Wire.Export { limit = Some 10 }) in
            match Option.bind (Json.member "entries" resp) Json.to_list with
            | Some l ->
                List.filter_map
                  (fun e ->
                    match (member_str "digest" e, member_str "payload" e) with
                    | Some d, Some p -> Some (d, p)
                    | _ -> None)
                  l
            | None -> Alcotest.fail "export returned no entries")
      in
      Alcotest.(check int) "one hot entry exported" 1 (List.length entries);
      Client.with_connection (Server.address s1) (fun conn ->
          let resp = request_ok conn (Wire.Import { entries }) in
          Alcotest.(check (option int)) "imported" (Some 1)
            (Option.bind (Json.member "imported" resp) Json.to_int);
          let warm = request_ok conn (decide_req s2_text) in
          Alcotest.(check (option string)) "imported entry serves warm"
            (Some "hit")
            (member_str "cache" warm);
          (* A compact round-trips and reports store stats. *)
          let c = request_ok conn Wire.Compact in
          Alcotest.(check (option string)) "compact ok" (Some "ok")
            (member_str "status" c));
      (* A poisoned import is refused, not stored. *)
      Client.with_connection (Server.address s1) (fun conn ->
          let resp =
            request_ok conn
              (Wire.Import { entries = [ ("deadbeef", "00ff00ff") ] })
          in
          Alcotest.(check (option int)) "poison rejected" (Some 1)
            (Option.bind (Json.member "rejected" resp) Json.to_int)))

let test_e2e_rebalance () =
  with_sharded_cluster (fun ~router ~s0:_ ~s1:_ addr ->
      (* Decide through the router (lands on its ring owner), then
         rebalance: every hot entry must end up on the shard the ring
         names, so a post-rebalance decide still hits. *)
      Client.with_connection addr (fun conn ->
          ignore (request_ok conn (decide_req s2_text));
          ignore (request_ok conn (decide_req s3_text)));
      (match Service.Router.rebalance router () with
      | Ok _moved -> ()
      | Error msg -> Alcotest.failf "rebalance failed: %s" msg);
      Client.with_connection addr (fun conn ->
          let w2 = request_ok conn (decide_req s2_text) in
          let w3 = request_ok conn (decide_req s3_text) in
          Alcotest.(check (option string)) "s2 still warm" (Some "hit")
            (member_str "cache" w2);
          Alcotest.(check (option string)) "s3 still warm" (Some "hit")
            (member_str "cache" w3)))

(* ---------- observability plane end-to-end ---------- *)

module Metrics = Service.Metrics

let observed f =
  Obs.enable [ Obs.Sink.null ];
  Fun.protect ~finally:Obs.disable f

(* Send a request with a wire envelope (trace id / streaming) and parse
   the response. *)
let request_env conn ~envelope req =
  match Client.request_raw conn (Wire.request_line ~envelope req) with
  | Error msg -> Alcotest.failf "request failed: %s" msg
  | Ok line -> (
      match Json.parse line with
      | Ok j -> j
      | Error msg -> Alcotest.failf "unparsable response: %s" msg)

let result_block j =
  match Json.member "result" j with
  | Some r -> Json.to_string r
  | None -> Alcotest.fail "no result field"

let test_e2e_stats_uptime_version () =
  with_server (fun addr _srv ->
      Client.with_connection addr (fun conn ->
          let stats = request_ok conn Wire.Stats in
          Alcotest.(check (option string)) "build string reported"
            (Some Metrics.build_string)
            (member_str "version" stats);
          let stat name =
            Option.bind (Json.member "stats" stats) (fun s ->
                Option.bind (Json.member name s) Json.to_int)
          in
          (match stat "uptime_seconds" with
          | Some u -> Alcotest.(check bool) "uptime sane" true (u >= 0 && u < 3600)
          | None -> Alcotest.fail "no uptime_seconds in stats");
          match stat "started_at" with
          | Some t ->
              Alcotest.(check bool) "started_at is a recent epoch" true
                (float_of_int t <= Unix.gettimeofday ()
                && float_of_int t > Unix.gettimeofday () -. 3600.)
          | None -> Alcotest.fail "no started_at in stats"))

let test_e2e_metrics_op () =
  observed (fun () ->
      with_server (fun addr _srv ->
          Client.with_connection addr (fun conn ->
              ignore (request_ok conn (decide_req s2_text));
              ignore (request_ok conn (decide_req s2_text));
              let m = request_ok conn Wire.Metrics in
              Alcotest.(check (option string)) "ok" (Some "ok")
                (member_str "status" m);
              Alcotest.(check (option string)) "versioned"
                (Some Metrics.build_string) (member_str "version" m);
              (* The raw snapshot parses back and has both decides. *)
              let snap =
                match Json.member "data" m with
                | Some d -> (
                    match Metrics.of_json d with
                    | Ok s -> s
                    | Error msg -> Alcotest.failf "snapshot: %s" msg)
                | None -> Alcotest.fail "no data member"
              in
              let count name =
                match List.assoc_opt name snap.Metrics.histograms with
                | Some s -> Obs.Histogram.total s
                | None -> 0
              in
              Alcotest.(check int) "two decides measured" 2 (count "op.decide");
              Alcotest.(check int) "one cache hit timed" 1 (count "cache.hit");
              Alcotest.(check int) "one cache miss timed" 1 (count "cache.miss");
              (* And the exposition carries the same count. *)
              match member_str "metrics" m with
              | Some text ->
                  let has needle =
                    let ln = String.length needle and lt = String.length text in
                    let rec go i =
                      i + ln <= lt && (String.sub text i ln = needle || go (i + 1))
                    in
                    go 0
                  in
                  Alcotest.(check bool) "decide count exposed" true
                    (has "defcheck_op_decide_seconds_count 2");
                  Alcotest.(check bool) "build info exposed" true
                    (has "defcheck_build_info{")
              | None -> Alcotest.fail "no metrics text")))

let test_e2e_trace_propagation () =
  (* Router and shards share this process's telemetry plane, so one
     probe sink sees the route span and the shard's request span — both
     must carry the client's trace id, the router because it wraps
     dispatch in the context, the shard because the forwarded line
     still carries the envelope. *)
  (* Spans end on the router's and shards' threads and on pool domains:
     guard the list, and give a span that ends just after its response
     was written a moment to arrive. *)
  let seen = ref [] and seen_lock = Mutex.create () in
  let probe =
    Obs.Sink.make (fun (s : Obs.span) ->
        Mutex.protect seen_lock (fun () -> seen := (s.name, s.trace) :: !seen))
  in
  Obs.enable [ probe ];
  Fun.protect ~finally:Obs.disable @@ fun () ->
  with_sharded_cluster ~store:false (fun ~router:_ ~s0:_ ~s1:_ addr ->
      Client.with_connection addr (fun conn ->
          let envelope =
            { Wire.trace_id = Some "e2e-trace-7"; parent_span = None;
              stream = false }
          in
          let resp = request_env conn ~envelope (decide_req s2_text) in
          Alcotest.(check (option string)) "decided" (Some "ok")
            (member_str "status" resp)));
  let deadline = Unix.gettimeofday () +. 5. in
  let rec tagged name =
    List.exists
      (fun (n, tr) -> n = name && tr = Some "e2e-trace-7")
      (Mutex.protect seen_lock (fun () -> !seen))
    || Unix.gettimeofday () < deadline
       && (Thread.delay 0.01;
           tagged name)
  in
  Alcotest.(check bool) "route span carries the trace id" true
    (tagged "service.route");
  Alcotest.(check bool) "shard request span carries the trace id" true
    (tagged "service.request");
  Alcotest.(check bool) "decision-phase span carries the trace id" true
    (tagged "decide.rem")

let test_e2e_streaming_progress () =
  observed (fun () ->
      with_sharded_cluster ~store:false (fun ~router:_ ~s0:_ ~s1:_ addr ->
          Client.with_connection addr (fun conn ->
              (* Plain decide first: its result block is the reference
                 the streamed decide must reproduce byte-for-byte. *)
              let plain = request_ok conn (decide_req s3_text) in
              let frames = ref [] in
              let envelope =
                { Wire.trace_id = Some "stream-1"; parent_span = None;
                  stream = true }
              in
              let line =
                Wire.request_line ~envelope (decide_req s3_text)
              in
              let final =
                match
                  Client.request_stream conn
                    ~on_progress:(fun f -> frames := f :: !frames)
                    line
                with
                | Ok l -> (
                    match Json.parse l with
                    | Ok j -> j
                    | Error m -> Alcotest.failf "final line: %s" m)
                | Error m -> Alcotest.failf "stream failed: %s" m
              in
              Alcotest.(check bool) "at least one progress frame" true
                (!frames <> []);
              List.iter
                (fun f ->
                  match Json.parse f with
                  | Ok j -> (
                      (match member_str "progress" j with
                      | Some ("enter" | "exit") -> ()
                      | _ -> Alcotest.failf "bad progress kind: %s" f);
                      match
                        (member_str "phase" j,
                         Option.bind (Json.member "t_s" j) Json.to_float)
                      with
                      | Some _, Some t ->
                          Alcotest.(check bool) "t_s non-negative" true (t >= 0.)
                      | _ -> Alcotest.failf "frame without phase/t_s: %s" f)
                  | Error m -> Alcotest.failf "unparsable frame: %s" m)
                !frames;
              Alcotest.(check bool) "an exit frame reports a duration" true
                (List.exists
                   (fun f ->
                     match Json.parse f with
                     | Ok j ->
                         member_str "progress" j = Some "exit"
                         && Json.member "dur_s" j <> None
                     | Error _ -> false)
                   !frames);
              Alcotest.(check bool) "final line is not a frame" true
                (Json.member "progress" final = None);
              Alcotest.(check string)
                "streamed result block byte-identical to plain"
                (result_block plain) (result_block final))))

let test_e2e_observation_free_service () =
  (* The whole-plane invariant at the service level: a server running
     with telemetry fully off and one under streaming + metrics answers
     byte-identical result blocks for the same instance. *)
  Obs.disable ();
  let off =
    with_server (fun addr _srv ->
        Client.with_connection addr (fun conn ->
            result_block (request_ok conn (decide_req ~lang:"krem" s2_text))))
  in
  let on =
    observed (fun () ->
        with_server (fun addr _srv ->
            Client.with_connection addr (fun conn ->
                let envelope =
                  { Wire.trace_id = Some "obsfree"; parent_span = None;
                    stream = true }
                in
                let line =
                  Wire.request_line ~envelope (decide_req ~lang:"krem" s2_text)
                in
                let j =
                  match
                    Client.request_stream conn ~on_progress:ignore line
                  with
                  | Ok l -> (
                      match Json.parse l with
                      | Ok j -> j
                      | Error m -> Alcotest.failf "final line: %s" m)
                  | Error m -> Alcotest.failf "stream failed: %s" m
                in
                ignore (request_ok conn Wire.Metrics);
                result_block j)))
  in
  Alcotest.(check string) "verdict bytes independent of the plane" off on

(* [stats] and [metrics] render one snapshot.  The spec's naming rule —
   drop a leading "service.", then '.' becomes '_' — maps every counter
   of the [metrics] data to its [stats] key, and the two values must be
   equal.  The request counts are left out: the two reads bump them
   themselves. *)
let stat_key name =
  let name =
    if String.starts_with ~prefix:"service." name then
      String.sub name 8 (String.length name - 8)
    else name
  in
  String.map (fun c -> if c = '.' then '_' else c) name

let check_stats_metrics_agree conn =
  let stats =
    match Json.member "stats" (request_ok conn Wire.Stats) with
    | Some (Json.Obj kvs) ->
        List.filter_map
          (fun (k, v) -> Option.map (fun n -> (k, n)) (Json.to_int v))
          kvs
    | _ -> Alcotest.fail "no stats object"
  in
  let snap =
    match
      Option.bind (Json.member "data" (request_ok conn Wire.Metrics)) (fun d ->
          Result.to_option (Metrics.of_json d))
    with
    | Some s -> s
    | None -> Alcotest.fail "metrics snapshot unparsable"
  in
  let compared =
    List.filter_map
      (fun (name, v) ->
        let key = stat_key name in
        if List.mem key [ "requests"; "stats_ops"; "metrics_ops" ] then None
        else begin
          Alcotest.(check (option int))
            (Printf.sprintf "stats %s = metrics %s" key name)
            (Some v) (List.assoc_opt key stats);
          Some key
        end)
      snap.Metrics.counters
  in
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " is a compared counter") true
        (List.mem key compared))
    [
      "decides"; "deltas"; "batches"; "cache_verdict_hits";
      "cache_verdict_misses"; "cache_delta_repair_hits";
      "cache_delta_repair_misses"; "cache_text_hits"; "cache_text_misses";
      "pool_steal_success"; "pool_submitted";
    ];
  let stat key = Option.value ~default:0 (List.assoc_opt key stats) in
  Alcotest.(check bool) "the hit was counted" true
    (stat "cache_verdict_hits" >= 1);
  Alcotest.(check bool) "the delta was counted" true
    (stat "cache_delta_repair_hits" + stat "cache_delta_repair_misses" >= 1)

(* A decide that misses, the same decide again (a hit), a delta on its
   digest and a batch. *)
let drive_mixed conn =
  let cold = request_ok conn (decide_req s2_text) in
  ignore (request_ok conn (decide_req s2_text));
  let digest =
    match member_str "digest" cold with
    | Some d -> d
    | None -> Alcotest.fail "no digest in decide response"
  in
  ignore
    (request_ok conn
       (Wire.Delta
          {
            lang = "rem";
            k = None;
            fuel = None;
            timeout_s = None;
            digest;
            edit = Wire.Add_node ("w9", 7);
          }));
  ignore
    (request_ok conn
       (Wire.Batch
          {
            lang = "rem";
            k = None;
            fuel = None;
            timeout_s = None;
            instances = [ s2_text; s3_text ];
          }))

let test_e2e_stats_metrics_agree () =
  with_pool_size 2 (fun () ->
      with_server (fun addr _srv ->
          Client.with_connection addr (fun conn ->
              drive_mixed conn;
              check_stats_metrics_agree conn));
      (* Through the router: its [stats] sums the shards' stats, its
         [metrics] merges their snapshots, and the two still agree. *)
      with_sharded_cluster (fun ~router:_ ~s0:_ ~s1:_ addr ->
          Client.with_connection addr (fun conn ->
              drive_mixed conn;
              check_stats_metrics_agree conn)))

let test_e2e_router_metrics_aggregation () =
  observed (fun () ->
      with_sharded_cluster ~store:false (fun ~router ~s0:_ ~s1:_ addr ->
          Client.with_connection addr (fun conn ->
              ignore (request_ok conn (decide_req s2_text));
              ignore (request_ok conn (decide_req s3_text));
              let m = request_ok conn Wire.Metrics in
              Alcotest.(check (option string)) "ok" (Some "ok")
                (member_str "status" m);
              (* Both shards answered and identify their build. *)
              (match Json.member "shards" m with
              | Some (Json.Obj shards) ->
                  Alcotest.(check int) "two shard reports" 2
                    (List.length shards);
                  List.iter
                    (fun (_, s) ->
                      Alcotest.(check (option string)) "shard ok" (Some "ok")
                        (member_str "status" s))
                    shards
              | _ -> Alcotest.fail "no per-shard breakdown");
              (* Merged decide histogram counts every request, whichever
                 shard served it — the aggregation the router exists
                 for.  In-process shards share one registry, so compare
                 against the local capture rather than a constant. *)
              let merged =
                match Option.bind (Json.member "data" m) (fun d ->
                    Result.to_option (Metrics.of_json d))
                with
                | Some s -> s
                | None -> Alcotest.fail "merged snapshot unparsable"
              in
              let local = Metrics.capture () in
              let count snap name =
                match List.assoc_opt name snap.Metrics.histograms with
                | Some s -> Obs.Histogram.total s
                | None -> 0
              in
              Alcotest.(check bool) "decides measured" true
                (count merged "op.decide" >= 2);
              Alcotest.(check int) "aggregate = sum over shard replies"
                (2 * count local "op.decide")
                (count merged "op.decide"));
          (* Router stats: chain-LRU counters, uptime, and per-shard
             build strings ride along. *)
          Client.with_connection addr (fun conn ->
              let stats = request_ok conn Wire.Stats in
              let router_stat name =
                Option.bind (Json.member "router" stats) (fun r ->
                    Option.bind (Json.member name r) Json.to_int)
              in
              List.iter
                (fun name ->
                  match router_stat name with
                  | Some v ->
                      Alcotest.(check bool) (name ^ " non-negative") true
                        (v >= 0)
                  | None -> Alcotest.failf "router stats missing %s" name)
                [ "chain_entries"; "chain_hits"; "chain_misses";
                  "chain_evictions"; "text_entries"; "text_hits";
                  "text_misses"; "uptime_seconds"; "started_at";
                  "forwarded" ];
              match Json.member "shards" stats with
              | Some (Json.Obj shards) ->
                  List.iter
                    (fun (_, s) ->
                      Alcotest.(check (option string)) "shard version"
                        (Some Metrics.build_string) (member_str "version" s))
                    shards
              | _ -> Alcotest.fail "no per-shard stats");
          ignore router))

(* ---------- idle timeout, client deadline, shard health ---------- *)

(* ---------- the hit path ----------
   A decide's checked hit is answered on the connection's handler
   thread; the miss and an entry's first hit, which checks the
   certificate, go through the domain pool, as does every batch item.
   Each certificate is checked once. *)

let stat conn name =
  Option.value ~default:0 (pool_stat (request_ok conn Wire.Stats) name)

let batch_req instances =
  Wire.Batch { lang = "rem"; k = None; fuel = None; timeout_s = None; instances }

let test_e2e_checked_hit_skips_pool () =
  with_pool_size 2 (fun () ->
      with_server (fun addr _srv ->
          Client.with_connection addr (fun conn ->
              let submitted req =
                let before = stat conn "pool_submitted" in
                let j = request_ok conn req in
                (member_str "cache" j, stat conn "pool_submitted" - before)
              in
              let check_step what (cache, n) (cache', n') =
                Alcotest.(check (option string)) (what ^ ": cache") cache' cache;
                Alcotest.(check int) (what ^ ": pool submits") n' n
              in
              check_step "miss" (submitted (decide_req s2_text)) (Some "miss", 1);
              check_step "first hit checks on the pool"
                (submitted (decide_req s2_text)) (Some "hit", 1);
              check_step "checked hit answered inline"
                (submitted (decide_req s2_text)) (Some "hit", 0);
              ignore (request_ok conn (decide_req s3_text));
              ignore (request_ok conn (decide_req s3_text));
              let before = stat conn "pool_submitted" in
              let batch = request_ok conn (batch_req [ s2_text; s3_text ]) in
              Alcotest.(check int) "batch items run on the pool, hits too" 2
                (stat conn "pool_submitted" - before);
              match Option.bind (Json.member "results" batch) Json.to_list with
              | Some items ->
                  Alcotest.(check (list (option string))) "both items hit"
                    [ Some "hit"; Some "hit" ]
                    (List.map (member_str "cache") items)
              | None -> Alcotest.fail "no batch results")))

let test_e2e_hit_path_byte_identical () =
  (* Miss, pooled first hit and inline hit render the same result block
     as a pool-size-1 server, for a definable and a non-definable
     instance and for two languages. *)
  let cases = [ ("rem", s2_text); ("rem", s3_text); ("ree", s2_text) ] in
  let reference =
    with_pool_size 1 (fun () ->
        with_server (fun addr _srv ->
            Client.with_connection addr (fun conn ->
                List.map
                  (fun (lang, text) ->
                    result_block (request_ok conn (decide_req ~lang text)))
                  cases)))
  in
  with_pool_size 2 (fun () ->
      with_server (fun addr _srv ->
          Client.with_connection addr (fun conn ->
              List.iter2
                (fun (lang, text) want ->
                  List.iter
                    (fun what ->
                      let j = request_ok conn (decide_req ~lang text) in
                      Alcotest.(check string)
                        (Printf.sprintf "%s %s = pool size 1" lang what)
                        want (result_block j))
                    [ "miss"; "pooled hit"; "inline hit" ])
                cases reference)))

let test_e2e_seeded_entry_checked_once () =
  let o_s2 =
    match Cache.decide (Cache.create ()) ~lang:"rem" fig1 s2 with
    | Ok (o, _) -> o
    | Error msg -> Alcotest.fail msg
  in
  with_pool_size 2 (fun () ->
      with_server (fun addr srv ->
          (match Cache.insert (Server.cache srv) ~lang:"rem" fig1 s2 o_s2 with
          | Ok () -> ()
          | Error msg -> Alcotest.fail msg);
          Client.with_connection addr (fun conn ->
              let checks () =
                stat conn "cache_revalidation_ok"
                + stat conn "cache_revalidation_failures"
              in
              let before = checks () in
              List.iter
                (fun _ ->
                  Alcotest.(check (option string)) "seeded entry hits"
                    (Some "hit")
                    (member_str "cache" (request_ok conn (decide_req s2_text))))
                [ 1; 2 ];
              Alcotest.(check int) "two hits, one check" 1 (checks () - before))))

let test_e2e_inline_hit_observed () =
  (* The inline path keeps the observations of the pooled one: the hit
     is timed in [cache.hit] and its hash span reaches a streaming
     client, while no check runs. *)
  observed (fun () ->
      with_pool_size 2 (fun () ->
          with_server (fun addr _srv ->
              Client.with_connection addr (fun conn ->
                  ignore (request_ok conn (decide_req s2_text));
                  ignore (request_ok conn (decide_req s2_text));
                  let hits () =
                    match
                      Option.bind (Json.member "data" (request_ok conn Wire.Metrics))
                        (fun d -> Result.to_option (Metrics.of_json d))
                    with
                    | Some snap -> (
                        match List.assoc_opt "cache.hit" snap.Metrics.histograms with
                        | Some h -> Obs.Histogram.total h
                        | None -> 0)
                    | None -> Alcotest.fail "metrics snapshot unparsable"
                  in
                  let before = hits () in
                  let phases = ref [] in
                  let envelope =
                    { Wire.trace_id = Some "inline-1"; parent_span = None;
                      stream = true }
                  in
                  (match
                     Client.request_stream conn
                       ~on_progress:(fun f ->
                         match Json.parse f with
                         | Ok j -> phases := member_str "phase" j :: !phases
                         | Error m -> Alcotest.failf "unparsable frame: %s" m)
                       (Wire.request_line ~envelope (decide_req s2_text))
                   with
                  | Ok _ -> ()
                  | Error m -> Alcotest.failf "stream failed: %s" m);
                  Alcotest.(check int) "inline hit timed" 1 (hits () - before);
                  Alcotest.(check bool) "hash span streamed" true
                    (List.mem (Some "service.cache.hash") !phases);
                  Alcotest.(check bool) "no check on a checked hit" false
                    (List.mem (Some "service.cache.revalidate") !phases)))))

let test_e2e_idle_timeout () =
  let config =
    { Server.default_config with Server.idle_timeout_s = Some 0.2 }
  in
  with_server ~config (fun addr _srv ->
      let conn = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          (match Client.request conn Wire.Ping with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "live connection refused: %s" e);
          (* Stay idle past the timeout: the server reclaims the handler
             thread and the next request finds the connection gone. *)
          Thread.delay 0.6;
          match Client.request conn Wire.Ping with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "request succeeded on a reaped connection"))

let test_e2e_client_deadline () =
  with_server (fun addr _srv ->
      let conn = Client.connect ~deadline_s:0.3 addr in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          match Client.request conn (Wire.Sleep { ms = 1500 }) with
          | Error e ->
              Alcotest.(check string) "typed deadline error"
                "transport: request deadline expired" e
          | Ok _ -> Alcotest.fail "slow request beat a 0.3s deadline"))

let test_e2e_router_shard_unavailable () =
  (* A router whose only shard does not exist: the first decide fails
     with a typed [shard_unavailable] error, the health machinery marks
     the shard down, and subsequent requests fail fast without
     redialling until the cooldown lapses. *)
  let dead = Filename.temp_file "defdead" ".sock" in
  Sys.remove dead;
  let config =
    {
      Service.Router.default_config with
      Service.Router.connect_retries = 0;
      unhealthy_after = 1;
      health_cooldown_s = 30.;
    }
  in
  let rpath = Filename.temp_file "defroute" ".sock" in
  let router =
    Service.Router.create ~config
      ~shards:[ ("ghost", Wire.Unix_sock dead) ]
      (Wire.Unix_sock rpath)
  in
  let rth = Thread.create Service.Router.run router in
  Fun.protect
    ~finally:(fun () ->
      Service.Router.shutdown router;
      Thread.join rth)
    (fun () ->
      Client.with_connection (Wire.Unix_sock rpath) (fun conn ->
          let first = request_ok conn (decide_req s2_text) in
          Alcotest.(check (option string)) "typed status" (Some "unavailable")
            (member_str "status" first);
          (match member_str "error" first with
          | Some msg ->
              Alcotest.(check bool) "shard_unavailable prefix" true
                (String.length msg >= 17
                && String.sub msg 0 17 = "shard_unavailable")
          | None -> Alcotest.fail "no error text");
          let second = request_ok conn (decide_req s2_text) in
          Alcotest.(check (option string)) "still unavailable"
            (Some "unavailable")
            (member_str "status" second);
          let stats = request_ok conn Wire.Stats in
          let int_field f =
            match
              Option.bind (Json.member "router" stats) (fun r ->
                  Option.bind (Json.member f r) Json.to_int)
            with
            | Some n -> n
            | None -> Alcotest.failf "stats without %s" f
          in
          Alcotest.(check int) "shard marked unhealthy" 1
            (int_field "shards_unhealthy");
          Alcotest.(check bool) "fast fails counted" true
            (int_field "unavailable_fast_fails" >= 1);
          match
            Option.bind (Json.member "health" stats) (Json.member "ghost")
          with
          | Some (Json.String "down") -> ()
          | _ -> Alcotest.fail "health map does not show ghost down"))

(* ---------- the text memo end to end ---------- *)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* A router relays a shard reply only when it carries an intact seal.
   The shard here is a stand-in that answers every line with [!reply],
   so each case controls the exact bytes the router sees: a sealed line
   relays verbatim, while an unsealed one or one with a flipped byte
   becomes a typed [shard_unavailable] — plain and streaming forward
   alike. *)
let test_e2e_router_reply_seal () =
  let spath = Filename.temp_file "defstub" ".sock" in
  Sys.remove spath;
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX spath);
  Unix.listen lfd 8;
  let reply = Atomic.make "" in
  let serve c =
    let ic = Unix.in_channel_of_descr c and oc = Unix.out_channel_of_descr c in
    try
      while true do
        ignore (input_line ic);
        output_string oc (Atomic.get reply);
        output_char oc '\n';
        flush oc
      done
    with _ -> ( try Unix.close c with _ -> ())
  in
  let sth =
    Thread.create
      (fun () ->
        try
          while true do
            let c, _ = Unix.accept lfd in
            ignore (Thread.create serve c)
          done
        with _ -> ())
      ()
  in
  let config =
    { Service.Router.default_config with Service.Router.unhealthy_after = 1000 }
  in
  let rpath = Filename.temp_file "defroute" ".sock" in
  let router =
    Service.Router.create ~config
      ~shards:[ ("stub", Wire.Unix_sock spath) ]
      (Wire.Unix_sock rpath)
  in
  let rth = Thread.create Service.Router.run router in
  Fun.protect
    ~finally:(fun () ->
      Service.Router.shutdown router;
      Thread.join rth;
      (try Unix.shutdown lfd Unix.SHUTDOWN_ALL with _ -> ());
      (try Unix.close lfd with _ -> ());
      Thread.join sth;
      try Sys.remove spath with _ -> ())
    (fun () ->
      let sealed =
        Wire.seal
          [
            ("op", Wire.json_string "decide");
            ("status", Wire.json_string "ok");
            ("result", Wire.json_string "from the stub");
          ]
      in
      let flipped =
        let b = Bytes.of_string sealed in
        Bytes.set b 20 (Char.chr (Char.code (Bytes.get b 20) lxor 1));
        Bytes.to_string b
      in
      let unsealed = Wire.json_obj [ ("op", Wire.json_string "decide") ] in
      Client.with_connection (Wire.Unix_sock rpath) (fun conn ->
          List.iter
            (fun stream ->
              let line =
                Wire.request_line
                  ~envelope:{ Wire.empty_envelope with Wire.stream }
                  (decide_req s2_text)
              in
              let ask () =
                match
                  Client.request_stream conn ~on_progress:(fun _ -> ()) line
                with
                | Ok l -> l
                | Error msg -> Alcotest.failf "router transport: %s" msg
              in
              let mode = if stream then "stream" else "plain" in
              Atomic.set reply sealed;
              Alcotest.(check string) (mode ^ ": intact reply verbatim") sealed
                (ask ());
              List.iter
                (fun (what, bad) ->
                  Atomic.set reply bad;
                  match Json.parse (ask ()) with
                  | Error msg -> Alcotest.failf "unparsable answer: %s" msg
                  | Ok j ->
                      Alcotest.(check (option string))
                        (mode ^ ": " ^ what ^ " refused")
                        (Some "unavailable") (member_str "status" j);
                      Alcotest.(check bool)
                        (mode ^ ": " ^ what ^ " names the seal")
                        true
                        (match member_str "error" j with
                        | Some e -> contains e "integrity check"
                        | None -> false))
                [ ("unsealed", unsealed); ("flipped", flipped) ])
            [ false; true ]))

(* Two spellings of one instance share one verdict entry, and each
   response renders the requester's own node names — also when its
   text is answered from the memo. *)
let test_e2e_text_memo_own_names () =
  let renamed_text = Io.instance_to_string (rename_nodes fig1) s2 in
  with_server (fun addr _srv ->
      Client.with_connection addr (fun conn ->
          let rpq text = request_ok conn (decide_req ~lang:"rpq" text) in
          let first = rpq s2_text in
          let renamed = rpq renamed_text in
          let again = rpq s2_text in
          Alcotest.(check (list (option string))) "miss, then hits"
            [ Some "miss"; Some "hit"; Some "hit" ]
            (List.map (member_str "cache") [ first; renamed; again ]);
          Alcotest.(check (option string)) "one digest" (member_str "digest" first)
            (member_str "digest" renamed);
          Alcotest.(check bool) "first shows its names" true
            (contains (result_block first) "\"v1\"");
          Alcotest.(check bool) "renamed shows its names" true
            (contains (result_block renamed) "\"renamed0\""
            && not (contains (result_block renamed) "\"v1\""));
          Alcotest.(check string) "a memo hit renders like the first answer"
            (result_block first) (result_block again);
          Alcotest.(check int) "one verdict entry" 1 (stat conn "cache_verdict_size");
          Alcotest.(check int) "two memoized texts" 2 (stat conn "cache_text_size");
          Alcotest.(check int) "one memo hit" 1 (stat conn "cache_text_hits")))

let test_e2e_text_memo_parse_error () =
  let bad = decide_req "node v1\n" in
  let check_twice conn =
    let e1 = request_ok conn bad in
    let e2 = request_ok conn bad in
    Alcotest.(check (option string)) "an error" (Some "error") (member_str "status" e1);
    Alcotest.(check string) "identical twice" (Json.to_string e1) (Json.to_string e2)
  in
  with_server (fun addr _srv ->
      Client.with_connection addr (fun conn ->
          check_twice conn;
          Alcotest.(check int) "the shard memo did not grow" 0
            (stat conn "cache_text_size")));
  with_sharded_cluster ~store:false (fun ~router ~s0:_ ~s1:_ addr ->
      Client.with_connection addr (fun conn ->
          check_twice conn;
          Alcotest.(check (option int)) "the router memo did not grow" (Some 0)
            (List.assoc_opt "text_entries" (Service.Router.stats router))))

(* Decides and batch items are placed on the ring without consulting the
   chained-digest map, and the router parses each text once. *)
let test_e2e_router_text_memo () =
  with_sharded_cluster ~store:false (fun ~router ~s0:_ ~s1:_ addr ->
      Client.with_connection addr (fun conn ->
          let stat name =
            match List.assoc_opt name (Service.Router.stats router) with
            | Some v -> v
            | None -> Alcotest.failf "router stats missing %s" name
          in
          let chain () = stat "chain_hits" + stat "chain_misses" in
          let before = chain () in
          let first = request_ok conn (decide_req s2_text) in
          let again = request_ok conn (decide_req s2_text) in
          ignore (request_ok conn (batch_req [ s2_text; s3_text ]));
          Alcotest.(check int) "the chain map was not consulted" before (chain ());
          Alcotest.(check (option string)) "a repeat hits its shard" (Some "hit")
            (member_str "cache" again);
          Alcotest.(check (option string)) "same digest" (member_str "digest" first)
            (member_str "digest" again);
          Alcotest.(check int) "two texts memoized" 2 (stat "text_entries");
          Alcotest.(check int) "first sightings parsed" 2 (stat "text_misses");
          Alcotest.(check int) "repeats placed from the memo" 2 (stat "text_hits")))

(* ---------- the shared request front end ---------- *)

(* [Tier.to_hex] against the [Printf] form it replaced. *)
let printf_hex s =
  String.concat ""
    (List.map
       (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.of_seq (String.to_seq s)))

let to_hex_props =
  [
    QCheck.Test.make ~name:"to_hex equals the Printf form and round-trips"
      ~count:300 ~long_factor:20
      QCheck.(
        make ~print:Print.string
          Gen.(string_size ~gen:char (0 -- 1500)))
      (fun s ->
        Tier.to_hex s = printf_hex s && Tier.of_hex (Tier.to_hex s) = Ok s);
  ]

let test_to_hex_every_byte () =
  let all = String.init 256 Char.chr in
  Alcotest.(check string) "every byte value" (printf_hex all) (Tier.to_hex all);
  Alcotest.(check bool) "round-trips" true (Tier.of_hex (Tier.to_hex all) = Ok all)

(* A socket path that does not exist yet. *)
let fresh_sock prefix =
  let path = Filename.temp_file prefix ".sock" in
  Sys.remove path;
  path

(* Both processes bind last: a [create] that fails on its store or its
   ring leaves no socket file behind. *)
let test_bind_last () =
  let file = Filename.temp_file "defsvc" ".notadir" in
  let path = fresh_sock "defbind" in
  let store = Filename.concat file "x" in
  (match
     Server.create
       ~config:{ Server.default_config with Server.store_dir = Some store }
       (Wire.Unix_sock path)
   with
  | exception Failure msg ->
      Alcotest.(check bool) "the error names the store" true (contains msg store)
  | _ -> Alcotest.fail "a store under a regular file opened");
  Alcotest.(check bool) "no shard socket left" false (Sys.file_exists path);
  (match
     Service.Router.create
       ~shards:[ ("a", Wire.Unix_sock "a.sock"); ("a", Wire.Unix_sock "b.sock") ]
       (Wire.Unix_sock path)
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate shard names accepted");
  Alcotest.(check bool) "no router socket left" false (Sys.file_exists path);
  Sys.remove file

(* A router over one shard that does not exist: enough for every op the
   router answers itself. *)
let with_lone_router f =
  let rpath = fresh_sock "defroute" in
  let router =
    Service.Router.create
      ~shards:[ ("ghost", Wire.Unix_sock (fresh_sock "defghost")) ]
      (Wire.Unix_sock rpath)
  in
  let rth = Thread.create Service.Router.run router in
  Fun.protect
    ~finally:(fun () ->
      Service.Router.shutdown router;
      Thread.join rth)
    (fun () -> f router (Wire.Unix_sock rpath))

(* A [create] that fails after its store could be opened leaves no
   file descriptor open: neither a bad admission gate nor a bad cache
   capacity leaks the store's log and snapshot handles. *)
let test_failed_create_closes_store () =
  let open_fds () =
    if Sys.file_exists "/proc/self/fd" then
      Some (Array.length (Sys.readdir "/proc/self/fd"))
    else None
  in
  let path = fresh_sock "defleak" in
  List.iter
    (fun (what, config) ->
      let before = open_fds () in
      (match
         Server.create
           ~config:{ config with Server.store_dir = Some (fresh_store_dir ()) }
           (Wire.Unix_sock path)
       with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s accepted" what);
      Alcotest.(check (option int)) (what ^ ": no fd left open") before
        (open_fds ());
      Alcotest.(check bool) (what ^ ": no socket left") false
        (Sys.file_exists path))
    [
      ("max_inflight 0", { Server.default_config with Server.max_inflight = 0 });
      ( "verdict capacity 0",
        {
          Server.default_config with
          Server.cache =
            { Cache.verdict_capacity = 0 };
        } );
    ]

(* The lines the front end refuses before any dispatch, each with the
   error text it must carry when that text is fixed. *)
let refused_lines =
  let sealed = Wire.seal_line (Wire.request_to_string Wire.Ping) in
  let flipped =
    String.mapi (fun i c -> if i = 3 then Char.chr (Char.code c lxor 1) else c) sealed
  in
  [
    ("flipped seal", flipped, Some "request failed integrity check");
    ("unparsable json", "{\"op\":}", None);
    ("unknown op", "{\"op\":\"frobnicate\"}", None);
  ]

(* One case list for both front ends: each refused line gets a sealed,
   typed error and the connection survives it; blank lines are skipped;
   and the process's [errors] stat rises by exactly the refused count. *)
let check_front_end ~errors addr =
  let before = errors () in
  Client.with_connection addr (fun conn ->
      let ping what =
        match Client.request_raw conn (Wire.request_to_string Wire.Ping) with
        | Ok line ->
            Alcotest.(check bool) (what ^ ": connection survives") true
              (contains line "\"status\":\"ok\"")
        | Error msg -> Alcotest.failf "%s: %s" what msg
      in
      List.iter
        (fun (what, line, msg) ->
          (match Client.request_raw conn line with
          | Error e -> Alcotest.failf "%s: %s" what e
          | Ok reply -> (
              match Json.parse reply with
              | Error e -> Alcotest.failf "%s: unparsable reply %s" what e
              | Ok j ->
                  Alcotest.(check (option string)) (what ^ ": error") (Some "error")
                    (member_str "status" j);
                  Alcotest.(check (option string)) (what ^ ": op") (Some "unknown")
                    (member_str "op" j);
                  Option.iter
                    (fun m ->
                      Alcotest.(check (option string)) (what ^ ": text") (Some m)
                        (member_str "error" j))
                    msg));
          ping what)
        refused_lines;
      ping "blank lines";
      match
        Client.request_raw conn ("\n   \n" ^ Wire.request_to_string Wire.Ping)
      with
      | Ok line ->
          Alcotest.(check bool) "blank lines skipped" true
            (contains line "\"op\":\"ping\"")
      | Error msg -> Alcotest.failf "blank lines: %s" msg);
  Alcotest.(check int) "errors counts each refused line"
    (List.length refused_lines) (errors () - before)

let test_front_end_shard () =
  with_server (fun addr srv ->
      check_front_end addr ~errors:(fun () ->
          List.assoc "errors" (Server.stats srv)))

let test_front_end_router () =
  with_lone_router (fun router addr ->
      check_front_end addr ~errors:(fun () ->
          Option.value ~default:0
            (List.assoc_opt "errors" (Service.Router.stats router))))

let test_router_shard_direct_ops () =
  with_lone_router (fun _router addr ->
      Client.with_connection addr (fun conn ->
          List.iter
            (fun (op, req) ->
              let j = request_ok conn req in
              Alcotest.(check (option string)) (op ^ " refused") (Some "error")
                (member_str "status" j);
              Alcotest.(check (option string)) (op ^ " names its op") (Some op)
                (member_str "op" j))
            [
              ("export", Wire.Export { limit = None });
              ("import", Wire.Import { entries = [] });
            ]))

let () =
  Alcotest.run "service"
    [
      ( "json",
        [
          ("parse", `Quick, test_json_parse);
          ("roundtrip", `Quick, test_json_roundtrip);
          ("unicode", `Quick, test_json_unicode);
          ("errors", `Quick, test_json_errors);
          ("to_int", `Quick, test_json_to_int);
        ] );
      ("lru", [ ("semantics", `Quick, test_lru) ]);
      ("lru model", List.map QCheck_alcotest.to_alcotest lru_model_props);
      ( "content_hash",
        [
          ("node-name invariance", `Quick, test_hash_name_invariance);
          ("value-automorphism invariance", `Quick, test_hash_automorphism_invariance);
          ("edge-order invariance", `Quick, test_hash_edge_order_invariance);
          ("sensitivity", `Quick, test_hash_sensitivity);
          ("no collisions in 10k samples", `Slow, test_hash_no_collisions);
          ("golden digests", `Quick, test_hash_golden);
        ] );
      ( "cache",
        [
          ("miss then hit", `Quick, test_cache_miss_then_hit);
          ("hit across renaming", `Quick, test_cache_hit_across_renaming);
          ("Unknown never cached", `Quick, test_cache_unknown_not_cached);
          ("revalidation drops bogus entries", `Quick,
           test_cache_revalidation_drops_bogus_entries);
          ("eviction", `Quick, test_cache_eviction);
        ] );
      ( "text memo",
        List.map QCheck_alcotest.to_alcotest text_memo_props
        @ [
            ("rem and krem k=2 keyed apart", `Quick, test_text_memo_lang_separation);
            ("parse errors never memoized", `Quick, test_text_memo_parse_error);
          ] );
      ( "admission",
        [
          ("overload", `Quick, test_admission_overload);
          ("queueing", `Quick, test_admission_queueing);
          ("drain", `Quick, test_admission_drain);
        ] );
      ( "server",
        [
          ("ping, decide, cache hit", `Quick, test_e2e_ping_decide_cache);
          ("batch and malformed requests", `Quick, test_e2e_batch_and_errors);
          ("ping while busy", `Quick, test_e2e_ping_while_busy);
          ("overload refusal", `Quick, test_e2e_overload);
          ("pool executes request bodies", `Quick, test_e2e_pool_execution);
          ("admitted batches are never refused", `Quick,
           test_e2e_admitted_batches_never_refused);
          ("idle timeout reaps parked connections", `Quick, test_e2e_idle_timeout);
          ("client deadline", `Quick, test_e2e_client_deadline);
          ("shutdown drains", `Quick, test_e2e_shutdown_drains);
          ("wire roundtrip", `Quick, test_wire_roundtrip);
        ] );
      ( "tier",
        [
          ("codec and hex", `Quick, test_tier_codec);
          ("write-through and promotion", `Quick,
           test_cache_write_through_and_promotion);
          ("restart serves byte-identical warm hit", `Quick,
           test_cache_restart_byte_identical);
          ("eviction backstopped by store", `Quick,
           test_cache_eviction_backstopped_by_store);
          ("bogus record dropped on first hit", `Quick,
           test_tier_bogus_record_dropped_on_first_hit);
          ("stale version header dropped on find", `Quick,
           test_tier_stale_magic_dropped);
          ("to_hex every byte value", `Quick, test_to_hex_every_byte);
        ]
        @ List.map QCheck_alcotest.to_alcotest to_hex_props );
      ("ring", [ ("deterministic placement", `Quick, test_ring_deterministic) ]);
      ( "client",
        [
          ("connect retry backoff", `Quick, test_client_retry_backoff);
          ("retry jitter bounds", `Quick, test_client_retry_jitter);
        ] );
      ( "router",
        [
          ("decide via router", `Quick, test_e2e_router_decide);
          ("batch split and reassembly", `Quick, test_e2e_router_batch);
          ("delta chain routing", `Quick, test_e2e_router_delta_chain);
          ("shard restart serves warm", `Quick, test_e2e_shard_restart_serves_warm);
          ("shard unavailable is typed and fast", `Quick,
           test_e2e_router_shard_unavailable);
          ("export/import/compact", `Quick, test_e2e_export_import_compact);
          ("rebalance", `Quick, test_e2e_rebalance);
          ("text memo and ring placement", `Quick, test_e2e_router_text_memo);
          ("reply seal required, relay verbatim", `Quick,
           test_e2e_router_reply_seal);
        ] );
      ( "observability",
        [
          ("stats uptime and version", `Quick, test_e2e_stats_uptime_version);
          ("metrics op", `Quick, test_e2e_metrics_op);
          ("trace id crosses the router", `Quick, test_e2e_trace_propagation);
          ("streaming progress frames", `Quick, test_e2e_streaming_progress);
          ("verdict bytes plane-independent", `Quick,
           test_e2e_observation_free_service);
          ("router metrics aggregation", `Quick,
           test_e2e_router_metrics_aggregation);
          ("stats and metrics agree", `Quick, test_e2e_stats_metrics_agree);
        ] );
      ( "front end",
        [
          ("a failed create binds nothing", `Quick, test_bind_last);
          ("a failed create leaks no fd", `Quick,
           test_failed_create_closes_store);
          ("shard: bad lines refused", `Quick, test_front_end_shard);
          ("router: bad lines refused", `Quick, test_front_end_router);
          ("router: shard-direct op named", `Quick,
           test_router_shard_direct_ops);
        ] );
      ( "hit path",
        [
          ("checked hit skips the pool", `Quick, test_e2e_checked_hit_skips_pool);
          ("result bytes across miss, pooled and inline hit", `Quick,
           test_e2e_hit_path_byte_identical);
          ("seeded entry checked once", `Quick,
           test_e2e_seeded_entry_checked_once);
          ("inline hit observed", `Quick, test_e2e_inline_hit_observed);
          ("memo hits render the requester's names", `Quick,
           test_e2e_text_memo_own_names);
          ("unparsable texts: same error, no memo", `Quick,
           test_e2e_text_memo_parse_error);
        ] );
    ]
