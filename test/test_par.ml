(* The multicore layer: domain-pool semantics, domain-safety of the
   shared engine state (budgets, caches), and the hard determinism
   requirement — every decider returns the same verdict, certificate and
   fuel consumption at any pool size. *)

module DG = Datagraph.Data_graph
module TR = Datagraph.Tuple_relation
module Gen = Datagraph.Graph_gen
module Budget = Engine.Budget
module Instance = Engine.Instance
module Outcome = Engine.Outcome
module Registry = Engine.Registry
module Pool = Par.Pool

let () = Definability.Deciders.init ()

let fig1 = Gen.fig1 ()
let s1 = Gen.fig1_s1 fig1
let s2 = Gen.fig1_s2 fig1
let s3 = Gen.fig1_s3 fig1
let all_langs = [ "krem"; "ree"; "rem"; "rpq"; "ucrdpq" ]
let pool_sizes = [ 1; 2; 4; 8 ]

(* A canonical string for everything the determinism contract covers —
   verdict, certificate, counterexample, reason, and the step count
   (fuel consumption must match too).  Wall time and decider extras are
   the documented carve-out. *)
let verdict_repr (o : Outcome.t) =
  let v =
    match o.verdict with
    | Outcome.Definable c ->
        Printf.sprintf "definable[%s:%s]"
          (Outcome.certificate_lang c)
          (Outcome.certificate_to_string c)
    | Outcome.Not_definable (Outcome.Missing_pairs ps) ->
        Printf.sprintf "not_definable[missing:%s]"
          (String.concat ";"
             (List.map (fun (u, v) -> Printf.sprintf "%d,%d" u v) ps))
    | Outcome.Not_definable (Outcome.Violating_hom { hom; tuple }) ->
        Printf.sprintf "not_definable[hom:%s|tuple:%s]"
          (String.concat ","
             (List.map string_of_int (Array.to_list hom)))
          (String.concat "," (List.map string_of_int tuple))
    | Outcome.Unknown r ->
        Printf.sprintf "unknown[%s]" (Outcome.reason_to_string r)
  in
  Printf.sprintf "%s steps=%d" v o.stats.steps

let decide ?budget ?(k = 1) lang g s =
  let inst = Instance.of_binary g s in
  match Registry.decide ?budget ~params:{ Registry.k } ~lang inst with
  | Ok o -> o
  | Error msg -> Alcotest.fail msg

let with_pool_size n f =
  let saved = Pool.size () in
  Pool.set_size n;
  Fun.protect ~finally:(fun () -> Pool.set_size saved) f

(* ---------- pool semantics ---------- *)

let test_pool_run_order () =
  with_pool_size 4 @@ fun () ->
  let thunks = Array.init 100 (fun i () -> i * i) in
  Alcotest.(check (array int))
    "results line up with input order"
    (Array.init 100 (fun i -> i * i))
    (Pool.run thunks)

let test_pool_map_chunking () =
  List.iter
    (fun size ->
      with_pool_size size @@ fun () ->
      let input = Array.init 1000 Fun.id in
      Alcotest.(check (array int))
        (Printf.sprintf "map at pool size %d" size)
        (Array.map (fun x -> x + 1) input)
        (Pool.map (fun x -> x + 1) input);
      Alcotest.(check (list int))
        (Printf.sprintf "map_list at pool size %d" size)
        [ 2; 4; 6 ]
        (Pool.map_list (fun x -> 2 * x) [ 1; 2; 3 ]))
    pool_sizes

let test_pool_exception () =
  with_pool_size 4 @@ fun () ->
  let boom i = Failure (Printf.sprintf "boom %d" i) in
  (match
     Pool.run
       (Array.init 16 (fun i () -> if i mod 5 = 2 then raise (boom i) else i))
   with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure msg ->
      Alcotest.(check string) "lowest-index exception wins" "boom 2" msg);
  (* The pool survives a failed batch. *)
  Alcotest.(check (array int))
    "pool usable after exception" [| 0; 1; 2 |]
    (Pool.run (Array.init 3 (fun i () -> i)))

let test_pool_nesting () =
  with_pool_size 4 @@ fun () ->
  (* A task that itself maps over the pool: the inner batch must run
     inline (no deadlock, same results). *)
  let result =
    Pool.map
      (fun i ->
        Array.fold_left ( + ) 0 (Pool.map (fun j -> (i * 10) + j) (Array.init 4 Fun.id)))
      (Array.init 8 Fun.id)
  in
  Alcotest.(check (array int))
    "nested maps compute correctly"
    (Array.init 8 (fun i -> (4 * 10 * i) + 6))
    result

let test_pool_size_env () =
  Alcotest.(check bool) "size is at least 1" true (Pool.size () >= 1);
  with_pool_size 3 @@ fun () ->
  Alcotest.(check int) "set_size takes effect" 3 (Pool.size ())

(* ---------- work-stealing deque ---------- *)

module Deque = Par.Deque

let test_deque_lifo () =
  let q = Deque.create () in
  for i = 1 to 5 do
    Deque.push q i
  done;
  Alcotest.(check int) "length" 5 (Deque.length q);
  List.iter
    (fun expect ->
      Alcotest.(check (option int)) "owner pops LIFO" (Some expect) (Deque.pop q))
    [ 5; 4; 3; 2; 1 ];
  Alcotest.(check (option int)) "then empty" None (Deque.pop q);
  Alcotest.(check (option int)) "stays empty" None (Deque.pop q)

let steal_opt q =
  match Deque.steal q with `Stolen v -> Some v | `Empty | `Retry -> None

let test_deque_fifo_steals () =
  let q = Deque.create () in
  for i = 1 to 5 do
    Deque.push q i
  done;
  List.iter
    (fun expect ->
      Alcotest.(check (option int)) "thief steals FIFO" (Some expect)
        (steal_opt q))
    [ 1; 2; 3; 4; 5 ];
  (match Deque.steal q with
  | `Empty -> ()
  | `Stolen _ | `Retry -> Alcotest.fail "steal from empty must report `Empty");
  (* Opposite ends meet in the middle. *)
  for i = 1 to 6 do
    Deque.push q (10 + i)
  done;
  Alcotest.(check (option int)) "steal oldest" (Some 11) (steal_opt q);
  Alcotest.(check (option int)) "pop newest" (Some 16) (Deque.pop q);
  Alcotest.(check (option int)) "steal next" (Some 12) (steal_opt q);
  Alcotest.(check (option int)) "pop next" (Some 15) (Deque.pop q);
  Alcotest.(check int) "two left" 2 (Deque.length q)

let test_deque_growth () =
  (* Start at the minimum capacity and push far past it: growth must
     preserve order and lose nothing, from both ends. *)
  let q = Deque.create ~capacity:1 () in
  for i = 0 to 999 do
    Deque.push q i
  done;
  for i = 0 to 499 do
    Alcotest.(check (option int))
      (Printf.sprintf "steal %d after growth" i)
      (Some i) (steal_opt q)
  done;
  for i = 999 downto 500 do
    Alcotest.(check (option int))
      (Printf.sprintf "pop %d after growth" i)
      (Some i) (Deque.pop q)
  done;
  Alcotest.(check (option int)) "drained" None (Deque.pop q)

let test_deque_empty_races () =
  (* One owner domain pushes [n] values and pops aggressively; three
     thieves hammer [steal] the whole time, racing the owner for the
     last element over and over.  Every value must be delivered exactly
     once, across all participants. *)
  let n = 20_000 in
  let q = Deque.create ~capacity:2 () in
  let seen = Array.init n (fun _ -> Atomic.make 0) in
  let stop = Atomic.make false in
  let thieves =
    Array.init 3 (fun _ ->
        Domain.spawn (fun () ->
            let continue_ = ref true in
            while !continue_ do
              match Deque.steal q with
              | `Stolen v -> Atomic.incr seen.(v)
              | `Retry -> Domain.cpu_relax ()
              | `Empty ->
                  if Atomic.get stop then continue_ := false
                  else Domain.cpu_relax ()
            done))
  in
  for i = 0 to n - 1 do
    Deque.push q i;
    (* Pop in bursts so the owner keeps racing thieves at b = t. *)
    if i mod 3 = 0 then
      match Deque.pop q with Some v -> Atomic.incr seen.(v) | None -> ()
  done;
  let rec drain () =
    match Deque.pop q with
    | Some v ->
        Atomic.incr seen.(v);
        drain ()
    | None -> ()
  in
  drain ();
  Atomic.set stop true;
  Array.iter Domain.join thieves;
  Array.iteri
    (fun i c ->
      let c = Atomic.get c in
      if c <> 1 then
        Alcotest.failf "value %d delivered %d times (want exactly once)" i c)
    seen

(* ---------- steal-path determinism under skewed costs ---------- *)

(* A spin that the compiler cannot elide: data-dependent accumulator. *)
let burn units =
  let acc = ref 0 in
  for i = 1 to units * 64 do
    acc := (!acc * 31) + i
  done;
  !acc

(* Task sets with one pathologically heavy subtree: the heavy task pins
   whoever claims it while the others get stolen around it, maximally
   exercising uneven-split scheduling.  Results (and hence their order)
   must not depend on pool size or on the run. *)
let qcheck_skewed_tasks =
  QCheck.Test.make ~name:"skewed task sets: results independent of stealing"
    ~count:30
    QCheck.(
      pair (int_range 2 24) (int_range 0 1_000_000)
      (* (task count, seed); the heavy index is derived from the seed *))
    (fun (n, seed) ->
      let heavy = seed mod n in
      let task i () =
        let units = if i = heavy then 1000 else 1 in
        (i, burn units)
      in
      let reference = with_pool_size 1 (fun () -> Pool.run (Array.init n task)) in
      List.for_all
        (fun size ->
          List.for_all
            (fun _run ->
              with_pool_size size (fun () -> Pool.run (Array.init n task))
              = reference)
            [ 1; 2 ])
        [ 2; 4; 8 ])

let qcheck_skewed_deciders =
  (* At the decider level: random instances, verdict/certificate/fuel
     byte-identity across pool sizes 1/2/4/8 and across repeated runs.
     Every decider searches sequentially at any pool size; this pins
     that nothing else the pool size touches (the per-graph caches
     shared across domains included) leaks into a verdict. *)
  QCheck.Test.make ~name:"random instances: verdict bytes independent of pool"
    ~count:8
    QCheck.(int_range 100 10_000)
    (fun seed ->
      let g =
        Gen.random ~seed ~n:4 ~delta:2 ~labels:[ "a"; "b" ] ~density:0.35 ()
      in
      let s = Gen.random_reachable_relation ~seed g ~count:2 in
      List.for_all
        (fun lang ->
          let reference =
            with_pool_size 1 (fun () -> verdict_repr (decide lang g s))
          in
          List.for_all
            (fun size ->
              List.for_all
                (fun _run ->
                  with_pool_size size (fun () ->
                      verdict_repr (decide lang g s))
                  = reference)
                [ 1; 2 ])
            pool_sizes)
        [ "krem"; "ree"; "rem"; "ucrdpq" ])

(* ---------- submission path and nesting signals ---------- *)

let pool_stat key =
  match List.assoc_opt key (Pool.stats ()) with
  | Some v -> v
  | None -> Alcotest.failf "Pool.stats has no %S field" key

(* Pool workers are spawned domains, so a task runs in the pool iff it
   runs on a domain other than the test's own (the main domain, id 0). *)
let test_in_pool () =
  let caller = Domain.self () in
  Alcotest.(check int) "not in pool on the main domain" 0 (caller :> int);
  with_pool_size 4 @@ fun () ->
  match Pool.submit [| Domain.self |] with
  | [| inside |] ->
      Alcotest.(check bool) "submitted tasks run on pool workers" true
        (inside <> caller);
      Alcotest.(check bool) "still not in pool after" true
        (Domain.self () = caller)
  | _ -> Alcotest.fail "submit of one task failed"

let test_submit_order_and_errors () =
  with_pool_size 4 @@ fun () ->
  Alcotest.(check (array int))
    "submit returns results in input order"
    (Array.init 50 (fun i -> i * 3))
    (Pool.submit (Array.init 50 (fun i () -> i * 3)));
  match
    Pool.submit
      (Array.init 16 (fun i () ->
           if i mod 7 = 3 then failwith (Printf.sprintf "sub %d" i) else i))
  with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure msg ->
      Alcotest.(check string) "lowest-index exception wins" "sub 3" msg

let test_submit_counts_steals () =
  with_pool_size 4 @@ fun () ->
  let before = pool_stat "steal_success" in
  ignore (Pool.submit (Array.init 8 (fun i () -> burn (i + 1))));
  let after = pool_stat "steal_success" in
  (* The submitter does not participate, so every one of the 8 tasks was
     necessarily a steal. *)
  Alcotest.(check bool)
    (Printf.sprintf "steal_success grew by >= 8 (before %d, after %d)" before
       after)
    true
    (after - before >= 8)

let test_nested_inline_counter () =
  with_pool_size 4 @@ fun () ->
  let before = pool_stat "nested_inline" in
  (match
     Pool.submit
       [|
         (fun () ->
           (* A nested batch from inside a pool task: must inline, and
              must say so. *)
           Array.fold_left ( + ) 0 (Pool.run (Array.init 5 (fun i () -> i))))
       |]
   with
  | [| v |] -> Alcotest.(check int) "nested run computes" 10 v
  | _ -> Alcotest.fail "submit failed");
  let after = pool_stat "nested_inline" in
  Alcotest.(check bool)
    (Printf.sprintf "nested_inline grew (before %d, after %d)" before after)
    true (after > before)

let test_submit_size_one_inline () =
  with_pool_size 1 @@ fun () ->
  let caller = Domain.self () in
  match Pool.submit [| Domain.self |] with
  | [| inside |] ->
      Alcotest.(check bool) "size 1 runs submissions inline on the caller"
        true (inside = caller)
  | _ -> Alcotest.fail "size-1 submit returned the wrong shape"

(* ---------- budget domain-safety ---------- *)

let test_budget_concurrent_takes () =
  let fuel = 10_000 in
  let b = Budget.create ~fuel () in
  let counts =
    Array.map Domain.join
      (Array.init 4 (fun _ ->
           Domain.spawn (fun () ->
               let n = ref 0 in
               while Budget.take b do
                 incr n
               done;
               !n)))
  in
  Alcotest.(check int)
    "successful takes across domains = fuel exactly" fuel
    (Array.fold_left ( + ) 0 counts);
  Alcotest.(check int) "used is exact after death" fuel (Budget.used b);
  Alcotest.(check bool) "exhausted and sticky" true (Budget.exhausted b);
  Alcotest.(check bool) "takes stay refused" false (Budget.take b)

(* ---------- shared-cache hammer ---------- *)

let test_cache_hammer () =
  (* Four raw domains race the lazy per-graph caches (adjacency,
     reachability, Hom's CSP + root-domain caches) on the same graphs.
     Every domain must see the same answers; the caches must not tear. *)
  let graphs =
    List.map
      (fun seed ->
        let g =
          Gen.random ~seed ~n:5 ~delta:2 ~labels:[ "a"; "b" ] ~density:0.4 ()
        in
        (g, Gen.random_reachable_relation ~seed g ~count:2))
      [ 11; 12; 13 ]
  in
  let work () =
    List.map
      (fun (g, s) ->
        let reach = DG.reachability_matrix g in
        let reach_bits = ref 0 in
        for u = 0 to DG.size g - 1 do
          for v = 0 to DG.size g - 1 do
            if Util.Bitmatrix.get reach u v then incr reach_bits
          done
        done;
        let adj_bits = ref 0 in
        List.iteri
          (fun a _ ->
            let m = DG.adjacency_matrix g a in
            for u = 0 to DG.size g - 1 do
              for v = 0 to DG.size g - 1 do
                if Util.Bitmatrix.get m u v then incr adj_bits
              done
            done)
          (DG.alphabet g);
        let viol =
          Definability.Hom.search_violating g (TR.of_binary s)
        in
        ( !reach_bits,
          !adj_bits,
          match viol.Definability.Hom.result with
          | `Preserved -> "preserved"
          | `Violation (h, _) ->
              String.concat "," (List.map string_of_int (Array.to_list h))
          | `Budget_exhausted -> "exhausted" ))
      graphs
  in
  let expected = work () in
  let results =
    Array.map Domain.join
      (Array.init 4 (fun _ -> Domain.spawn work))
  in
  Array.iteri
    (fun i r ->
      Alcotest.(check bool)
        (Printf.sprintf "domain %d agrees with the sequential answer" i)
        true (r = expected))
    results

(* ---------- decider agreement across pool sizes ---------- *)

let random_instances =
  List.map
    (fun seed ->
      let g =
        Gen.random ~seed ~n:4 ~delta:2 ~labels:[ "a"; "b" ] ~density:0.35 ()
      in
      (g, Gen.random_reachable_relation ~seed g ~count:2))
    [ 1; 2; 3; 4; 5 ]

let test_decider_agreement () =
  let instances = (fig1, s1) :: (fig1, s2) :: (fig1, s3) :: random_instances in
  List.iter
    (fun lang ->
      List.iteri
        (fun idx (g, s) ->
          let reference =
            with_pool_size 1 @@ fun () -> verdict_repr (decide lang g s)
          in
          List.iter
            (fun size ->
              (* Twice per size: steal order varies between runs and must
                 not leak into the verdict. *)
              List.iter
                (fun run ->
                  let got =
                    with_pool_size size @@ fun () ->
                    verdict_repr (decide lang g s)
                  in
                  Alcotest.(check string)
                    (Printf.sprintf "%s instance %d at pool size %d, run %d"
                       lang idx size run)
                    reference got)
                [ 1; 2 ])
            pool_sizes)
        instances)
    all_langs

let test_exhaustion_determinism () =
  (* A fuel bound small enough to trip every decider: exhaustion must
     hit the same step at every pool size (finite fuel forces the
     sequential search order). *)
  List.iter
    (fun lang ->
      let reference =
        with_pool_size 1 @@ fun () ->
        verdict_repr (decide ~budget:(Budget.create ~fuel:3 ()) lang fig1 s2)
      in
      List.iter
        (fun size ->
          let got =
            with_pool_size size @@ fun () ->
            verdict_repr
              (decide ~budget:(Budget.create ~fuel:3 ()) lang fig1 s2)
          in
          Alcotest.(check string)
            (Printf.sprintf "%s exhaustion at pool size %d" lang size)
            reference got)
        pool_sizes)
    all_langs

(* ---------- golden exploration ---------- *)

(* The agreement tests above compare pool sizes only with each other, so
   a change to the exploration order that hit every size alike would pass
   them.  These pin the exact kernel outputs — verdict, witness paths or
   terms, exploration counts — at pool sizes 1 and 2, on the bench's
   witness (seed 8) and REE closure (seed 15) instances and on Fig. 1,
   including runs cut short by fuel or by the tuple cap.

   The rpq cases and the wide krem cases (more than 63 states, so each
   state set spans several machine words) were recorded on the Bitset
   implementation of the witness search, before its flat-word rewrite:
   they pin that the rewrite explores, counts and reports exactly what
   the old code did. *)

module Remd = Definability.Rem_definability
module Reed = Definability.Ree_definability
module WS = Definability.Witness_search
module Hom = Definability.Hom
module Sat = Reductions.Sat_reduction
module Cnf = Reductions.Cnf

let bench_instance ~seed ~n ~delta =
  let g = Gen.random ~seed ~n ~delta ~labels:[ "a" ] ~density:0.45 () in
  (g, Gen.random_reachable_relation ~seed g ~count:2)

let pair_repr (u, v) = Printf.sprintf "%d,%d" u v

let witness_repr (o : WS.outcome) =
  let verdict =
    match o.verdict with
    | WS.Definable -> "definable"
    | WS.Exhausted -> "exhausted"
    | WS.Not_definable ps ->
        "not_definable[" ^ String.concat ";" (List.map pair_repr ps) ^ "]"
  in
  Printf.sprintf "%s tuples=%d witnesses=%s" verdict o.tuples_explored
    (String.concat ";"
       (List.map
          (fun (p, path) -> pair_repr p ^ ":" ^ String.concat "." path)
          o.witnesses))

let ree_repr (r : Reed.search) =
  Printf.sprintf "closure=%d height=%d truncated=%b missing=%s witnesses=%s"
    r.closure_size r.max_height r.truncated
    (String.concat ";" (List.map pair_repr r.missing))
    (String.concat ";"
       (List.map
          (fun (p, t) -> pair_repr p ^ ":" ^ Ree_lang.Ree_term.to_string t)
          r.witnesses))

(* (name, kernel call, pinned output). *)
let golden_cases () =
  let gw, sw = bench_instance ~seed:8 ~n:6 ~delta:2 in
  let gr, sr = bench_instance ~seed:15 ~n:5 ~delta:2 in
  (* 8 nodes, δ = 3, k = 2: 8·4² = 128 assignment states, 3 words. *)
  let gk =
    Gen.random ~seed:1 ~n:8 ~delta:3 ~labels:[ "a" ] ~density:0.45 ()
  in
  let sk = Gen.random_reachable_relation ~seed:1 gk ~count:1 in
  (* 70 nodes, so the RPQ search's rows span 2 words. *)
  let gp =
    Gen.random ~seed:2 ~n:70 ~delta:2 ~labels:[ "a"; "b" ] ~density:0.05 ()
  in
  let sp = Gen.random_reachable_relation ~seed:2 gp ~count:2 in
  let fuel n = Budget.create ~fuel:n () in
  [
    ( "rpq fig1 s1",
      (fun () -> witness_repr (Definability.Rpq_definability.search fig1 s1)),
      "definable tuples=4 witnesses=0,2:a.a.a;0,3:a.a.a;0,7:a.a.a;0,8:a.a.a;"
      ^ "1,9:a.a.a;4,2:a.a.a;4,7:a.a.a;5,3:a.a.a;5,8:a.a.a;6,9:a.a.a" );
    ( "rpq seed 2, 70 nodes",
      (fun () -> witness_repr (Definability.Rpq_definability.search gp sp)),
      "not_definable[1,69;9,43] tuples=222 witnesses=" );
    ( "krem k=2 seed 1, 128 states",
      (fun () -> witness_repr (Remd.search_k gk ~k:2 sk)),
      "definable tuples=34164 witnesses=4,0:@{r2} a[r1!= & r2=]."
      ^ "a[r1!= & r2!=].@{r1} a[r1!= & r2=].a[r1!= & r2=].a[r1!= & r2!=]."
      ^ "a[r1!= & r2=]" );
    ( "krem k=2 seed 1, 128 states, fuel 5000",
      (fun () -> witness_repr (Remd.search_k ~budget:(fuel 5000) gk ~k:2 sk)),
      "exhausted tuples=5000 witnesses=" );
    ( "krem k=2 seed 1, 128 states, max 3000 tuples",
      (fun () -> witness_repr (Remd.search_k ~max_tuples:3000 gk ~k:2 sk)),
      "exhausted tuples=3000 witnesses=" );
    ( "rem seed 8",
      (fun () -> witness_repr (Remd.search ~max_tuples:200_000 gw sw)),
      "not_definable[0,2;5,2] tuples=28 witnesses=" );
    ( "krem k=2 seed 8",
      (fun () -> witness_repr (Remd.search_k gw ~k:2 sw)),
      "not_definable[0,2;5,2] tuples=322 witnesses=" );
    ( "krem k=2 seed 8, fuel 100",
      (fun () ->
        witness_repr (Remd.search_k ~budget:(fuel 100) gw ~k:2 sw)),
      "exhausted tuples=100 witnesses=" );
    ( "krem k=2 fig1 s2",
      (fun () -> witness_repr (Remd.search_k fig1 ~k:2 s2)),
      "definable tuples=236 witnesses="
      ^ "0,3:@{r2} a[r1!= & r2!=].@{r1} a[r1!= & r2=].a[r1= & r2!=];"
      ^ "6,9:@{r2} a[r1!= & r2!=].@{r1} a[r1!= & r2=].a[r1= & r2!=]" );
    ( "krem k=2 fig1 s3",
      (fun () -> witness_repr (Remd.search_k fig1 ~k:2 s3)),
      "definable tuples=240 witnesses="
      ^ "0,2:@{r2} a[r1!= & r2!=].@{r1} a[r1= & r2!=].a[r1!= & r2=]" );
    ( "rem fig1 s3",
      (fun () -> witness_repr (Remd.search fig1 s3)),
      "definable tuples=24 witnesses=0,2:a!.a=1.a=0" );
    ( "rem fig1 s3, max 5 tuples",
      (fun () -> witness_repr (Remd.search ~max_tuples:5 fig1 s3)),
      "exhausted tuples=5 witnesses=" );
    ( "ree seed 15",
      (fun () -> ree_repr (Reed.search ~max_size:2_000 gr sr)),
      "closure=447 height=3 truncated=false missing=0,2;4,3 witnesses=" );
    ( "ree seed 15, fuel 60",
      (fun () -> ree_repr (Reed.search ~budget:(fuel 60) gr sr)),
      "closure=60 height=1 truncated=true missing=0,2;4,3 witnesses=" );
    ( "ree fig1 s1",
      (fun () -> ree_repr (Reed.search fig1 s1)),
      "closure=14 height=1 truncated=false missing= witnesses="
      ^ "0,2:a!= (a a);0,3:a!= (a a);0,7:a!= (a a);0,8:a!= (a a);"
      ^ "1,9:a!= (a a);4,2:a!= (a a);4,7:a!= (a a);5,3:a= (a a);"
      ^ "5,8:a= (a a);6,9:a!= (a a)" );
    ( "ree fig1 s3",
      (fun () -> ree_repr (Reed.search fig1 s3)),
      "closure=35 height=2 truncated=false missing= "
      ^ "witnesses=0,2:(a!= (a= a))=" );
  ]

let hom_repr (o : Hom.violation_outcome) =
  let r =
    match o.result with
    | `Preserved -> "preserved"
    | `Budget_exhausted -> "exhausted"
    | `Violation (h, tup) ->
        Printf.sprintf "violation[hom:%s|tuple:%s]"
          (String.concat "," (List.map string_of_int (Array.to_list h)))
          (String.concat "," (List.map string_of_int tup))
  in
  Printf.sprintf "%s nodes=%d" r o.nodes_explored

let thm35 f =
  let r = Sat.build f in
  (r.Sat.graph, r.Sat.target)

(* All 8 clauses over 3 variables: unsatisfiable, so S is preserved;
   136 nodes, so each table row spans 3 words. *)
let thm35_all_clauses () =
  thm35
    (Cnf.make ~num_vars:3
       (List.concat_map
          (fun a ->
            List.concat_map
              (fun b -> List.map (fun c -> (a, b * 2, c * 3)) [ 1; -1 ])
              [ 1; -1 ])
          [ 1; -1 ]))

(* The [Hom] violation search on the Theorem 35 reduction graphs and on
   the bench's hom graph, with and without a fuel cut.  Recorded on the
   per-pair constraint builder, before constraint tables were shared
   between variable pairs: they pin that sharing leaves the search's
   result, homomorphism, tuple and node count unchanged. *)
let hom_golden_cases () =
  (* Satisfiable: the search finds a violating homomorphism. *)
  let g_sat, s_sat = thm35 (Cnf.random ~seed:1 ~num_vars:3 ~num_clauses:3 ()) in
  let g_unsat, s_unsat = thm35_all_clauses () in
  let gh =
    Gen.random ~seed:23 ~n:7 ~delta:3 ~labels:[ "a"; "b" ] ~density:0.35 ()
  in
  let sh = TR.of_binary (Gen.random_reachable_relation ~seed:23 gh ~count:3) in
  let search ?fuel g s () =
    let budget = Option.map (fun n -> Budget.create ~fuel:n ()) fuel in
    hom_repr (Hom.search_violating ?budget g s)
  in
  [
    ( "hom thm35 sat seed 1",
      search g_sat s_sat,
      "violation[hom:0,1,0,0,1,1,1,0,39,45,54,11,12,13,14,15,16,17,18,19,20,"
      ^ "21,22,23,24,25,26,27,28,29,30,31,32,33,34,12,13,14,15,16,17,18,20,"
      ^ "21,22,23,24,25,26,28,29,30,31,32,33,34|tuple:8] nodes=8" );
    ( "hom thm35 unsat 3 vars, 136 nodes",
      search g_unsat s_unsat,
      "preserved nodes=33" );
    ( "hom thm35 unsat 3 vars, 136 nodes, fuel 32",
      search ~fuel:32 g_unsat s_unsat,
      "exhausted nodes=32" );
    ( "hom thm35 sat seed 1, fuel 7",
      search ~fuel:7 g_sat s_sat,
      "exhausted nodes=7" );
    ( "hom thm35 sat seed 1, fuel 8",
      search ~fuel:8 g_sat s_sat,
      "violation[hom:0,1,0,0,1,1,1,0,39,45,54,11,12,13,14,15,16,17,18,19,20,"
      ^ "21,22,23,24,25,26,27,28,29,30,31,32,33,34,12,13,14,15,16,17,18,20,"
      ^ "21,22,23,24,25,26,28,29,30,31,32,33,34|tuple:8] nodes=8" );
    ("hom seed 23", search gh sh, "preserved nodes=1");
  ]

let test_golden_exploration () =
  List.iter
    (fun (name, f, expected) ->
      List.iter
        (fun size ->
          Alcotest.(check string)
            (Printf.sprintf "%s at pool size %d" name size)
            expected (with_pool_size size f))
        [ 1; 2 ])
    (golden_cases () @ hom_golden_cases ())

(* ---------- decide_batch ---------- *)

let test_decide_batch_order_and_agreement () =
  with_pool_size 4 @@ fun () ->
  let cases = [ (fig1, s1); (fig1, s2); (fig1, s3) ] @ random_instances in
  let insts = List.map (fun (g, s) -> Instance.of_binary g s) cases in
  List.iter
    (fun lang ->
      let singles =
        List.map (fun (g, s) -> verdict_repr (decide lang g s)) cases
      in
      let batched =
        Registry.decide_batch ~params:{ Registry.k = 1 } ~lang insts
        |> List.map (function
             | Ok o -> verdict_repr o
             | Error msg -> Alcotest.fail msg)
      in
      Alcotest.(check (list string))
        (Printf.sprintf "batch of %s agrees with decide, in order" lang)
        singles batched)
    all_langs

let test_decide_batch_duplicates () =
  with_pool_size 4 @@ fun () ->
  (* The same instance value decided many times concurrently: the memo
     cache inside the instance is raced, results must agree. *)
  let inst = Instance.of_binary fig1 s2 in
  let results =
    Registry.decide_batch ~lang:"rem" (List.init 8 (fun _ -> inst))
    |> List.map (function
         | Ok o -> verdict_repr o
         | Error msg -> Alcotest.fail msg)
  in
  match results with
  | [] -> Alcotest.fail "empty batch result"
  | r :: rest ->
      List.iteri
        (fun i r' ->
          Alcotest.(check string)
            (Printf.sprintf "duplicate %d agrees" (i + 1))
            r r')
        rest

let test_decide_batch_budgets () =
  with_pool_size 2 @@ fun () ->
  let inst = Instance.of_binary fig1 s2 in
  let results =
    Registry.decide_batch
      ~make_budget:(fun () -> Budget.create ~fuel:3 ())
      ~lang:"rem"
      (List.init 4 (fun _ -> inst))
  in
  List.iter
    (function
      | Ok (o : Outcome.t) ->
          Alcotest.(check string)
            "each instance gets its own fresh budget" "unknown"
            (Outcome.verdict_name o.verdict)
      | Error msg -> Alcotest.fail msg)
    results

(* The pool parallelizes requests only: a kernel called on its own pushes
   no pool task at any pool size, and a batch pushes one task per chunk
   of instances, whichever domain ends up running each. *)
let test_kernel_pushes_nothing () =
  with_pool_size 2 @@ fun () ->
  let g, s = thm35_all_clauses () in
  let before = pool_stat "deque_push" in
  Alcotest.(check string) "unlimited-fuel search on the main domain"
    "preserved nodes=33" (hom_repr (Hom.search_violating g s));
  Alcotest.(check int) "deque_push unchanged" before (pool_stat "deque_push")

let test_decide_batch_pushes_chunks () =
  with_pool_size 2 @@ fun () ->
  let insts =
    List.init 16 (fun i ->
        let g, s =
          thm35
            (Cnf.random ~seed:(i + 1) ~num_vars:3 ~num_clauses:(2 + (i mod 2))
               ())
        in
        Instance.create_exn g s)
  in
  let before = pool_stat "deque_push" in
  List.iter
    (function Ok _ -> () | Error msg -> Alcotest.fail msg)
    (Registry.decide_batch ~lang:"ucrdpq" insts);
  (* 16 instances at size 2: chunks of 1 + 15 / 8 = 2, so 8 tasks. *)
  Alcotest.(check int) "one push per chunk" 8 (pool_stat "deque_push" - before)

let test_decide_batch_unknown_lang () =
  let inst = Instance.of_binary fig1 s1 in
  match Registry.decide_batch ~lang:"datalog" [ inst; inst ] with
  | [ Error a; Error b ] ->
      Alcotest.(check string) "same error per instance" a b
  | _ -> Alcotest.fail "expected one Error per instance"

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "run order" `Quick test_pool_run_order;
          Alcotest.test_case "map chunking" `Quick test_pool_map_chunking;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
          Alcotest.test_case "nesting" `Quick test_pool_nesting;
          Alcotest.test_case "sizing" `Quick test_pool_size_env;
        ] );
      ( "deque",
        [
          Alcotest.test_case "owner ops are LIFO" `Quick test_deque_lifo;
          Alcotest.test_case "steals are FIFO" `Quick test_deque_fifo_steals;
          Alcotest.test_case "growth preserves order" `Quick test_deque_growth;
          Alcotest.test_case "empty races deliver exactly once" `Quick
            test_deque_empty_races;
        ] );
      ( "stealing",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_skewed_tasks; qcheck_skewed_deciders ] );
      ( "submit",
        [
          Alcotest.test_case "in_pool signal" `Quick test_in_pool;
          Alcotest.test_case "order and errors" `Quick
            test_submit_order_and_errors;
          Alcotest.test_case "all submitted tasks are steals" `Quick
            test_submit_counts_steals;
          Alcotest.test_case "nested inline is counted" `Quick
            test_nested_inline_counter;
          Alcotest.test_case "size one runs inline" `Quick
            test_submit_size_one_inline;
        ] );
      ( "budget",
        [
          Alcotest.test_case "concurrent takes" `Quick
            test_budget_concurrent_takes;
        ] );
      ( "caches",
        [ Alcotest.test_case "4-domain hammer" `Quick test_cache_hammer ] );
      ( "determinism",
        [
          Alcotest.test_case "all deciders, pool sizes 1/2/4" `Quick
            test_decider_agreement;
          Alcotest.test_case "budget exhaustion" `Quick
            test_exhaustion_determinism;
          Alcotest.test_case "golden exploration, pool sizes 1/2" `Quick
            test_golden_exploration;
        ] );
      ( "batch",
        [
          Alcotest.test_case "order and agreement" `Quick
            test_decide_batch_order_and_agreement;
          Alcotest.test_case "duplicate instances" `Quick
            test_decide_batch_duplicates;
          Alcotest.test_case "per-instance budgets" `Quick
            test_decide_batch_budgets;
          Alcotest.test_case "unknown language" `Quick
            test_decide_batch_unknown_lang;
          Alcotest.test_case "kernels push no pool task" `Quick
            test_kernel_pushes_nothing;
          Alcotest.test_case "one push per chunk" `Quick
            test_decide_batch_pushes_chunks;
        ] );
    ]
