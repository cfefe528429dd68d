module Data_graph = Datagraph.Data_graph
module Tuple_relation = Datagraph.Tuple_relation
module Bitset = Util.Bitset
module Bitmatrix = Util.Bitmatrix

type t = int array

let is_hom g h =
  let n = Data_graph.size g in
  Array.length h = n
  && Array.for_all (fun x -> x >= 0 && x < n) h
  && List.for_all
       (fun (p, a, q) -> Data_graph.mem_edge g h.(p) a h.(q))
       (Data_graph.edges g)
  &&
  let reach = Data_graph.reachability_matrix g in
  let ok = ref true in
  for p = 0 to n - 1 do
    for q = 0 to n - 1 do
      if Bitmatrix.get reach p q then
        if Data_graph.same_value g p q <> Data_graph.same_value g h.(p) h.(q)
        then ok := false
    done
  done;
  !ok

let identity g = Array.init (Data_graph.size g) Fun.id

(* ------------------------------------------------------------------ *)
(* CSP machinery.  Domains are bitsets with a maintained cardinality;
   constraints are the edge constraints (h(u),h(v)) ∈ E_a and the data
   constraints same_value(h(p),h(q)) = same_value(p,q) for reachable
   (p,q).  Both are binary, so AC-3 applies uniformly.  A support check
   is one word-parallel row-AND ([Bitset.disjoint] of a constraint row
   with the neighbour domain), and every domain removal is recorded on
   a trail so backtracking undoes exactly the removals of the abandoned
   subtree instead of copying all domains at every branch node.         *)

type domain = { bits : Bitset.t; mutable card : int }

type csp = {
  n : int;
  (* Binary constraints as (u, v, allowed, allowedᵀ); rows of [allowed]
     index u-values, rows of the transpose index v-values.  The tables
     are shared: every variable pair with the same edge labels and the
     same data kind points at one matrix pair, and tables are read-only
     once built, so the domains that search one CSP share them too. *)
  constraints : (int * int * Bitmatrix.t * Bitmatrix.t) array;
  (* For each variable, indices of constraints mentioning it. *)
  incident : int list array;
  (* Root domains after the initial arc-consistency pass — a pure
     function of the CSP, computed once and copied into each search.
     [Root_unknown] = not yet computed; [Root_wiped] = wiped out (no
     solutions at all); [Root_doms] = the arc-consistent template.
     Atomic because a CSP handle is shared across domains (the cache
     below is keyed by graph uid): racing domains compute identical
     templates and the CAS loser adopts the winner's, which publishes
     the template's bitsets with a proper happens-before edge. *)
  root : root Atomic.t;
}

and root = Root_unknown | Root_wiped | Root_doms of domain array

type state = {
  doms : domain array;
  (* Removals, packed as var * n + value. *)
  mutable trail : int array;
  mutable trail_len : int;
  (* AC-3 worklist, shared across all branch nodes of one search.  The
     drain loop restores [enqueued] to all-false before returning (or on
     Wipeout), so no per-propagation allocation is needed. *)
  mutable work : int array;
  mutable work_len : int;
  enqueued : bool array;
}

(* What a reachable pair {p, q}, p ≠ q, asks of its images: the same
   data value or distinct ones.  Pairs that are not reachable either
   way (and self-loops) ask nothing. *)
type data_kind = No_data | Same | Diff

(* The label ids of an ordered pair (u, v) that carries edges, and the
   data kind merged into its table. *)
type edge_pair = { mutable labels : int list; mutable data : data_kind }

(* The constraint of a variable pair is the intersection of the
   adjacency matrices of its edge labels and of its data matrix, so it
   depends only on (label set, data kind).  A graph has far more
   constrained pairs than distinct such keys (a 56-node Figure 3 graph
   has 366 edge pairs but 16 keys), so each key's table, its transpose and
   its never-prunes test are computed once and shared by every pair that
   carries the key. *)
let build_csp_uncached g =
  let n = Data_graph.size g in
  let reach = Data_graph.reachability_matrix g in
  let pairs : (int, edge_pair) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (u, a, v) ->
      let l = Data_graph.label_id g a in
      match Hashtbl.find_opt pairs ((u * n) + v) with
      | Some e -> e.labels <- l :: e.labels
      | None -> Hashtbl.add pairs ((u * n) + v) { labels = [ l ]; data = No_data })
    (Data_graph.edges g);
  (* The same-value and distinct-value matrices, one row per value
     class.  Both are symmetric, hence their own transposes. *)
  let classes = Array.init (Data_graph.delta g) (fun _ -> Bitset.create n) in
  for x = 0 to n - 1 do
    Bitset.add classes.(Data_graph.value_index g x) x
  done;
  let same = Bitmatrix.create n n in
  let diff = Bitmatrix.create n n in
  for x = 0 to n - 1 do
    let c = classes.(Data_graph.value_index g x) in
    Bitset.union_inplace (Bitmatrix.row same x) c;
    let d = Bitmatrix.row diff x in
    Bitset.fill d;
    Bitset.diff_inplace d c
  done;
  (* A table whose every row is full can never prune a value; revising
     it on every propagation is pure waste, so its pairs get no
     constraint.  In particular, on a single-valued graph the [same]
     matrix is full and every standalone data constraint drops out. *)
  let never_prunes m =
    let full = ref true in
    for x = 0 to n - 1 do
      if Bitset.cardinal (Bitmatrix.row m x) <> n then full := false
    done;
    !full
  in
  let tables = Hashtbl.create 32 in
  let table labels data =
    match Hashtbl.find_opt tables (labels, data) with
    | Some t -> t
    | None ->
        let data_matrix =
          match data with No_data -> None | Same -> Some same | Diff -> Some diff
        in
        let m, mt =
          match labels with
          | [] ->
              let d = Option.get data_matrix in
              (d, d)
          | l :: rest ->
              let m = Bitmatrix.copy (Data_graph.adjacency_matrix g l) in
              List.iter
                (fun l -> Bitmatrix.inter_inplace m (Data_graph.adjacency_matrix g l))
                rest;
              Option.iter (Bitmatrix.inter_inplace m) data_matrix;
              (m, Bitmatrix.transpose m)
        in
        let t = if never_prunes m then None else Some (m, mt) in
        Hashtbl.add tables (labels, data) t;
        t
  in
  let constraints = ref [] in
  let add u v labels data =
    match table labels data with
    | Some (m, mt) -> constraints := (u, v, m, mt) :: !constraints
    | None -> ()
  in
  (* [revise] works both directions, so one data constraint per
     unordered reachable pair {p, q} suffices; when the pair also carries
     edges (either way round), the data kind joins those edge tables
     instead of adding a second constraint on the same pair. *)
  for p = 0 to n - 1 do
    for q = p + 1 to n - 1 do
      if Bitmatrix.get reach p q || Bitmatrix.get reach q p then begin
        let kind =
          if Data_graph.value_index g p = Data_graph.value_index g q then Same
          else Diff
        in
        let merged = ref false in
        List.iter
          (fun key ->
            match Hashtbl.find_opt pairs key with
            | Some e ->
                e.data <- kind;
                merged := true
            | None -> ())
          [ (p * n) + q; (q * n) + p ];
        if not !merged then add p q [] kind
      end
    done
  done;
  Hashtbl.iter
    (fun key e -> add (key / n) (key mod n) (List.sort_uniq compare e.labels) e.data)
    pairs;
  let constraints = Array.of_list !constraints in
  let incident = Array.make n [] in
  Array.iteri
    (fun ci (u, v, _, _) ->
      incident.(u) <- ci :: incident.(u);
      if v <> u then incident.(v) <- ci :: incident.(v))
    constraints;
  { n; constraints; incident; root = Atomic.make Root_unknown }

(* The CSP is a pure function of the (immutable) graph; remember the
   most recent ones so repeated searches on the same graphs — the
   census, the benchmarks, any preservation check over many relations —
   build each once.  The cache is a small move-to-front list rather than
   a single slot: deciding two graphs alternately (e.g. comparing a
   graph against a rewritten variant) must not rebuild the network on
   every call.  Eviction drops the least recently used entry.

   The cache is global mutable state probed from every domain that runs
   a hom search ([decide_batch] fans ucrdpq instances across the pool),
   so probes and insertions hold [csp_cache_lock]; the build itself runs
   outside the lock (it can take milliseconds on bigger graphs) with a
   re-check before insertion, adopting a racing winner's CSP so all
   domains share one root-domain template per graph. *)
let csp_cache_capacity = 8
let csp_cache : (int * csp) list ref = ref []
let csp_cache_lock = Mutex.create ()

let c_csp_hits = Obs.Counter.make "hom.csp_cache_hits"
let c_csp_misses = Obs.Counter.make "hom.csp_cache_misses"
let c_root_hits = Obs.Counter.make "hom.root_domain_hits"
let c_root_misses = Obs.Counter.make "hom.root_domain_misses"

let csp_cache_probe uid =
  let rec extract acc = function
    | [] -> None
    | (u, csp) :: rest when u = uid -> Some (csp, List.rev_append acc rest)
    | e :: rest -> extract (e :: acc) rest
  in
  Mutex.lock csp_cache_lock;
  let r =
    match extract [] !csp_cache with
    | Some (csp, rest) ->
        csp_cache := (uid, csp) :: rest;
        Some csp
    | None -> None
  in
  Mutex.unlock csp_cache_lock;
  r

let csp_cache_insert uid csp =
  Mutex.lock csp_cache_lock;
  let r =
    (* Another domain may have built and inserted the same graph's CSP
       while we were building; keep the incumbent (its root template may
       already be populated). *)
    match List.assoc_opt uid !csp_cache with
    | Some incumbent -> incumbent
    | None ->
        let entries = (uid, csp) :: !csp_cache in
        csp_cache :=
          (if List.length entries > csp_cache_capacity then
             List.filteri (fun i _ -> i < csp_cache_capacity) entries
           else entries);
        csp
  in
  Mutex.unlock csp_cache_lock;
  r

let build_csp g =
  let uid = Data_graph.uid g in
  match csp_cache_probe uid with
  | Some csp ->
      Obs.Counter.incr c_csp_hits;
      csp
  | None ->
      Obs.Counter.incr c_csp_misses;
      let csp = Obs.Span.with_ "csp.build" (fun () -> build_csp_uncached g) in
      csp_cache_insert uid csp

exception Wipeout

let fresh_state csp doms =
  {
    doms;
    trail = Array.make (max 16 (4 * csp.n)) 0;
    trail_len = 0;
    work = Array.make (max 16 (Array.length csp.constraints)) 0;
    work_len = 0;
    enqueued = Array.make (Array.length csp.constraints) false;
  }

let trail_push st e =
  if st.trail_len >= Array.length st.trail then begin
    let t = Array.make (2 * Array.length st.trail) 0 in
    Array.blit st.trail 0 t 0 st.trail_len;
    st.trail <- t
  end;
  st.trail.(st.trail_len) <- e;
  st.trail_len <- st.trail_len + 1

let dom_remove csp st var x =
  let d = st.doms.(var) in
  if Bitset.mem d.bits x then begin
    Bitset.remove d.bits x;
    d.card <- d.card - 1;
    trail_push st ((var * csp.n) + x)
  end

let undo_to csp st mark =
  while st.trail_len > mark do
    st.trail_len <- st.trail_len - 1;
    let e = st.trail.(st.trail_len) in
    let d = st.doms.(e / csp.n) in
    Bitset.add d.bits (e mod csp.n);
    d.card <- d.card + 1
  done

(* Revise both sides of constraint [ci]; reports which sides shrank, or
   raises [Wipeout]. *)
let revise csp st ci =
  let u, v, m, mt = csp.constraints.(ci) in
  let du = st.doms.(u) and dv = st.doms.(v) in
  let changed_u = ref false and changed_v = ref false in
  Bitset.iter
    (fun x ->
      if Bitset.disjoint (Bitmatrix.row m x) dv.bits then begin
        dom_remove csp st u x;
        changed_u := true
      end)
    du.bits;
  Bitset.iter
    (fun y ->
      if Bitset.disjoint (Bitmatrix.row mt y) du.bits then begin
        dom_remove csp st v y;
        changed_v := true
      end)
    dv.bits;
  if du.card = 0 || dv.card = 0 then raise Wipeout;
  (u, !changed_u, v, !changed_v)

let push_work st ci =
  if not st.enqueued.(ci) then begin
    st.enqueued.(ci) <- true;
    if st.work_len >= Array.length st.work then begin
      let w = Array.make (2 * Array.length st.work) 0 in
      Array.blit st.work 0 w 0 st.work_len;
      st.work <- w
    end;
    st.work.(st.work_len) <- ci;
    st.work_len <- st.work_len + 1
  end

let propagate csp st dirty =
  List.iter (fun v -> List.iter (push_work st) csp.incident.(v)) dirty;
  try
    while st.work_len > 0 do
      st.work_len <- st.work_len - 1;
      let ci = st.work.(st.work_len) in
      st.enqueued.(ci) <- false;
      let u, cu, v, cv = revise csp st ci in
      if cu then List.iter (push_work st) csp.incident.(u);
      if cv then List.iter (push_work st) csp.incident.(v)
    done
  with Wipeout ->
    (* Restore the worklist invariant before unwinding. *)
    while st.work_len > 0 do
      st.work_len <- st.work_len - 1;
      st.enqueued.(st.work.(st.work_len)) <- false
    done;
    raise Wipeout

let dom_first d =
  match Bitset.first d.bits with
  | Some x -> x
  | None -> raise Wipeout

(* Arc-consistent root domains: a pure function of the CSP, so computed
   once and copied into each search instead of re-propagating all
   constraints from full domains on every call.  Racing domains both
   propagate (identical fixpoint) and the CAS loser adopts the winner's
   template; the template itself is never mutated — searches copy it. *)
let root_doms csp =
  match Atomic.get csp.root with
  | Root_doms doms ->
      Obs.Counter.incr c_root_hits;
      Some doms
  | Root_wiped ->
      Obs.Counter.incr c_root_hits;
      None
  | Root_unknown -> (
      Obs.Counter.incr c_root_misses;
      let doms =
        Array.init csp.n (fun _ -> { bits = Bitset.full csp.n; card = csp.n })
      in
      let st = fresh_state csp doms in
      let r =
        try
          propagate csp st (List.init csp.n Fun.id);
          Root_doms doms
        with Wipeout -> Root_wiped
      in
      if Atomic.compare_and_set csp.root Root_unknown r then
        match r with Root_doms d -> Some d | _ -> None
      else
        match Atomic.get csp.root with
        | Root_doms d -> Some d
        | Root_wiped -> None
        | Root_unknown -> assert false (* the root state is never cleared *))

let copy_doms doms =
  Array.map (fun d -> { bits = Bitset.copy d.bits; card = d.card }) doms

exception Out_of_budget

(* Generic backtracking search.  [prune doms] may declare a subtree
   hopeless; [leaf h] is called on every complete homomorphism and
   returns [true] to stop with this solution.  Every branch node consumes
   one step of [budget]; exhaustion aborts the whole search via
   [Out_of_budget] (caught by the budgeted entry points).  The root node
   is tested on the shared template itself: [prune] is pure, so a root
   that prunes costs its one step and no copy of the domains. *)
let solve ?budget ?(nodes = ref 0) csp ~prune ~leaf =
  let exception Found of int array in
  (* Take a node's step, count it, and report whether to search below it. *)
  let enter doms =
    (match budget with
    | Some b when not (Engine.Budget.take b) -> raise Out_of_budget
    | _ -> ());
    incr nodes;
    not (prune doms)
  in
  let rec expand st =
    let var = ref (-1) and best = ref max_int in
    Array.iteri
      (fun v d ->
        if d.card > 1 && d.card < !best then begin
          var := v;
          best := d.card
        end)
      st.doms;
    if !var = -1 then begin
      let h = Array.map dom_first st.doms in
      if leaf h then raise (Found h)
    end
    else
      let var = !var in
      let values = Bitset.to_list st.doms.(var).bits in
      List.iter
        (fun x ->
          let mark = st.trail_len in
          (try
             List.iter (fun y -> if y <> x then dom_remove csp st var y) values;
             propagate csp st [ var ];
             if enter st.doms then expand st
           with Wipeout -> ());
          undo_to csp st mark)
        values
  in
  match root_doms csp with
  | None -> None
  | Some template -> (
      if not (enter template) then None
      else
        try
          expand (fresh_state csp (copy_doms template));
          None
        with Found h -> Some h)

type csp_handle = csp

let csp_of = build_csp

type violation_outcome = {
  result : [ `Preserved | `Violation of t * int list | `Budget_exhausted ];
  nodes_explored : int;
}

let search_violating ?budget ?csp g s =
  Obs.Span.with_ "csp.search" @@ fun () ->
  let csp = match csp with Some c -> c | None -> build_csp g in
  (* Prune when every tuple of S is forced to stay inside S: enumerate
     each tuple's image product as long as it is small; a large product
     conservatively counts as a possible violation. *)
  let cap = 4096 in
  let tuple_can_escape doms tup =
    let rec go prefix_rev = function
      | [] -> not (Tuple_relation.mem s (List.rev prefix_rev))
      | p :: rest ->
          let escaped = ref false in
          Bitset.iter
            (fun x -> if not !escaped then escaped := go (x :: prefix_rev) rest)
            doms.(p).bits;
          !escaped
    in
    let size = List.fold_left (fun acc p -> acc * doms.(p).card) 1 tup in
    if size > cap then true else go [] tup
  in
  let prune doms = not (Tuple_relation.exists (tuple_can_escape doms) s) in
  let escapes h tup = not (Tuple_relation.mem s (List.map (fun p -> h.(p)) tup)) in
  let leaf h = Tuple_relation.exists (escapes h) s in
  let nodes = ref 0 in
  let result =
    match solve ?budget ~nodes csp ~prune ~leaf with
    | exception Out_of_budget -> `Budget_exhausted
    | None -> `Preserved
    | Some h ->
        let tup = Option.get (Tuple_relation.find_opt (escapes h) s) in
        `Violation (h, tup)
  in
  { result; nodes_explored = !nodes }

let find_violating g s =
  match (search_violating g s).result with
  | `Violation (h, _) -> Some h
  | `Preserved -> None
  | `Budget_exhausted -> assert false (* no budget was given *)

let all ?(limit = 100_000) g =
  let csp = build_csp g in
  let acc = ref [] in
  let c = ref 0 in
  let (_ : int array option) =
    solve csp
      ~prune:(fun _ -> false)
      ~leaf:(fun h ->
        acc := Array.copy h :: !acc;
        incr c;
        !c >= limit)
  in
  List.rev !acc

let count ?(limit = 1_000_000) g =
  let csp = build_csp g in
  let c = ref 0 in
  let (_ : int array option) =
    solve csp
      ~prune:(fun _ -> false)
      ~leaf:(fun _ ->
        incr c;
        !c >= limit)
  in
  !c

let pp g ppf h =
  Format.fprintf ppf "{@[<hov>";
  Array.iteri
    (fun p x ->
      if p > 0 then Format.fprintf ppf ",@ ";
      Format.fprintf ppf "%s↦%s" (Data_graph.name g p) (Data_graph.name g x))
    h;
  Format.fprintf ppf "@]}"
