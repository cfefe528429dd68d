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
(* CSP machinery.  Both conditions of Definition 33 are binary
   constraints over node images: the edge constraints (h(u),h(v)) ∈ E_a
   and the data constraints same_value(h(p),h(q)) = same_value(p,q) for
   reachable (p,q).  A constraint is never tabulated: the row of a value
   b under it is the intersection of b's successor (or predecessor) row
   under each of its labels with b's same-class (or other-class) row, all
   of them word rows of the graph.  Each constraint is two directed arcs,
   and revising the arc (x ← y) is

     dom x ∧= ⋃_{b ∈ dom y} (∩_labels row b ∧ data row b),

   |dom y| row reads of a few words, stopping as soon as the union
   covers dom x — so a revise gets cheaper as the domains shrink.
   Domains are flat words, n·w for n variables of w words each; every
   changed word is recorded on a trail so backtracking undoes exactly the
   changes of the abandoned subtree instead of copying all domains at
   every branch node. *)

type csp = {
  n : int;
  w : int;  (* words per row and per domain *)
  (* Tables of n rows of [w] words, flat and read-only once built:
     label l's successor rows at [l], its predecessor rows at [nl + l],
     then the same-class and the other-class rows. *)
  tables : int array array;
  (* Arc [a < arcs] revises variable [arc_x.(a)] against the support
     variable [arc_y.(a)], intersecting the rows of the tables
     [arc_tab.(arc_first.(a))] up to [arc_tab.(arc_first.(a + 1) - 1)].
     Arcs come in pairs: [a] and [a lxor 1] are the two directions of
     one constraint.  The arrays are sized for the most arcs the graph
     could have, so they may run past [arcs]. *)
  arcs : int;
  arc_x : int array;
  arc_y : int array;
  arc_first : int array;
  arc_tab : int array;
  (* The arcs whose support variable is [y]: [support.(sup_start.(y))]
     up to [sup_start.(y + 1)] — the arcs to requeue when dom y shrinks. *)
  sup_start : int array;
  support : int array;
  (* Root domains after the initial arc-consistency pass — a pure
     function of the CSP, computed once and copied into each search.
     [Root_unknown] = not yet computed; [Root_wiped] = wiped out (no
     solutions at all); [Root_doms] = the arc-consistent template.
     Atomic because a CSP handle is shared across domains (the cache
     below is keyed by graph uid): racing domains compute identical
     templates and the CAS loser adopts the winner's, which publishes
     the template with a proper happens-before edge. *)
  root : root Atomic.t;
}

and root = Root_unknown | Root_wiped | Root_doms of doms

(* Variable [x] owns [words.(x*w) .. words.(x*w + w - 1)]; [card.(x)] is
   its cardinality. *)
and doms = { words : int array; card : int array }

type state = {
  doms : doms;
  (* Changed words, packed as pairs (index into [doms.words], old word). *)
  mutable trail : int array;
  mutable trail_len : int;
  (* Arc worklist, shared across all branch nodes of one search; every
     arc is queued at most once, so it never grows.  The drain loop
     restores [enqueued] to all-false before returning (or on Wipeout),
     so no per-propagation allocation is needed. *)
  work : int array;
  mutable work_len : int;
  enqueued : bool array;
  (* The union being built by [revise]. *)
  acc : int array;
}

let bpw = Bitset.bits_per_word

(* Rows of [n] bits, [w] words each, flat. *)
let row_table n w = Array.make (n * w) 0

let set_bit t w r c =
  let i = (r * w) + (c / bpw) in
  t.(i) <- t.(i) lor (1 lsl (c mod bpw))

(* An int array filled from the front, sized for the most it will
   hold. *)
type vec = { a : int array; mutable len : int }

let vec cap = { a = Array.make cap 0; len = 0 }

let push v x =
  v.a.(v.len) <- x;
  v.len <- v.len + 1

(* The arcs of a graph's CSP:
   - every ordered pair (u, v) carrying edges is one constraint: the
     values of u need an image with an edge of every one of the pair's
     labels to an image of v (the rows of u's arc are the labels'
     predecessor rows, those of v's arc their successor rows);
   - every reachable pair {p, q}, p ≠ q, asks its images for the same
     data value or distinct ones.  When the pair carries edges (either
     way round), that class row joins each of its edge constraints;
     otherwise it is a constraint of its own.
   On a single-valued graph every class row is full: it is left out of
   the edge constraints, and the data constraints, which could never
   prune a value, are not built at all. *)
let build_csp_uncached g =
  let n = Data_graph.size g in
  let w = max 1 ((n + bpw - 1) / bpw) in
  let nl = Data_graph.label_count g in
  let tables = Array.init ((2 * nl) + 2) (fun _ -> row_table n w) in
  for u = 0 to n - 1 do
    for l = 0 to nl - 1 do
      List.iter
        (fun v ->
          set_bit tables.(l) w u v;
          set_bit tables.(nl + l) w v u)
        (Data_graph.succ_id g u l)
    done
  done;
  let data = Data_graph.delta g > 1 in
  let same = 2 * nl and diff = (2 * nl) + 1 in
  if data then
    for b = 0 to n - 1 do
      for x = 0 to n - 1 do
        if Data_graph.value_index g x = Data_graph.value_index g b then
          set_bit tables.(same) w b x
        else set_bit tables.(diff) w b x
      done
    done;
  let class_of p q =
    if Data_graph.value_index g p = Data_graph.value_index g q then same else diff
  in
  (* At most one constraint per edge, with one row per label and a class
     row, and one per pair of nodes. *)
  let m = Data_graph.edge_count g in
  let pairs = if data then n * (n - 1) else 0 in
  let arc_x = vec ((2 * m) + pairs) and arc_y = vec ((2 * m) + pairs) in
  let arc_first = vec ((2 * m) + pairs + 1) and arc_tab = vec ((4 * m) + pairs) in
  let arc x y =
    push arc_x x;
    push arc_y y;
    push arc_first arc_tab.len
  in
  (* [edged] marks the unordered pairs that carry edges.  For the
     current source u, [stamp.(v) = u] once (u, v) has an edge; its
     labels are [first.(v)] and then [more.(v)]. *)
  let edged = Bytes.make (if data then n * n else 0) '\000' in
  let stamp = Array.make n (-1) and first = Array.make n 0 and more = Array.make n [] in
  let targets = Array.make n 0 in
  (* The arc (x ← y) of the pair (u, v): the rows of the tables at
     [off] + each label, and the class row. *)
  let edge_arc u v x y off =
    arc x y;
    push arc_tab (off + first.(v));
    let rec extra = function [] -> () | l :: ls -> push arc_tab (off + l); extra ls in
    extra more.(v);
    if data && u <> v then push arc_tab (class_of u v)
  in
  for u = 0 to n - 1 do
    let k = ref 0 in
    for l = 0 to nl - 1 do
      List.iter
        (fun v ->
          if stamp.(v) = u then more.(v) <- l :: more.(v)
          else begin
            stamp.(v) <- u;
            first.(v) <- l;
            if more.(v) != [] then more.(v) <- [];
            targets.(!k) <- v;
            incr k
          end)
        (Data_graph.succ_id g u l)
    done;
    for i = 0 to !k - 1 do
      let v = targets.(i) in
      if data then begin
        Bytes.set edged ((u * n) + v) '\001';
        Bytes.set edged ((v * n) + u) '\001'
      end;
      edge_arc u v u v nl;
      edge_arc u v v u 0
    done
  done;
  if data then begin
    let reach = Data_graph.reachability_matrix g in
    for p = 0 to n - 1 do
      for q = p + 1 to n - 1 do
        if
          Bytes.get edged ((p * n) + q) = '\000'
          && (Bitmatrix.get reach p q || Bitmatrix.get reach q p)
        then begin
          let c = class_of p q in
          arc p q;
          push arc_tab c;
          arc q p;
          push arc_tab c
        end
      done
    done
  end;
  push arc_first arc_tab.len;
  let num_arcs = arc_x.len in
  let sup_start = Array.make (n + 1) 0 in
  for a = 0 to num_arcs - 1 do
    let y = arc_y.a.(a) in
    sup_start.(y + 1) <- sup_start.(y + 1) + 1
  done;
  for y = 1 to n do
    sup_start.(y) <- sup_start.(y) + sup_start.(y - 1)
  done;
  let fill = Array.sub sup_start 0 n in
  let support = Array.make num_arcs 0 in
  for a = 0 to num_arcs - 1 do
    let y = arc_y.a.(a) in
    support.(fill.(y)) <- a;
    fill.(y) <- fill.(y) + 1
  done;
  {
    n;
    w;
    tables;
    arcs = num_arcs;
    arc_x = arc_x.a;
    arc_y = arc_y.a;
    arc_first = arc_first.a;
    arc_tab = arc_tab.a;
    sup_start;
    support;
    root = Atomic.make Root_unknown;
  }

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
  let arcs = csp.arcs in
  {
    doms;
    trail = Array.make (max 16 (8 * csp.n * csp.w)) 0;
    trail_len = 0;
    work = Array.make (max 1 arcs) 0;
    work_len = 0;
    enqueued = Array.make arcs false;
    acc = Array.make csp.w 0;
  }

(* Set word [i] of the domains to [v], on the trail. *)
let set_word csp st i v =
  let words = st.doms.words in
  let old = words.(i) in
  if old <> v then begin
    if st.trail_len + 2 > Array.length st.trail then begin
      let t = Array.make (2 * Array.length st.trail) 0 in
      Array.blit st.trail 0 t 0 st.trail_len;
      st.trail <- t
    end;
    st.trail.(st.trail_len) <- i;
    st.trail.(st.trail_len + 1) <- old;
    st.trail_len <- st.trail_len + 2;
    words.(i) <- v;
    let x = i / csp.w in
    st.doms.card.(x) <- st.doms.card.(x) - Bitset.popcount old + Bitset.popcount v
  end

let undo_to csp st mark =
  let words = st.doms.words and card = st.doms.card in
  while st.trail_len > mark do
    st.trail_len <- st.trail_len - 2;
    let i = st.trail.(st.trail_len) and old = st.trail.(st.trail_len + 1) in
    let x = i / csp.w in
    card.(x) <- card.(x) + Bitset.popcount old - Bitset.popcount words.(i);
    words.(i) <- old
  done

(* [f b] for every value [b] of variable [x], ascending.  Each word is
   read once when the iteration reaches it. *)
let iter_dom csp doms x f =
  for k = 0 to csp.w - 1 do
    let word = ref doms.words.((x * csp.w) + k) in
    while !word <> 0 do
      let low = !word land - !word in
      f ((k * bpw) + Bitset.popcount (low - 1));
      word := !word lxor low
    done
  done

(* Revise arc [a]: keep the values of x that some value of y supports.
   Reports whether dom x shrank, or raises [Wipeout]. *)
let revise csp st a =
  let w = csp.w and words = st.doms.words and acc = st.acc in
  let x = csp.arc_x.(a) and y = csp.arc_y.(a) in
  let first = csp.arc_first.(a) and last = csp.arc_first.(a + 1) - 1 in
  let t0 = csp.tables.(csp.arc_tab.(first)) in
  let xo = x * w in
  Array.fill acc 0 w 0;
  (* Does the union cover dom x yet? *)
  let covered () =
    let rec go k = k >= w || (words.(xo + k) land lnot acc.(k) = 0 && go (k + 1)) in
    go 0
  in
  let exception Covered in
  (try
     for k = 0 to w - 1 do
       let word = ref words.((y * w) + k) in
       while !word <> 0 do
         let low = !word land - !word in
         let ro = ((k * bpw) + Bitset.popcount (low - 1)) * w in
         for j = 0 to w - 1 do
           let r = ref t0.(ro + j) in
           for i = first + 1 to last do
             r := !r land csp.tables.(csp.arc_tab.(i)).(ro + j)
           done;
           acc.(j) <- acc.(j) lor !r
         done;
         if covered () then raise_notrace Covered;
         word := !word lxor low
       done
     done
   with Covered -> ());
  let before = st.doms.card.(x) in
  for k = 0 to w - 1 do
    set_word csp st (xo + k) (words.(xo + k) land acc.(k))
  done;
  let after = st.doms.card.(x) in
  if after = 0 then raise Wipeout;
  after < before

let push_work st a =
  if not st.enqueued.(a) then begin
    st.enqueued.(a) <- true;
    st.work.(st.work_len) <- a;
    st.work_len <- st.work_len + 1
  end

(* Queue the arcs supported by [y], except [skip]. *)
let push_supported csp st y skip =
  for i = csp.sup_start.(y) to csp.sup_start.(y + 1) - 1 do
    let a = csp.support.(i) in
    if a <> skip then push_work st a
  done

(* Drain the worklist.  When dom x shrinks under arc (x ← y), the arcs
   supported by x are requeued — except, for x ≠ y, the reverse arc
   (y ← x): a removed value of x had no partner in dom y, so it was
   nobody's support there. *)
let propagate csp st =
  try
    while st.work_len > 0 do
      st.work_len <- st.work_len - 1;
      let a = st.work.(st.work_len) in
      st.enqueued.(a) <- false;
      if revise csp st a then begin
        let x = csp.arc_x.(a) in
        push_supported csp st x (if x = csp.arc_y.(a) then -1 else a lxor 1)
      end
    done
  with Wipeout ->
    (* Restore the worklist invariant before unwinding. *)
    while st.work_len > 0 do
      st.work_len <- st.work_len - 1;
      st.enqueued.(st.work.(st.work_len)) <- false
    done;
    raise Wipeout

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
      (* Full domains: word k holds the values k·bpw .. k·bpw + bpw - 1
         that are below n. *)
      let words = Array.make (csp.n * csp.w) 0 in
      for x = 0 to csp.n - 1 do
        for k = 0 to csp.w - 1 do
          let bits = csp.n - (k * bpw) in
          words.((x * csp.w) + k) <- (if bits >= bpw then -1 else (1 lsl bits) - 1)
        done
      done;
      let doms = { words; card = Array.make csp.n csp.n } in
      let st = fresh_state csp doms in
      let r =
        Obs.Span.with_ "csp.root_ac" @@ fun () ->
        try
          for a = csp.arcs - 1 downto 0 do
            push_work st a
          done;
          propagate csp st;
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

let copy_doms d = { words = Array.copy d.words; card = Array.copy d.card }

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
  let first doms x =
    let exception First of int in
    try
      iter_dom csp doms x (fun b -> raise_notrace (First b));
      raise Wipeout
    with First b -> b
  in
  let rec expand st =
    let var = ref (-1) and best = ref max_int in
    Array.iteri
      (fun v c ->
        if c > 1 && c < !best then begin
          var := v;
          best := c
        end)
      st.doms.card;
    if !var = -1 then begin
      let h = Array.init csp.n (first st.doms) in
      if leaf h then raise (Found h)
    end
    else
      let var = !var in
      let values = ref [] in
      iter_dom csp st.doms var (fun b -> values := b :: !values);
      List.iter
        (fun b ->
          let mark = st.trail_len in
          (try
             for k = 0 to csp.w - 1 do
               set_word csp st ((var * csp.w) + k)
                 (if k = b / bpw then 1 lsl (b mod bpw) else 0)
             done;
             push_supported csp st var (-1);
             propagate csp st;
             if enter st.doms then expand st
           with Wipeout -> ());
          undo_to csp st mark)
        (List.rev !values)
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

let root_domains g =
  let csp = build_csp g in
  match root_doms csp with
  | None -> None
  | Some doms ->
      Some
        (Array.init csp.n (fun x ->
             let l = ref [] in
             iter_dom csp doms x (fun b -> l := b :: !l);
             List.rev !l))

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
          iter_dom csp doms p (fun x ->
              if not !escaped then escaped := go (x :: prefix_rev) rest);
          !escaped
    in
    let size = List.fold_left (fun acc p -> acc * doms.card.(p)) 1 tup in
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
