(* The constraint-table CSP [Definability.Hom] compiled before it ran
   arc consistency on the graph's own word rows: one n×n table per
   (label set, data kind) key, shared by the variable pairs carrying that
   key, and AC-3 revising both sides of a table per constraint, with the
   bit trail and the backtracking search that ran on it.  Kept verbatim
   (modulo qualified module names; without the per-graph cache, the
   counters and the atomic root template) as the reference [Hom] must
   equal: the same root domains, and the same result, homomorphism,
   tuple and node count from every search.  Nothing outside the tests
   uses this. *)

module Data_graph = Datagraph.Data_graph
module Tuple_relation = Datagraph.Tuple_relation
module Bitset = Util.Bitset
module Bitmatrix = Util.Bitmatrix

type domain = { bits : Bitset.t; mutable card : int }

type csp = {
  n : int;
  constraints : (int * int * Bitmatrix.t * Bitmatrix.t) array;
  incident : int list array;
}

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
  { n; constraints; incident }

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

(* The AC-3 fixpoint from full domains, recomputed per call. *)
let root_doms csp =
  let doms =
    Array.init csp.n (fun _ -> { bits = Bitset.full csp.n; card = csp.n })
  in
  let st = fresh_state csp doms in
  try
    propagate csp st (List.init csp.n Fun.id);
    Some doms
  with Wipeout -> None

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


let build_csp = build_csp_uncached

(* Each node's root values, ascending; [None] on a wipe-out. *)
let root_domains g =
  Option.map
    (Array.map (fun d -> Bitset.to_list d.bits))
    (root_doms (build_csp g))

let search_violating ?budget g s =
  let csp = build_csp g in
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
  (result, !nodes)

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
