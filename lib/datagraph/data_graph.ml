module Bitset = Util.Bitset
module Bitmatrix = Util.Bitmatrix

type node = int
type label = string

type t = {
  values : Data_value.t array;
  names : string array;
  name_index : (string, node) Hashtbl.t;
  labels : label array;
  label_index : (label, int) Hashtbl.t;
  (* succ.(u).(a) is the sorted list of [a]-successors of [u]. *)
  succ : node list array array;
  edge_list : (node * int * node) list;
  (* Precomputed at build time so [edges] and [edge_count] are O(1). *)
  edges_resolved : (node * label * node) list;
  num_edges : int;
  domain : Data_value.t array;
  value_idx : int array;
  (* Lazily-built caches.  A graph is immutable after construction (the
     constructors only retouch [names]), so these never invalidate.
     They are atomics, published with a compare-and-set: the build is a
     pure function of the graph, so two domains racing the first access
     both build identical matrices and the CAS loser adopts the winner's
     — duplicated work at worst, never a torn or unpublished value
     (plain mutable fields would give readers no happens-before edge to
     the builder's writes). *)
  uid : int;
  adj_cache : Bitmatrix.t array option Atomic.t;
  reach_cache : Bitmatrix.t option Atomic.t;
}

(* Atomic so graphs built from worker domains still get distinct uids
   (the uid keys cross-module caches; a duplicate would alias them). *)
let uid_counter = Atomic.make 0
let uid g = g.uid

(* Cache-build telemetry: how often the bitset kernel recomputes the
   per-label adjacency matrices and the reachability closure.  Builds
   happen at most once per graph; a high build count under load means
   graphs are being reconstructed instead of reused.  The patch counters
   track the incremental edit path: an edited graph that inherits its
   parent's matrices records a patch, not a build. *)
let c_adjacency_builds = Obs.Counter.make "datagraph.adjacency_builds"
let c_reachability_builds = Obs.Counter.make "datagraph.reachability_builds"
let c_adjacency_patches = Obs.Counter.make "datagraph.adjacency_patches"
let c_reachability_patches = Obs.Counter.make "datagraph.reachability_patches"

let size g = Array.length g.values
let nodes g = List.init (size g) Fun.id
let value g v = g.values.(v)
let same_value g u v = Data_value.equal g.values.(u) g.values.(v)
let name g v = g.names.(v)
let node_of_name g s = Hashtbl.find g.name_index s
let domain g = Array.to_list g.domain
let delta g = Array.length g.domain
let value_index g v = g.value_idx.(v)

let alphabet g = Array.to_list g.labels
let label_count g = Array.length g.labels
let label_id g a = Hashtbl.find g.label_index a
let label_id_opt g a = Hashtbl.find_opt g.label_index a
let label_name g i = g.labels.(i)

let edges g = g.edges_resolved
let edge_count g = g.num_edges
let succ_id g u a = g.succ.(u).(a)

let succ g u a =
  match label_id_opt g a with None -> [] | Some i -> g.succ.(u).(i)

let succ_all g u =
  let acc = ref [] in
  for a = Array.length g.labels - 1 downto 0 do
    List.iter (fun v -> acc := (a, v) :: !acc) g.succ.(u).(a)
  done;
  !acc

(* Scratch builders, shared by the lazy cache paths, the edit patch
   paths (removal recompute) and the [audit_edits] assertion. *)
let compute_adjacency ~n ~num_labels succ =
  let a = Array.init num_labels (fun _ -> Bitmatrix.create n n) in
  Array.iteri
    (fun u row ->
      Array.iteri
        (fun lbl succs -> List.iter (fun v -> Bitmatrix.set a.(lbl) u v) succs)
        row)
    succ;
  a

let compute_reachability ~n adj =
  let m = Bitmatrix.create n n in
  Array.iter
    (fun am ->
      for u = 0 to n - 1 do
        Bitset.union_inplace (Bitmatrix.row m u) (Bitmatrix.row am u)
      done)
    adj;
  Bitmatrix.set_diagonal m;
  Bitmatrix.closure_inplace m;
  m

let adjacency g =
  match Atomic.get g.adj_cache with
  | Some a -> a
  | None -> (
      Obs.Counter.incr c_adjacency_builds;
      let a =
        compute_adjacency ~n:(size g) ~num_labels:(Array.length g.labels) g.succ
      in
      if Atomic.compare_and_set g.adj_cache None (Some a) then a
      else
        match Atomic.get g.adj_cache with
        | Some winner -> winner
        | None -> a (* unreachable: the cache is only ever set, never cleared *))

let adjacency_matrix g lbl = (adjacency g).(lbl)

let reachability_matrix g =
  match Atomic.get g.reach_cache with
  | Some m -> m
  | None -> (
      Obs.Counter.incr c_reachability_builds;
      let m = compute_reachability ~n:(size g) (adjacency g) in
      if Atomic.compare_and_set g.reach_cache None (Some m) then m
      else
        match Atomic.get g.reach_cache with
        | Some winner -> winner
        | None -> m)

let mem_edge g u a v =
  u >= 0 && u < size g && v >= 0 && v < size g
  &&
  match label_id_opt g a with
  | None -> false
  | Some lbl -> Bitmatrix.get (adjacency g).(lbl) u v

(* Sorted distinct values plus the per-node index into that array; shared
   by [build] and [add_node] (node addition can enlarge the domain). *)
let compute_domain values =
  let dom =
    Array.of_list
      (Data_value.Set.elements
         (Array.fold_left
            (fun s d -> Data_value.Set.add d s)
            Data_value.Set.empty values))
  in
  let dom_index = Hashtbl.create 8 in
  Array.iteri (fun i d -> Hashtbl.add dom_index (Data_value.to_int d) i) dom;
  let value_idx =
    Array.map (fun d -> Hashtbl.find dom_index (Data_value.to_int d)) values
  in
  (dom, value_idx)

(* The one constructor under [build], [make] and [of_resolved]: [edges]
   are (source, label id, target) in input order.  A duplicate edge
   shows up as two equal neighbours in its sorted successor list. *)
let assemble ~names ~name_index ~values ~labels ~label_index ~edges =
  let n = Array.length values in
  let nl = Array.length labels in
  let succ = Array.init n (fun _ -> Array.make nl []) in
  let num_edges = ref 0 in
  List.iter
    (fun (u, a, v) ->
      succ.(u).(a) <- v :: succ.(u).(a);
      incr num_edges)
    edges;
  let rec distinct = function
    | x :: (y :: _ as rest) ->
        if x = y then invalid_arg "Data_graph.build: duplicate edge";
        distinct rest
    | _ -> ()
  in
  Array.iter
    (fun row ->
      Array.iteri
        (fun a l ->
          match l with
          | [] | [ _ ] -> ()
          | _ ->
              let l = List.sort Int.compare l in
              distinct l;
              row.(a) <- l)
        row)
    succ;
  let dom, value_idx = compute_domain values in
  {
    values = Array.copy values;
    names;
    name_index;
    labels;
    label_index;
    succ;
    edge_list = List.rev edges;
    edges_resolved = List.map (fun (u, a, v) -> (u, labels.(a), v)) edges;
    num_edges = !num_edges;
    domain = dom;
    value_idx;
    uid = 1 + Atomic.fetch_and_add uid_counter 1;
    adj_cache = Atomic.make None;
    reach_cache = Atomic.make None;
  }

(* Intern labels in first-occurrence order. *)
let intern_labels ~n edges =
  let label_index = Hashtbl.create 8 in
  let labels_rev = ref [] in
  let intern a =
    match Hashtbl.find_opt label_index a with
    | Some i -> i
    | None ->
        let i = Hashtbl.length label_index in
        Hashtbl.add label_index a i;
        labels_rev := a :: !labels_rev;
        i
  in
  let interned =
    List.map
      (fun (u, a, v) ->
        if u < 0 || u >= n || v < 0 || v >= n then
          invalid_arg "Data_graph.build: edge endpoint out of range";
        (u, intern a, v))
      edges
  in
  (Array.of_list (List.rev !labels_rev), label_index, interned)

let build ~values ~edges =
  let n = Array.length values in
  let names = Array.init n (fun i -> "v" ^ string_of_int i) in
  let name_index = Hashtbl.create (max 1 n) in
  Array.iteri (fun i s -> Hashtbl.add name_index s i) names;
  let labels, label_index, edges = intern_labels ~n edges in
  assemble ~names ~name_index ~values ~labels ~label_index ~edges

let make ~nodes ~edges =
  let names = Array.of_list (List.map fst nodes) in
  let values = Array.of_list (List.map snd nodes) in
  let name_index = Hashtbl.create (max 1 (Array.length names)) in
  Array.iteri
    (fun i s ->
      if Hashtbl.mem name_index s then
        invalid_arg ("Data_graph.make: duplicate node name " ^ s);
      Hashtbl.add name_index s i)
    names;
  let resolve s =
    match Hashtbl.find_opt name_index s with
    | Some i -> i
    | None -> invalid_arg ("Data_graph.make: unknown node " ^ s)
  in
  (* The target first, then the source: an edge with two unknown
     endpoints names its target. *)
  let edges =
    List.map
      (fun (u, a, v) ->
        let v = resolve v in
        (resolve u, a, v))
      edges
  in
  let labels, label_index, edges = intern_labels ~n:(Array.length values) edges in
  assemble ~names ~name_index ~values ~labels ~label_index ~edges

let of_resolved ~names ~values ~labels ~edges =
  let name_index = Hashtbl.create (max 1 (Array.length names)) in
  Array.iteri (fun i s -> Hashtbl.add name_index s i) names;
  let label_index = Hashtbl.create 8 in
  Array.iteri (fun i a -> Hashtbl.add label_index a i) labels;
  assemble ~names ~name_index ~values ~labels ~label_index ~edges

(* ------------------------------------------------------------------ *)
(* Incremental edits.                                                  *)
(*                                                                     *)
(* Graphs stay immutable: each edit returns a new record with a fresh  *)
(* uid, sharing every unchanged array with its parent.  The point of   *)
(* the edit constructors (vs. rebuilding via [build]) is cache         *)
(* inheritance — a parent's packed adjacency/reachability matrices are *)
(* patched in O(n) instead of recomputed in O(n^3), which is what      *)
(* makes the engine's certificate-repair fast path cheap.              *)
(* ------------------------------------------------------------------ *)

(* When set (the test suite turns it on), every edit cross-checks its
   patched matrices against a scratch rebuild and fails loudly on any
   divergence — the cache-invalidation audit for the incremental path. *)
let audit_edits = ref false

let audit_caches g =
  (match Atomic.get g.adj_cache with
  | None -> ()
  | Some a ->
      let fresh =
        compute_adjacency ~n:(size g) ~num_labels:(Array.length g.labels) g.succ
      in
      if
        Array.length a <> Array.length fresh
        || not (Array.for_all2 Bitmatrix.equal a fresh)
      then failwith "Data_graph edit audit: patched adjacency <> scratch rebuild");
  (match Atomic.get g.reach_cache with
  | None -> ()
  | Some m ->
      let fresh = compute_reachability ~n:(size g) (adjacency g) in
      if not (Bitmatrix.equal m fresh) then
        failwith "Data_graph edit audit: patched reachability <> scratch rebuild");
  g

let audit g = if !audit_edits then audit_caches g else g

let fresh_uid () = 1 + Atomic.fetch_and_add uid_counter 1

let add_edge g u a v =
  let n = size g in
  if u < 0 || u >= n || v < 0 || v >= n then
    invalid_arg "Data_graph.add_edge: endpoint out of range";
  let existing = label_id_opt g a in
  (match existing with
  | Some lbl when List.mem v g.succ.(u).(lbl) ->
      invalid_arg "Data_graph.add_edge: duplicate edge"
  | _ -> ());
  let nl_old = Array.length g.labels in
  let labels, label_index, lbl =
    match existing with
    | Some lbl -> (g.labels, g.label_index, lbl)
    | None ->
        let labels = Array.append g.labels [| a |] in
        let index = Hashtbl.copy g.label_index in
        Hashtbl.add index a nl_old;
        (labels, index, nl_old)
  in
  let fresh_label = existing = None in
  let nl = Array.length labels in
  (* A fresh label widens every per-node row by one slot, so all inner
     arrays are reallocated; otherwise only the touched rows are copied
     (the rest stay shared with the parent). *)
  let grow row = Array.init nl (fun i -> if i < nl_old then row.(i) else []) in
  let succ =
    if fresh_label then Array.map grow g.succ
    else (
      let s = Array.copy g.succ in
      s.(u) <- Array.copy s.(u);
      s)
  in
  succ.(u).(lbl) <- List.sort compare (v :: succ.(u).(lbl));
  let adj_cache =
    match Atomic.get g.adj_cache with
    | None -> Atomic.make None
    | Some old ->
        Obs.Counter.incr c_adjacency_patches;
        (* Copy only the edited label's matrix; the others are shared. *)
        let a' =
          Array.init nl (fun i ->
              if i = lbl then
                if i < nl_old then Bitmatrix.copy old.(i)
                else Bitmatrix.create n n
              else old.(i))
        in
        Bitmatrix.set a'.(lbl) u v;
        Atomic.make (Some a')
  in
  let reach_cache =
    match Atomic.get g.reach_cache with
    | None -> Atomic.make None
    | Some m ->
        if Bitmatrix.get m u v then
          (* u already reached v, so the closure is unchanged and the
             matrix can be shared outright. *)
          Atomic.make (Some m)
        else (
          Obs.Counter.incr c_reachability_patches;
          (* Single-edge incremental closure: any path through the new
             edge splits as old-path to u, the edge, old-path from v, so
             R'(x,y) = R(x,y) or (R(x,u) and R(v,y)).  Both reads are
             from the untouched parent matrix, so no snapshot is
             needed while the copy's rows are updated. *)
          let m' = Bitmatrix.copy m in
          for x = 0 to n - 1 do
            if Bitmatrix.get m x u then
              Bitset.union_inplace (Bitmatrix.row m' x) (Bitmatrix.row m v)
          done;
          Atomic.make (Some m'))
  in
  audit
    {
      g with
      labels;
      label_index;
      succ;
      edge_list = g.edge_list @ [ (u, lbl, v) ];
      edges_resolved = g.edges_resolved @ [ (u, a, v) ];
      num_edges = g.num_edges + 1;
      uid = fresh_uid ();
      adj_cache;
      reach_cache;
    }

let remove_edge g u a v =
  let n = size g in
  let lbl =
    match label_id_opt g a with
    | Some lbl
      when u >= 0 && u < n && v >= 0 && v < n && List.mem v g.succ.(u).(lbl) ->
        lbl
    | _ -> invalid_arg "Data_graph.remove_edge: no such edge"
  in
  let succ = Array.copy g.succ in
  succ.(u) <- Array.copy succ.(u);
  succ.(u).(lbl) <- List.filter (fun x -> x <> v) succ.(u).(lbl);
  let adj_cache =
    match Atomic.get g.adj_cache with
    | None -> Atomic.make None
    | Some old ->
        Obs.Counter.incr c_adjacency_patches;
        let a' = Array.mapi (fun i m -> if i = lbl then Bitmatrix.copy m else m) old in
        Bitmatrix.unset a'.(lbl) u v;
        Atomic.make (Some a')
  in
  let reach_cache =
    (* A deletion can sever reachability for arbitrarily many pairs, and
       the closure gives no cheap way to tell which ones survive via
       other paths — recompute it from the patched adjacency.  That is
       the same work as a scratch build of the closure, but the O(1)
       adjacency patch above is preserved. *)
    match (Atomic.get g.reach_cache, Atomic.get adj_cache) with
    | None, _ -> Atomic.make None
    | Some _, Some adj ->
        Obs.Counter.incr c_reachability_builds;
        Atomic.make (Some (compute_reachability ~n adj))
    | Some _, None -> Atomic.make None (* unreachable: reach implies adj *)
  in
  let rec drop_id = function
    | [] -> []
    | (u', l', v') :: rest when u' = u && l' = lbl && v' = v -> rest
    | e :: rest -> e :: drop_id rest
  in
  let rec drop_resolved = function
    | [] -> []
    | (u', a', v') :: rest when u' = u && String.equal a' a && v' = v -> rest
    | e :: rest -> e :: drop_resolved rest
  in
  audit
    {
      g with
      succ;
      edge_list = drop_id g.edge_list;
      edges_resolved = drop_resolved g.edges_resolved;
      num_edges = g.num_edges - 1;
      uid = fresh_uid ();
      adj_cache;
      reach_cache;
    }

let add_node g nm value =
  if Hashtbl.mem g.name_index nm then
    invalid_arg ("Data_graph.add_node: duplicate node name " ^ nm);
  let n = size g in
  let nl = Array.length g.labels in
  let values = Array.append g.values [| value |] in
  let names = Array.append g.names [| nm |] in
  let name_index = Hashtbl.copy g.name_index in
  Hashtbl.add name_index nm n;
  (* Outer arrays are copied by append; inner rows stay shared (the new
     node has no edges, so no row is mutated). *)
  let succ = Array.append g.succ [| Array.make nl [] |] in
  let domain, value_idx = compute_domain values in
  (* The matrices are n-by-n; growing a row's width cannot share words
     with the parent, so caches restart empty and rebuild lazily — for
     an isolated new node that rebuild is exactly the scratch build. *)
  audit
    {
      g with
      values;
      names;
      name_index;
      succ;
      domain;
      value_idx;
      uid = fresh_uid ();
      adj_cache = Atomic.make None;
      reach_cache = Atomic.make None;
    }

type path = { start : node; steps : (label * node) list }

let is_path g p =
  let rec go u = function
    | [] -> true
    | (a, v) :: rest -> mem_edge g u a v && go v rest
  in
  go p.start p.steps

let data_path_of g p =
  if not (is_path g p) then invalid_arg "Data_graph.data_path_of: not a path";
  let values =
    Array.of_list (value g p.start :: List.map (fun (_, v) -> value g v) p.steps)
  in
  let labels = Array.of_list (List.map fst p.steps) in
  Data_path.make ~values ~labels

let connects g w =
  let m = Data_path.length w in
  (* Frontier: set of (source, current) pairs consistent with the prefix. *)
  let start =
    List.filter_map
      (fun u ->
        if Data_value.equal (value g u) (Data_path.value_at w 0) then Some (u, u)
        else None)
      (nodes g)
  in
  let step frontier i =
    let a = Data_path.label_at w i in
    let d = Data_path.value_at w (i + 1) in
    List.concat_map
      (fun (src, u) ->
        List.filter_map
          (fun v ->
            if Data_value.equal (value g v) d then Some (src, v) else None)
          (succ g u a))
      frontier
    |> List.sort_uniq compare
  in
  let rec go frontier i =
    if i >= m then frontier else go (step frontier i) (i + 1)
  in
  go start 0

let map_values f g =
  build
    ~values:(Array.map f g.values)
    ~edges:(List.map (fun (u, a, v) -> (u, g.labels.(a), v)) g.edge_list)
  |> fun g' ->
  Array.blit g.names 0 g'.names 0 (Array.length g.names);
  Hashtbl.reset g'.name_index;
  Array.iteri (fun i s -> Hashtbl.add g'.name_index s i) g'.names;
  g'

let constant_values g =
  let d = if delta g = 0 then Data_value.of_int 0 else g.domain.(0) in
  map_values (fun _ -> d) g

let disjoint_union g1 g2 =
  let n1 = size g1 in
  let embed v = n1 + v in
  let values = Array.append g1.values g2.values in
  let edges1 = List.map (fun (u, a, v) -> (u, g1.labels.(a), v)) g1.edge_list in
  let edges2 =
    List.map (fun (u, a, v) -> (embed u, g2.labels.(a), embed v)) g2.edge_list
  in
  let g = build ~values ~edges:(edges1 @ edges2) in
  (* Preserve names, disambiguating collisions from g2 with primes. *)
  let taken = Hashtbl.create 16 in
  let claim s =
    let rec go s = if Hashtbl.mem taken s then go (s ^ "'") else s in
    let s = go s in
    Hashtbl.add taken s ();
    s
  in
  Array.iteri (fun i s -> g.names.(i) <- claim s) g1.names;
  Array.iteri (fun i s -> g.names.(n1 + i) <- claim s) g2.names;
  Hashtbl.reset g.name_index;
  Array.iteri (fun i s -> Hashtbl.add g.name_index s i) g.names;
  (g, embed)

let reachable g u =
  let m = reachability_matrix g in
  Array.init (size g) (fun v -> Bitmatrix.get m u v)

let pp ppf g =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun v ->
      Format.fprintf ppf "node %s = %a@," (name g v) Data_value.pp (value g v))
    (nodes g);
  List.iter
    (fun (u, a, v) ->
      Format.fprintf ppf "edge %s -%s-> %s@," (name g u) a (name g v))
    (edges g);
  Format.fprintf ppf "@]"
