module Relation = Datagraph.Relation
module Bitset = Util.Bitset

let log_src =
  Logs.Src.create "definability.witness_search"
    ~doc:"tuple-of-subsets witness search"

module Log = (val Logs.src_log log_src : Logs.LOG)

type block = { name : string; succ : int -> int list }

type config = {
  num_states : int;
  sources : int array;
  node_of : int -> int;
  blocks : block array;
}

type verdict =
  | Definable
  | Not_definable of (int * int) list
  | Exhausted

type outcome = {
  verdict : verdict;
  covered : Relation.t;
  witnesses : ((int * int) * string list) list;
  tuples_explored : int;
}

(* A tuple ⟨Q_1,…,Q_n⟩ is an array of bitsets: entry i holds source i's
   reachable state set, packed one state per bit.  Applying a block is a
   union of precomputed successor rows over the set bits; the safety
   check is a word-parallel disjointness test against a precomputed
   "unsafe states" mask per source. *)

module Tuple_key = struct
  (* The hash is computed once at construction and stored: every tuple
     is hashed at least twice (membership probe, then insertion), and
     hashing the full bit pattern is the dominant cost of the BFS loop.
     [Hashtbl.hash] would not do: it samples only a bounded prefix of
     the structure, which collides catastrophically on wide tuples. *)
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
  Obs.Span.with_ "witness.search" @@ fun () ->
  let n = Array.length cfg.sources in
  if Relation.universe target <> n then
    invalid_arg "Witness_search.search: target universe <> number of sources";
  (* Budget integration: registering a tuple consumes one step of fuel;
     the pop loop additionally polls the deadline so an expired budget
     stops the search even when no new tuples are being discovered. *)
  let take () =
    match budget with None -> true | Some b -> Engine.Budget.take b
  in
  let budget_dead () =
    match budget with None -> false | Some b -> Engine.Budget.exhausted b
  in
  let ns = cfg.num_states in
  (* Deterministic successor rows per block, built once: row s is the
     successor set of state s. *)
  let succ_rows =
    Array.map
      (fun block ->
        Array.init ns (fun s ->
            let row = Bitset.create ns in
            List.iter (fun s' -> Bitset.add row s') (block.succ s);
            row))
      cfg.blocks
  in
  (* States whose projection leaves the target, per source. *)
  let bad =
    Array.init n (fun i ->
        let b = Bitset.create ns in
        for s = 0 to ns - 1 do
          if not (Relation.mem target i (cfg.node_of s)) then Bitset.add b s
        done;
        b)
  in
  (* Initial tuple. *)
  let t0 =
    Tuple_key.make
      (Array.init n (fun i ->
           let b = Bitset.create ns in
           Bitset.add b cfg.sources.(i);
           b))
  in
  (* Visited table and BFS bookkeeping.  Parents record (parent id, block
     index) for witness reconstruction. *)
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
  (* Per-block successor application on a whole tuple. *)
  let apply rows t =
    Array.map
      (fun qi ->
        let q' = Bitset.create ns in
        Bitset.iter (fun s -> Bitset.union_inplace q' rows.(s)) qi;
        q')
      t
  in
  (* FIFO BFS over tuples.  A popped tuple that is safe covers the
     (source, node) pairs it projects to; unless that completes the
     target, its non-empty successor under every block is registered (one
     unit of fuel each) and queued. *)
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
  (* Reconstruct block sequences for covered pairs. *)
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
  Log.debug (fun m ->
      m "explored %d tuples; covered %d/%d pairs%s" !count
        (Relation.cardinal !covered)
        target_card
        (if !truncated then " (truncated)" else ""));
  { verdict; covered = !covered; witnesses; tuples_explored = !count }
