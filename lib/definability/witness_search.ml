module Relation = Datagraph.Relation

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

(* Representation.  A state set is [w = ⌈num_states / Sys.int_size⌉]
   native words, one state per bit, and a tuple ⟨Q_1,…,Q_n⟩ is its n
   sets laid end to end: [stride = n·w] ints.  Every registered tuple
   lives in one growable word arena, and its id is its registration
   index, so tuple [id] occupies [arena.(id·stride) …] and the FIFO
   queue is just a cursor over ids.

   A successor is built in one reused scratch buffer: per source, the
   union of the block's precomputed successor rows over the set bits.
   It is hashed and probed there and copied into the arena only when it
   is new, so a successor that was already seen allocates nothing.

   The visited set is an open-addressing table of ids with linear
   probing; each tuple's hash is stored beside it, so probing compares
   full words only on a hash match and growing the table never rehashes
   a tuple.  The hash mixes every word of the tuple ([Hashtbl.hash]
   would not do: it samples only a bounded prefix of the structure,
   which collides catastrophically on wide tuples). *)

let bpw = Sys.int_size

(* Index of the single set bit of [b]. *)
let bit_index b = Util.Bitset.popcount (b - 1)

let hash_words a =
  let h = ref (Array.length a) in
  for k = 0 to Array.length a - 1 do
    let x = (!h lxor Array.unsafe_get a k) * 0x2545F4914F6CDD1D in
    h := x lxor (x lsr 29)
  done;
  !h land max_int

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
  let w = (ns + bpw - 1) / bpw in
  let stride = n * w in
  let in_range s =
    if s < 0 || s >= ns then
      invalid_arg (Printf.sprintf "Witness_search.search: state %d out of range" s)
  in
  let set_bit a off s =
    let j = off + (s / bpw) in
    a.(j) <- a.(j) lor (1 lsl (s mod bpw))
  in
  (* Deterministic successor rows per block, built once: words
     [s·w … s·w + w - 1] of a block's table are state s's successors. *)
  let succ_rows =
    Array.map
      (fun block ->
        let rows = Array.make (ns * w) 0 in
        for s = 0 to ns - 1 do
          List.iter
            (fun s' ->
              in_range s';
              set_bit rows (s * w) s')
            (block.succ s)
        done;
        rows)
      cfg.blocks
  in
  let node_of = Array.init ns cfg.node_of in
  (* States whose projection leaves the target: words [i·w …] mask
     source i's. *)
  let bad = Array.make stride 0 in
  for i = 0 to n - 1 do
    for s = 0 to ns - 1 do
      if not (Relation.mem target i node_of.(s)) then set_bit bad (i * w) s
    done
  done;
  (* The arena and its per-tuple columns: hash, parent id (-1 for the
     root) and the block that led from the parent.  They start small and
     double: a large first allocation would go straight to the major
     heap on every search, however short. *)
  let cap = ref 64 in
  let arena = ref (Array.make (!cap * stride) 0) in
  let hashes = ref (Array.make !cap 0) in
  let parent = ref (Array.make !cap (-1)) in
  let via = ref (Array.make !cap (-1)) in
  let count = ref 0 in
  (* Visited table: slots hold ids, -1 when free; kept under half full. *)
  let table = ref (Array.make (2 * !cap) (-1)) in
  let grow_columns () =
    let cap' = 2 * !cap in
    let extend a len fill =
      let a' = Array.make len fill in
      Array.blit a 0 a' 0 (Array.length a);
      a'
    in
    arena := extend !arena (cap' * stride) 0;
    hashes := extend !hashes cap' 0;
    parent := extend !parent cap' (-1);
    via := extend !via cap' (-1);
    cap := cap'
  in
  let rehash () =
    let t = Array.make (2 * Array.length !table) (-1) in
    let mask = Array.length t - 1 in
    for id = 0 to !count - 1 do
      let slot = ref (!hashes.(id) land mask) in
      while t.(!slot) >= 0 do
        slot := (!slot + 1) land mask
      done;
      t.(!slot) <- id
    done;
    table := t
  in
  let scratch = Array.make stride 0 in
  (* The slot holding [scratch]'s tuple, or the free slot where it
     belongs. *)
  let probe h =
    let t = !table and a = !arena and hs = !hashes in
    let mask = Array.length t - 1 in
    let same id =
      hs.(id) = h
      &&
      let off = id * stride in
      let rec go k =
        k >= stride
        || (Array.unsafe_get a (off + k) = Array.unsafe_get scratch k
           && go (k + 1))
      in
      go 0
    in
    let rec find slot =
      let id = t.(slot) in
      if id < 0 || same id then slot else find ((slot + 1) land mask)
    in
    find (h land mask)
  in
  (* Copy [scratch] into the arena as the next id and enter it in the
     table at [slot] (from {!probe}). *)
  let register h slot ~from ~block =
    let id = !count in
    if id = !cap then grow_columns ();
    Array.blit scratch 0 !arena (id * stride) stride;
    !hashes.(id) <- h;
    !parent.(id) <- from;
    !via.(id) <- block;
    incr count;
    if 2 * !count > Array.length !table then rehash ()
    else !table.(slot) <- id
  in
  (* Covered pairs: an n×n byte matrix, a counter, and the id of the
     tuple that first covered each pair. *)
  let covered = Bytes.make (n * n) '\000' in
  let covered_count = ref 0 in
  let first_cover = ref [] in
  let target_card = Relation.cardinal target in
  let done_ = ref (target_card = 0) in
  let truncated = ref false in
  (* Initial tuple. *)
  Array.iteri
    (fun i s ->
      in_range s;
      set_bit scratch (i * w) s)
    cfg.sources;
  if take () then begin
    let h = hash_words scratch in
    register h (probe h) ~from:(-1) ~block:(-1)
  end
  else truncated := true;
  (* FIFO BFS over tuples, in id order.  A popped tuple that is safe
     covers the (source, node) pairs it projects to; unless that
     completes the target, its non-empty successor under every block is
     registered (one unit of fuel each) and queued. *)
  let head = ref 0 in
  while !head < !count && (not !done_) && not (budget_dead ()) do
    let id = !head in
    incr head;
    let off = id * stride in
    let a = !arena in
    let safe = ref true in
    for k = 0 to stride - 1 do
      if a.(off + k) land bad.(k) <> 0 then safe := false
    done;
    if !safe then begin
      for i = 0 to n - 1 do
        for j = 0 to w - 1 do
          let x = ref a.(off + (i * w) + j) in
          while !x <> 0 do
            let b = !x land - !x in
            let q = node_of.((j * bpw) + bit_index b) in
            let c = (i * n) + q in
            if Bytes.get covered c = '\000' then begin
              Bytes.set covered c '\001';
              incr covered_count;
              first_cover := (i, q, id) :: !first_cover
            end;
            x := !x lxor b
          done
        done
      done;
      if !covered_count = target_card then done_ := true
    end;
    if not !done_ then
      Array.iteri
        (fun bi rows ->
          (* Registering may move the arena; re-read it per block. *)
          let a = !arena in
          let any = ref 0 in
          for i = 0 to n - 1 do
            let row = i * w in
            Array.fill scratch row w 0;
            for j = 0 to w - 1 do
              let x = ref a.(off + row + j) in
              while !x <> 0 do
                let b = !x land - !x in
                let r = ((j * bpw) + bit_index b) * w in
                for k = 0 to w - 1 do
                  scratch.(row + k) <-
                    scratch.(row + k) lor Array.unsafe_get rows (r + k)
                done;
                x := !x lxor b
              done
            done;
            for k = row to row + w - 1 do
              any := !any lor scratch.(k)
            done
          done;
          if !any <> 0 then begin
            let h = hash_words scratch in
            let slot = probe h in
            if !table.(slot) < 0 then
              if !count >= max_tuples || not (take ()) then truncated := true
              else register h slot ~from:id ~block:bi
          end)
        succ_rows
  done;
  (* Reconstruct block sequences for covered pairs. *)
  let path_of id =
    let rec go id acc =
      let p = !parent.(id) in
      if p < 0 then acc else go p (cfg.blocks.(!via.(id)).name :: acc)
    in
    go id []
  in
  let witnesses =
    List.map (fun (i, q, id) -> ((i, q), path_of id)) !first_cover
    |> List.sort compare
  in
  let covered =
    Relation.of_list n (List.map (fun (i, q, _) -> (i, q)) !first_cover)
  in
  if budget_dead () then truncated := true;
  let verdict =
    if !covered_count = target_card then Definable
    else if !truncated then Exhausted
    else Not_definable (Relation.to_list (Relation.diff target covered))
  in
  Log.debug (fun m ->
      m "explored %d tuples; covered %d/%d pairs%s" !count !covered_count
        target_card
        (if !truncated then " (truncated)" else ""));
  { verdict; covered; witnesses; tuples_explored = !count }
