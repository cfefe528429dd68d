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
   native words, one state per bit.  Every source runs the same
   transition system, so a tuple ⟨Q_1,…,Q_n⟩ is a point in the n-fold
   product of one subset automaton, and few distinct sets recur across
   many tuples.  So each distinct set met in a search is interned: its
   id is its order of first sight (id 0 is ∅), and its words live at
   [w·id] in one growable arena.  [img.(c·nb + b)] holds the id of set
   c's image under block b, or -1 until it is first needed; the first
   request takes the union of the block's precomputed successor rows
   over c's bits, so each (set, block) image is computed at most once
   per search.

   A tuple is its n set ids, laid end to end in a second arena, and its
   id is its registration index, so the FIFO queue is a cursor over
   ids.  A successor is n reads of [img] into a scratch key, one hash
   and one probe; it is empty iff every id is 0, and it is copied into
   the arena only when it is new.  Safety and covering read each set's
   words through its id.

   Sets and tuples are each found by an {!Intern} table: open
   addressing with linear probing over ids, each key's hash stored
   beside it, so probing compares full keys only on a hash match and
   growing never rehashes a key.  The hash ({!Util.Bitset.hash_words})
   mixes every word ([Hashtbl.hash] would not do: it samples only a
   bounded prefix of the structure, which collides catastrophically on
   wide keys).  Every table starts small and doubles when it fills: a
   large first allocation would go straight to the major heap on every
   search, however short. *)

let bpw = Sys.int_size

(* Index of the single set bit of [b]. *)
let bit_index b = Util.Bitset.popcount (b - 1)

(* [a] copied into a fresh array of [len] elements, the rest [fill]. *)
let extend a len fill =
  let a' = Array.make len fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

(* Fixed-width int keys, each numbered by insertion order.  A lookup
   reads its key from [scratch]; key [id] sits at [keys.(id·stride)]. *)
module Intern = struct
  type t = {
    stride : int;
    scratch : int array;
    mutable keys : int array;
    mutable hashes : int array;
    mutable slots : int array;  (* ids, -1 when free; under half full *)
    mutable count : int;
  }

  let create stride =
    {
      stride;
      scratch = Array.make stride 0;
      keys = Array.make (64 * stride) 0;
      hashes = Array.make 64 0;
      slots = Array.make 128 (-1);
      count = 0;
    }

  let capacity t = Array.length t.hashes
  let hash_scratch t = Util.Bitset.hash_words t.stride t.scratch

  (* The slot holding [scratch]'s key, or the free slot where it
     belongs. *)
  let probe t h =
    let slots = t.slots and keys = t.keys and hs = t.hashes in
    let stride = t.stride and scratch = t.scratch in
    let mask = Array.length slots - 1 in
    let same id =
      Array.unsafe_get hs id = h
      &&
      let off = id * stride in
      let rec go k =
        k >= stride
        || (Array.unsafe_get keys (off + k) = Array.unsafe_get scratch k
           && go (k + 1))
      in
      go 0
    in
    let rec find slot =
      let id = Array.unsafe_get slots slot in
      if id < 0 || same id then slot else find ((slot + 1) land mask)
    in
    find (h land mask)

  (* Copy [scratch] in as the next id and enter it at [slot] (from
     {!probe}).  Doubles the key columns when they are full. *)
  let add t h slot =
    let id = t.count in
    if id = capacity t then begin
      t.keys <- extend t.keys (2 * id * t.stride) 0;
      t.hashes <- extend t.hashes (2 * id) 0
    end;
    Array.blit t.scratch 0 t.keys (id * t.stride) t.stride;
    t.hashes.(id) <- h;
    t.count <- id + 1;
    if 2 * t.count <= Array.length t.slots then t.slots.(slot) <- id
    else begin
      let slots = Array.make (2 * Array.length t.slots) (-1) in
      let mask = Array.length slots - 1 in
      for id = 0 to t.count - 1 do
        let slot = ref (t.hashes.(id) land mask) in
        while slots.(!slot) >= 0 do
          slot := (!slot + 1) land mask
        done;
        slots.(!slot) <- id
      done;
      t.slots <- slots
    end;
    id

  (* The id of [scratch]'s key, interning it when it is new. *)
  let intern t =
    let h = hash_scratch t in
    let slot = probe t h in
    let id = t.slots.(slot) in
    if id >= 0 then id else add t h slot
end

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
  let nb = Array.length cfg.blocks in
  let w = (ns + bpw - 1) / bpw in
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
  let bad = Array.make (n * w) 0 in
  for i = 0 to n - 1 do
    for s = 0 to ns - 1 do
      if not (Relation.mem target i node_of.(s)) then set_bit bad (i * w) s
    done
  done;
  let sets = Intern.create w in
  ignore (Intern.intern sets : int);
  let img = ref (Array.make (Intern.capacity sets * nb) (-1)) in
  (* The id of set [c]'s image under block [b]. *)
  let image c b =
    let k = (c * nb) + b in
    let cached = !img.(k) in
    if cached >= 0 then cached
    else begin
      let out = sets.scratch and src = sets.keys and rows = succ_rows.(b) in
      Array.fill out 0 w 0;
      for j = 0 to w - 1 do
        let x = ref src.((c * w) + j) in
        while !x <> 0 do
          let bit = !x land - !x in
          let r = ((j * bpw) + bit_index bit) * w in
          for k = 0 to w - 1 do
            Array.unsafe_set out k
              (Array.unsafe_get out k lor Array.unsafe_get rows (r + k))
          done;
          x := !x lxor bit
        done
      done;
      let id = Intern.intern sets in
      if Array.length !img < Intern.capacity sets * nb then
        img := extend !img (Intern.capacity sets * nb) (-1);
      !img.(k) <- id;
      id
    end
  in
  let tuples = Intern.create n in
  (* Per tuple: parent id (-1 for the root) and the block that led from
     the parent. *)
  let parent = ref (Array.make (Intern.capacity tuples) (-1)) in
  let via = ref (Array.make (Intern.capacity tuples) (-1)) in
  let register h slot ~from ~block =
    let id = Intern.add tuples h slot in
    if id = Array.length !parent then begin
      parent := extend !parent (Intern.capacity tuples) (-1);
      via := extend !via (Intern.capacity tuples) (-1)
    end;
    !parent.(id) <- from;
    !via.(id) <- block
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
      Array.fill sets.scratch 0 w 0;
      set_bit sets.scratch 0 s;
      tuples.scratch.(i) <- Intern.intern sets)
    cfg.sources;
  if take () then begin
    let h = Intern.hash_scratch tuples in
    register h (Intern.probe tuples h) ~from:(-1) ~block:(-1)
  end
  else truncated := true;
  (* FIFO BFS over tuples, in id order.  A popped tuple that is safe
     covers the (source, node) pairs it projects to; unless that
     completes the target, its non-empty successor under every block is
     registered (one unit of fuel each) and queued. *)
  let head = ref 0 in
  while !head < tuples.count && (not !done_) && not (budget_dead ()) do
    let id = !head in
    incr head;
    let off = id * n in
    let t = tuples.keys in
    let safe = ref true in
    for i = 0 to n - 1 do
      let c = t.(off + i) * w in
      for j = 0 to w - 1 do
        if sets.keys.(c + j) land bad.((i * w) + j) <> 0 then safe := false
      done
    done;
    if !safe then begin
      for i = 0 to n - 1 do
        let c = t.(off + i) * w in
        for j = 0 to w - 1 do
          let x = ref sets.keys.(c + j) in
          while !x <> 0 do
            let b = !x land - !x in
            let q = node_of.((j * bpw) + bit_index b) in
            let p = (i * n) + q in
            if Bytes.get covered p = '\000' then begin
              Bytes.set covered p '\001';
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
      for b = 0 to nb - 1 do
        (* Registering may move the tuple arena; re-read it per block. *)
        let t = tuples.keys and succ = tuples.scratch in
        let any = ref 0 in
        for i = 0 to n - 1 do
          let c = image t.(off + i) b in
          succ.(i) <- c;
          any := !any lor c
        done;
        if !any <> 0 then begin
          let h = Intern.hash_scratch tuples in
          let slot = Intern.probe tuples h in
          if tuples.slots.(slot) < 0 then
            if tuples.count >= max_tuples || not (take ()) then truncated := true
            else register h slot ~from:id ~block:b
        end
      done
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
      m "explored %d tuples over %d state sets; covered %d/%d pairs%s"
        tuples.count sets.count !covered_count target_card
        (if !truncated then " (truncated)" else ""));
  { verdict; covered; witnesses; tuples_explored = tuples.count }
