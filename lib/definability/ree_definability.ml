module Data_graph = Datagraph.Data_graph
module Relation = Datagraph.Relation
module Ree = Ree_lang.Ree
module Ree_term = Ree_lang.Ree_term
module Budget = Engine.Budget

let log_src =
  Logs.Src.create "definability.ree" ~doc:"REE closure computation"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Rel_tbl = Hashtbl.Make (struct
  type t = Relation.t

  let equal = Relation.equal
  let hash = Relation.hash
end)

type search = {
  witnesses : ((int * int) * Ree_term.t) list;
  missing : (int * int) list;
  truncated : bool;
  closure_size : int;
  max_height : int;
}

let closure ?(max_size = 200_000) g =
  let value = Data_graph.value g in
  let tbl : Ree_term.t Rel_tbl.t = Rel_tbl.create 1024 in
  let order = ref [] in
  let queue = Queue.create () in
  let truncated = ref false in
  let add rel term =
    if not (Rel_tbl.mem tbl rel) then begin
      if Rel_tbl.length tbl >= max_size then truncated := true
      else begin
        Rel_tbl.add tbl rel term;
        order := (rel, term) :: !order;
        Queue.add (rel, term) queue
      end
    end
  in
  add (Relation.identity (Data_graph.size g)) Ree_term.Eps;
  List.iter
    (fun a -> add (Relation.edge_relation g a) (Ree_term.Letter a))
    (Data_graph.alphabet g);
  while not (Queue.is_empty queue) do
    let r, t = Queue.pop queue in
    add (Relation.restrict_eq ~value r) (Ree_term.EqTest t);
    add (Relation.restrict_neq ~value r) (Ree_term.NeqTest t);
    (* Compose with everything known so far, both ways.  The snapshot
       excludes relations added later in this pop, but those will compose
       with [r] when they are popped themselves. *)
    let snapshot = !order in
    List.iter
      (fun (x, tx) ->
        add (Relation.compose r x) (Ree_term.Concat (t, tx));
        add (Relation.compose x r) (Ree_term.Concat (tx, t)))
      snapshot
  done;
  (List.rev !order, !truncated)

(* Like [closure], but checks coverage of [s] incrementally and stops as
   soon as every pair has a witness — the common case for definable
   relations, where materializing the whole closure would be wasteful. *)
let search ?budget ?(max_size = 200_000) g s =
  Obs.Span.with_ "ree.closure" @@ fun () ->
  let value = Data_graph.value g in
  let take () = match budget with None -> true | Some b -> Budget.take b in
  let budget_dead () =
    match budget with None -> false | Some b -> Budget.exhausted b
  in
  let tbl : Ree_term.t Rel_tbl.t = Rel_tbl.create 1024 in
  let order = ref [] in
  let queue = Queue.create () in
  let truncated = ref false in
  let max_height = ref 0 in
  let witnesses : (int * int, Ree_term.t) Hashtbl.t = Hashtbl.create 16 in
  let remaining = ref (Relation.cardinal s) in
  let note rel term =
    if !remaining > 0 && Relation.subset rel s then
      Relation.iter
        (fun u v ->
          if not (Hashtbl.mem witnesses (u, v)) then begin
            Hashtbl.add witnesses (u, v) term;
            decr remaining
          end)
        rel
  in
  let add rel term =
    if !remaining > 0 && not (Rel_tbl.mem tbl rel) then begin
      if Rel_tbl.length tbl >= max_size || not (take ()) then
        truncated := true
      else begin
        Rel_tbl.add tbl rel term;
        max_height := max !max_height (Ree_term.height term);
        order := (rel, term) :: !order;
        Queue.add (rel, term) queue;
        note rel term
      end
    end
  in
  add (Relation.identity (Data_graph.size g)) Ree_term.Eps;
  List.iter
    (fun a -> add (Relation.edge_relation g a) (Ree_term.Letter a))
    (Data_graph.alphabet g);
  while !remaining > 0 && (not (Queue.is_empty queue)) && not (budget_dead ())
  do
    let r, t = Queue.pop queue in
    add (Relation.restrict_eq ~value r) (Ree_term.EqTest t);
    add (Relation.restrict_neq ~value r) (Ree_term.NeqTest t);
    List.iter
      (fun (x, tx) ->
        add (Relation.compose r x) (Ree_term.Concat (t, tx));
        add (Relation.compose x r) (Ree_term.Concat (tx, t)))
      !order
  done;
  if budget_dead () then truncated := true;
  let witnesses_list =
    List.sort compare
      (Hashtbl.fold (fun pair t acc -> (pair, t) :: acc) witnesses [])
  in
  let missing =
    Relation.fold
      (fun u v acc -> if Hashtbl.mem witnesses (u, v) then acc else (u, v) :: acc)
      s []
    |> List.rev
  in
  Log.debug (fun m ->
      m "explored %d relations (max height %d)%s" (Rel_tbl.length tbl)
        !max_height
        (if !truncated then " (truncated)" else ""));
  {
    witnesses = witnesses_list;
    missing;
    truncated = !truncated;
    closure_size = Rel_tbl.length tbl;
    max_height = !max_height;
  }

let verdict r =
  if r.missing = [] then Some true
  else if r.truncated then None
  else Some false

(* An REE with empty language: a single data value never differs from
   itself, so L(ε≠) = ∅. *)
let empty_ree = Ree.NeqTest Ree.Eps

let union_ree = function
  | [] -> empty_ree
  | e :: rest -> List.fold_left (fun acc x -> Ree.Union (acc, x)) e rest

let query_of_witnesses witnesses =
  let terms = List.sort_uniq compare (List.map snd witnesses) in
  union_ree (List.map Ree_term.to_ree terms)
