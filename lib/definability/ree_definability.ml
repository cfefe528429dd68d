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

(* The closure loop shared by [closure] and [search].  Each element
   travels with its witness term and the term's height, so no height is
   recomputed from a term.  Elements are admitted in discovery order:
   S_ε, the letters, then per popped element its two restrictions and
   its compositions with every element known at that point, both ways.
   [finished] stops the loop (and refuses further admissions) once it
   holds; [note] sees every admitted element.  Returns the elements
   newest first, whether the exploration was truncated, and the
   largest height admitted.

   Nearly every composition is a relation already known, so each is
   built in one scratch relation and copied only when it is admitted. *)
let explore ?budget ~max_size ~finished ~note g =
  let value = Data_graph.value g in
  let take () = match budget with None -> true | Some b -> Budget.take b in
  let budget_dead () =
    match budget with None -> false | Some b -> Budget.exhausted b
  in
  let tbl : unit Rel_tbl.t = Rel_tbl.create 1024 in
  let order = ref [] in
  let queue = Queue.create () in
  let truncated = ref false in
  let max_height = ref 0 in
  let add ?(keep = Fun.id) rel term height =
    if (not (finished ())) && not (Rel_tbl.mem tbl rel) then begin
      if Rel_tbl.length tbl >= max_size || not (take ()) then
        truncated := true
      else begin
        let rel = keep rel in
        Rel_tbl.add tbl rel ();
        if height > !max_height then max_height := height;
        let e = (rel, term, height) in
        order := e :: !order;
        Queue.add e queue;
        note rel term
      end
    end
  in
  let scratch = Relation.empty (Data_graph.size g) in
  let add_composed r1 r2 term height =
    Relation.compose_into ~into:scratch r1 r2;
    add ~keep:Relation.copy scratch term height
  in
  add (Relation.identity (Data_graph.size g)) Ree_term.Eps 0;
  List.iter
    (fun a -> add (Relation.edge_relation g a) (Ree_term.Letter a) 0)
    (Data_graph.alphabet g);
  while (not (finished ())) && (not (Queue.is_empty queue)) && not (budget_dead ())
  do
    let r, t, h = Queue.pop queue in
    add (Relation.restrict_eq ~value r) (Ree_term.EqTest t) (h + 1);
    add (Relation.restrict_neq ~value r) (Ree_term.NeqTest t) (h + 1);
    (* Compose with everything known so far, both ways.  [!order] is read
       once, so relations added later in this pop are left out; they
       compose with [r] when they are popped themselves. *)
    List.iter
      (fun (x, tx, hx) ->
        let hc = max h hx in
        add_composed r x (Ree_term.Concat (t, tx)) hc;
        add_composed x r (Ree_term.Concat (tx, t)) hc)
      !order
  done;
  if budget_dead () then truncated := true;
  (!order, !truncated, !max_height)

let closure ?(max_size = 200_000) g =
  let order, truncated, _ =
    explore ~max_size ~finished:(fun () -> false) ~note:(fun _ _ -> ()) g
  in
  (List.rev_map (fun (r, t, _) -> (r, t)) order, truncated)

(* Like [closure], but checks coverage of [s] incrementally and stops as
   soon as every pair has a witness — the common case for definable
   relations, where materializing the whole closure would be wasteful. *)
let search ?budget ?(max_size = 200_000) g s =
  Obs.Span.with_ "ree.closure" @@ fun () ->
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
  let order, truncated, max_height =
    explore ?budget ~max_size ~finished:(fun () -> !remaining <= 0) ~note g
  in
  let closure_size = List.length order in
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
      m "explored %d relations (max height %d)%s" closure_size max_height
        (if truncated then " (truncated)" else ""));
  { witnesses = witnesses_list; missing; truncated; closure_size; max_height }

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
