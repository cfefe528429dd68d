module Data_graph = Datagraph.Data_graph
module Relation = Datagraph.Relation

type t =
  | Eps
  | Letter of string
  | Concat of t * t
  | EqTest of t
  | NeqTest of t

let rec to_ree = function
  | Eps -> Ree.Eps
  | Letter a -> Ree.Letter a
  | Concat (t1, t2) -> Ree.Concat (to_ree t1, to_ree t2)
  | EqTest t -> Ree.EqTest (to_ree t)
  | NeqTest t -> Ree.NeqTest (to_ree t)

let relation g t =
  let value = Data_graph.value g in
  let rec go = function
    | Eps -> Relation.identity (Data_graph.size g)
    | Letter a -> Relation.edge_relation g a
    | Concat (t1, t2) -> Relation.compose (go t1) (go t2)
    | EqTest t -> Relation.restrict_eq ~value (go t)
    | NeqTest t -> Relation.restrict_neq ~value (go t)
  in
  go t

let rec height = function
  | Eps | Letter _ -> 0
  | Concat (t1, t2) -> max (height t1) (height t2)
  | EqTest t | NeqTest t -> 1 + height t

let rec size = function
  | Eps | Letter _ -> 1
  | Concat (t1, t2) -> 1 + size t1 + size t2
  | EqTest t | NeqTest t -> 1 + size t

let equal = ( = )

let rec add_prec b prec t =
  let paren open_ body =
    if open_ then begin
      Buffer.add_char b '(';
      body ();
      Buffer.add_char b ')'
    end
    else body ()
  in
  match t with
  | Eps -> Buffer.add_string b "eps"
  | Letter a -> Buffer.add_string b a
  | Concat (t1, t2) ->
      paren (prec > 1) (fun () ->
          add_prec b 1 t1;
          Buffer.add_char b ' ';
          add_prec b 2 t2)
  | EqTest t1 ->
      paren (prec > 2) (fun () ->
          add_prec b 3 t1;
          Buffer.add_char b '=')
  | NeqTest t1 ->
      paren (prec > 2) (fun () ->
          add_prec b 3 t1;
          Buffer.add_string b "!=")

let to_string t =
  let b = Buffer.create 64 in
  add_prec b 0 t;
  Buffer.contents b

let pp ppf t = Format.pp_print_string ppf (to_string t)

let concat_of = function
  | [] -> Eps
  | t :: rest -> List.fold_left (fun acc x -> Concat (acc, x)) t rest

let matches t w = Ree.matches (to_ree t) w
