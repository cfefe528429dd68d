module Relation = Datagraph.Relation

type expr =
  | Rpq of Regexp.Regex.t
  | Rem of Rem_lang.Rem.t
  | Ree of Ree_lang.Ree.t

type lang = [ `Rpq | `Rem | `Ree ]

let eval g = function
  | Rpq e -> Regexp.Nfa.eval_on_graph g (Regexp.Nfa.of_regex e)
  | Rem e ->
      Rem_lang.Register_automaton.eval_on_graph g
        (Rem_lang.Register_automaton.of_rem e)
  | Ree e ->
      Rem_lang.Register_automaton.eval_on_graph g
        (Rem_lang.Register_automaton.of_rem (Ree_lang.Ree.to_rem e))

let matches_path e w =
  match e with
  | Rpq e ->
      let labels = Array.to_list (Datagraph.Data_path.labels w) in
      Regexp.Regex.matches e labels
  | Rem e -> Rem_lang.Rem.matches e w
  | Ree e -> Ree_lang.Ree.matches e w

let defines g e s = Relation.equal (eval g e) s

let to_string = function
  | Rpq e -> Regexp.Regex.to_string e
  | Rem e -> Rem_lang.Rem.to_string e
  | Ree e -> Ree_lang.Ree.to_string e

let pp ppf e = Format.pp_print_string ppf (to_string e)

let parse ~lang s =
  match lang with
  | `Rpq -> Result.map (fun e -> Rpq e) (Regexp.Regex.parse s)
  | `Rem -> Result.map (fun e -> Rem e) (Rem_lang.Rem.parse s)
  | `Ree -> Result.map (fun e -> Ree e) (Ree_lang.Ree.parse s)

let simplify = function
  | Rpq e -> Rpq (Regexp.Regex.simplify e)
  | Rem e -> Rem (Rem_lang.Rem.simplify e)
  | Ree e -> Ree (Ree_lang.Ree.simplify e)

let contained_on g e1 e2 = Relation.subset (eval g e1) (eval g e2)
let equivalent_on g e1 e2 = Relation.equal (eval g e1) (eval g e2)
