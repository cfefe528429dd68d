module Data_graph = Datagraph.Data_graph
module Data_value = Datagraph.Data_value
module Basic_rem = Rem_lang.Basic_rem
module Condition = Rem_lang.Condition

type t = {
  g : Data_graph.t;
  k : int;
  base : int;  (** δ + 1; register code [δ] is ⊥ *)
  per_node : int;  (** [base^k]: the states of one node *)
  num_states : int;
  blocks : Witness_search.block array;
  decode : (string, Basic_rem.block) Hashtbl.t;
}

let graph t = t.g
let k t = t.k
let num_states t = t.num_states

(* State encoding: v * base^k + Σ σ_i · base^i, σ_i ∈ [0, δ] with δ = ⊥. *)
let pow b e =
  let rec go acc e = if e = 0 then acc else go (acc * b) (e - 1) in
  go 1 e

let encode t v sigma =
  let code = ref 0 in
  for i = t.k - 1 downto 0 do
    code := (!code * t.base) + sigma.(i)
  done;
  (v * t.per_node) + !code

let node_of t s = s / t.per_node

let sigma_of t s =
  let code = ref (s mod t.per_node) in
  Array.init t.k (fun _ ->
      let c = !code mod t.base in
      code := !code / t.base;
      c)

let initial t v =
  encode t v (Array.make t.k (t.base - 1))

let assignment_of t s =
  let g = t.g in
  let dom = Array.of_list (Data_graph.domain g) in
  Array.map
    (fun c -> if c = t.base - 1 then None else Some dom.(c))
    (sigma_of t s)

let subsets k =
  (* All subsets of {0..k-1} as sorted lists. *)
  let rec go i =
    if i >= k then [ [] ]
    else
      let rest = go (i + 1) in
      rest @ List.map (fun s -> i :: s) rest
  in
  go 0

let all_types k =
  let rec go i ty acc =
    if i >= k then Array.copy ty :: acc
    else begin
      ty.(i) <- false;
      let acc = go (i + 1) ty acc in
      ty.(i) <- true;
      let acc = go (i + 1) ty acc in
      ty.(i) <- false;
      acc
    end
  in
  List.rev (go 0 (Array.make k false) [])

let nonempty_subsets l =
  let rec go = function
    | [] -> [ [] ]
    | x :: rest ->
        let r = go rest in
        r @ List.map (fun s -> x :: s) r
  in
  List.filter (fun s -> s <> []) (go l)

let block_name bind label cond =
  Basic_rem.to_string [ { Basic_rem.bind; label; cond } ]

let create ?(all_condition_sets = false) g ~k =
  let delta = Data_graph.delta g in
  let base = delta + 1 in
  let n = Data_graph.size g in
  let per_node = pow base k in
  let num_states = n * per_node in
  let t0 =
    { g; k; base; per_node; num_states; blocks = [||]; decode = Hashtbl.create 16 }
  in
  (* Successors of one state under ↓r̄.a, partitioned by the complete type
     realized at the target: succ_by_type.(state) is a list of
     (type-as-int, state').  A type is encoded as a bit per register. *)
  let type_bits ty =
    let b = ref 0 in
    Array.iteri (fun i x -> if x then b := !b lor (1 lsl i)) ty;
    !b
  in
  let labels = List.init (Data_graph.label_count g) Fun.id in
  let binds = subsets k in
  let types = all_types k in
  (* For each (bind, label): an array state -> (type_bits * state') list. *)
  let base_succ =
    List.concat_map
      (fun bind ->
        List.map
          (fun lbl ->
            let arr = Array.make num_states [] in
            for s = 0 to num_states - 1 do
              let v = node_of t0 s in
              let sigma = sigma_of t0 s in
              let dv = Data_graph.value_index g v in
              let sigma' = Array.copy sigma in
              List.iter (fun r -> sigma'.(r) <- dv) bind;
              let out =
                List.map
                  (fun v' ->
                    let dv' = Data_graph.value_index g v' in
                    let ty =
                      Array.init k (fun i ->
                          sigma'.(i) <> delta && sigma'.(i) = dv')
                    in
                    (type_bits ty, encode t0 v' sigma'))
                  (Data_graph.succ_id g v lbl)
              in
              arr.(s) <- out
            done;
            ((bind, lbl), arr))
          labels)
      binds
  in
  let decode = Hashtbl.create 64 in
  let mk_block bind lbl tys =
    let cond =
      Condition.disj (List.map Condition.of_complete_type tys)
    in
    let label = Data_graph.label_name g lbl in
    let name = block_name bind label cond in
    let tybits = List.map type_bits tys in
    let succs =
      Array.map
        (List.filter_map (fun (tb, s') ->
             if List.mem tb tybits then Some s' else None))
        (List.assoc (bind, lbl) base_succ)
    in
    Hashtbl.replace decode name { Basic_rem.bind; label; cond };
    { Witness_search.name; succ = Array.get succs }
  in
  let blocks =
    List.concat_map
      (fun bind ->
        List.concat_map
          (fun lbl ->
            let type_choices =
              if all_condition_sets then nonempty_subsets types
              else List.map (fun ty -> [ ty ]) types
            in
            List.map (fun tys -> mk_block bind lbl tys) type_choices)
          labels)
      binds
    |> Array.of_list
  in
  { t0 with blocks; decode }

let blocks t = t.blocks

let config t =
  let n = Data_graph.size t.g in
  {
    Witness_search.num_states = t.num_states;
    sources = Array.init n (fun v -> initial t v);
    node_of = (fun s -> node_of t s);
    blocks = t.blocks;
  }

let basic_block_of_name t name = Hashtbl.find t.decode name
