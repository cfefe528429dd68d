module Tuples = Set.Make (struct
  type t = int list

  let compare = Stdlib.compare
end)

type t = { universe : int; arity : int; tuples : Tuples.t }

let arity r = r.arity
let universe r = r.universe

let empty ~universe ~arity =
  if arity < 0 || universe < 0 then invalid_arg "Tuple_relation.empty";
  { universe; arity; tuples = Tuples.empty }

let check r tup =
  if List.length tup <> r.arity then
    invalid_arg "Tuple_relation: wrong arity";
  List.iter
    (fun v ->
      if v < 0 || v >= r.universe then
        invalid_arg "Tuple_relation: node out of range")
    tup

let add r tup =
  check r tup;
  { r with tuples = Tuples.add tup r.tuples }

let of_list ~universe ~arity tuples =
  List.fold_left add (empty ~universe ~arity) tuples

let to_list r = Tuples.elements r.tuples

let mem r tup =
  check r tup;
  Tuples.mem tup r.tuples

let cardinal r = Tuples.cardinal r.tuples
let is_empty r = Tuples.is_empty r.tuples

let equal r1 r2 =
  r1.universe = r2.universe && r1.arity = r2.arity
  && Tuples.equal r1.tuples r2.tuples

let subset r1 r2 =
  r1.universe = r2.universe && r1.arity = r2.arity
  && Tuples.subset r1.tuples r2.tuples

let map h r =
  { r with tuples = Tuples.map (List.map h) r.tuples }

let union r1 r2 =
  if r1.universe <> r2.universe || r1.arity <> r2.arity then
    invalid_arg "Tuple_relation.union: shape mismatch";
  { r1 with tuples = Tuples.union r1.tuples r2.tuples }

let iter f r = Tuples.iter f r.tuples
let fold f r init = Tuples.fold f r.tuples init
let exists p r = Tuples.exists p r.tuples

let find_opt p r =
  Tuples.fold (fun t acc -> if acc = None && p t then Some t else acc) r.tuples None

let of_binary b =
  Relation.fold
    (fun u v acc -> add acc [ u; v ])
    b
    (empty ~universe:(Relation.universe b) ~arity:2)

let to_binary r =
  if r.arity <> 2 then invalid_arg "Tuple_relation.to_binary: arity <> 2";
  Relation.of_list r.universe
    (fold
       (fun tup acc ->
         match tup with [ u; v ] -> (u, v) :: acc | _ -> assert false)
       r [])

let pp_with ppf r pr =
  Format.fprintf ppf "{@[<hov>";
  let first = ref true in
  iter
    (fun tup ->
      if !first then first := false else Format.fprintf ppf ",@ ";
      Format.fprintf ppf "(%s)" (String.concat "," (List.map pr tup)))
    r;
  Format.fprintf ppf "@]}"

let pp g ppf r = pp_with ppf r (Data_graph.name g)
let pp_raw ppf r = pp_with ppf r string_of_int
