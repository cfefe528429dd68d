(* The byte-matrix relation the library used before its word-row layout
   (one [Bytes] row of [⌈n/8⌉] bytes per node, a full copy per [add]
   and per kept pair of [filter]), kept verbatim (modulo qualified
   module names) as the reference [Datagraph.Relation] must equal: the
   same pairs in the same order, the same [compare] sign and the same
   exceptions on every input.  Nothing outside the tests uses this. *)

module Data_value = Datagraph.Data_value
module Data_graph = Datagraph.Data_graph

(* Bit-matrix representation: row u occupies [row_bytes] bytes starting at
   [u * row_bytes]; bit v of the row is set iff (u, v) is in the relation. *)
type t = { n : int; bits : Bytes.t }

let row_bytes n = (n + 7) / 8
let universe r = r.n
let empty n = { n; bits = Bytes.make (n * row_bytes n) '\000' }

let check r u v =
  if u < 0 || u >= r.n || v < 0 || v >= r.n then
    invalid_arg "Relation: node out of range"

let mem r u v =
  check r u v;
  let byte = Bytes.get_uint8 r.bits ((u * row_bytes r.n) + (v lsr 3)) in
  byte land (1 lsl (v land 7)) <> 0

let set_bit bits rb u v =
  let idx = (u * rb) + (v lsr 3) in
  Bytes.set_uint8 bits idx (Bytes.get_uint8 bits idx lor (1 lsl (v land 7)))

let clear_bit bits rb u v =
  let idx = (u * rb) + (v lsr 3) in
  Bytes.set_uint8 bits idx (Bytes.get_uint8 bits idx land lnot (1 lsl (v land 7)))

let add r u v =
  check r u v;
  let bits = Bytes.copy r.bits in
  set_bit bits (row_bytes r.n) u v;
  { r with bits }

let remove r u v =
  check r u v;
  let bits = Bytes.copy r.bits in
  clear_bit bits (row_bytes r.n) u v;
  { r with bits }

let of_list n pairs =
  let bits = Bytes.make (n * row_bytes n) '\000' in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Relation.of_list: node out of range";
      set_bit bits (row_bytes n) u v)
    pairs;
  { n; bits }

let full n =
  let r = empty n in
  let rb = row_bytes n in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      set_bit r.bits rb u v
    done
  done;
  r

let identity n =
  let r = empty n in
  let rb = row_bytes n in
  for u = 0 to n - 1 do
    set_bit r.bits rb u u
  done;
  r

let iter f r =
  for u = 0 to r.n - 1 do
    for v = 0 to r.n - 1 do
      if mem r u v then f u v
    done
  done

let fold f r init =
  let acc = ref init in
  iter (fun u v -> acc := f u v !acc) r;
  !acc

let to_list r = List.rev (fold (fun u v l -> (u, v) :: l) r [])
let cardinal r = fold (fun _ _ c -> c + 1) r 0
let is_empty r = Bytes.for_all (fun c -> c = '\000') r.bits
let equal r1 r2 = r1.n = r2.n && Bytes.equal r1.bits r2.bits

let compare r1 r2 =
  let c = Stdlib.compare r1.n r2.n in
  if c <> 0 then c else Bytes.compare r1.bits r2.bits

let hash r = Hashtbl.hash (r.n, Bytes.to_string r.bits)

let zip_bytes f r1 r2 =
  if r1.n <> r2.n then invalid_arg "Relation: universe mismatch";
  let bits = Bytes.copy r1.bits in
  for i = 0 to Bytes.length bits - 1 do
    Bytes.set_uint8 bits i (f (Bytes.get_uint8 r1.bits i) (Bytes.get_uint8 r2.bits i) land 0xff)
  done;
  { r1 with bits }

let union = zip_bytes (fun a b -> a lor b)
let inter = zip_bytes (fun a b -> a land b)
let diff = zip_bytes (fun a b -> a land lnot b)

let subset r1 r2 = equal (union r1 r2) r2

(* Row-oriented boolean matrix product: result row u is the OR of rows z of
   [r2] over all z in row u of [r1]. *)
let compose r1 r2 =
  if r1.n <> r2.n then invalid_arg "Relation.compose: universe mismatch";
  let n = r1.n in
  let rb = row_bytes n in
  let bits = Bytes.make (n * rb) '\000' in
  for u = 0 to n - 1 do
    for z = 0 to n - 1 do
      if mem r1 u z then
        for i = 0 to rb - 1 do
          Bytes.set_uint8 bits ((u * rb) + i)
            (Bytes.get_uint8 bits ((u * rb) + i)
            lor Bytes.get_uint8 r2.bits ((z * rb) + i))
        done
    done
  done;
  { n; bits }

let filter p r =
  let out = ref (empty r.n) in
  iter (fun u v -> if p u v then out := add !out u v) r;
  !out

let restrict_eq ~value r =
  filter (fun u v -> Data_value.equal (value u) (value v)) r

let restrict_neq ~value r =
  filter (fun u v -> not (Data_value.equal (value u) (value v))) r

let transitive_closure r =
  let rec go acc frontier =
    let next = compose frontier r in
    let acc' = union acc next in
    if equal acc acc' then acc else go acc' next
  in
  go r r

let edge_relation_id g a =
  let n = Data_graph.size g in
  let r = empty n in
  let rb = row_bytes n in
  for u = 0 to n - 1 do
    List.iter (fun v -> set_bit r.bits rb u v) (Data_graph.succ_id g u a)
  done;
  r

let edge_relation g a =
  match Data_graph.label_id_opt g a with
  | None -> empty (Data_graph.size g)
  | Some i -> edge_relation_id g i

let step_relation g =
  let n = Data_graph.size g in
  List.fold_left
    (fun acc a -> union acc (edge_relation_id g a))
    (empty n)
    (List.init (Data_graph.label_count g) Fun.id)

let connected_by g w = of_list (Data_graph.size g) (Data_graph.connects g w)

let map h r =
  let out = ref (empty r.n) in
  iter (fun u v -> out := add !out (h u) (h v)) r;
  !out

let pp g ppf r =
  Format.fprintf ppf "{@[<hov>";
  let first = ref true in
  iter
    (fun u v ->
      if !first then first := false else Format.fprintf ppf ",@ ";
      Format.fprintf ppf "(%s,%s)" (Data_graph.name g u) (Data_graph.name g v))
    r;
  Format.fprintf ppf "@]}"

let pp_raw ppf r =
  Format.fprintf ppf "{@[<hov>";
  let first = ref true in
  iter
    (fun u v ->
      if !first then first := false else Format.fprintf ppf ",@ ";
      Format.fprintf ppf "(%d,%d)" u v)
    r;
  Format.fprintf ppf "@]}"
