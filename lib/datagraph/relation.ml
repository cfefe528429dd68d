(* Word-row representation: with [w = ⌈n/63⌉] native ints per row, row u
   occupies [words.(u·w) … words.(u·w + w - 1)], and bit [v mod 63] of
   word [v / 63] of the row is set iff (u, v) is in the relation.  Bits
   at or above [n] in a row's last word are always clear, so equality,
   hashing and the set operators are plain word loops.  A value is never
   mutated once returned. *)
type t = { n : int; w : int; words : int array }

let bpw = Util.Bitset.bits_per_word
let popcount = Util.Bitset.popcount
let row_words n = (n + bpw - 1) / bpw
let empty n = { n; w = row_words n; words = Array.make (n * row_words n) 0 }
let universe r = r.n

(* Index of the lowest set bit of a nonzero word. *)
let low_bit x = popcount ((x land -x) - 1)

let check r u v =
  if u < 0 || u >= r.n || v < 0 || v >= r.n then
    invalid_arg "Relation: node out of range"

let get words w u v =
  (Array.unsafe_get words ((u * w) + (v / bpw)) lsr (v mod bpw)) land 1 = 1

let set words w u v =
  let i = (u * w) + (v / bpw) in
  Array.unsafe_set words i (Array.unsafe_get words i lor (1 lsl (v mod bpw)))

let mem r u v =
  check r u v;
  get r.words r.w u v

let add r u v =
  check r u v;
  let words = Array.copy r.words in
  set words r.w u v;
  { r with words }

let remove r u v =
  check r u v;
  let words = Array.copy r.words in
  let i = (u * r.w) + (v / bpw) in
  words.(i) <- words.(i) land lnot (1 lsl (v mod bpw));
  { r with words }

let of_list n pairs =
  let r = empty n in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Relation.of_list: node out of range";
      set r.words r.w u v)
    pairs;
  r

let full n =
  let r = empty n in
  if n > 0 then begin
    let tail = n mod bpw in
    let last = if tail = 0 then -1 else (1 lsl tail) - 1 in
    Array.fill r.words 0 (Array.length r.words) (-1);
    for u = 0 to n - 1 do
      r.words.((u * r.w) + r.w - 1) <- last
    done
  end;
  r

let identity n =
  let r = empty n in
  for u = 0 to n - 1 do
    set r.words r.w u u
  done;
  r

let iter f r =
  let w = r.w and words = r.words in
  for u = 0 to r.n - 1 do
    for wi = 0 to w - 1 do
      let x = ref (Array.unsafe_get words ((u * w) + wi)) in
      while !x <> 0 do
        f u ((wi * bpw) + low_bit !x);
        x := !x land (!x - 1)
      done
    done
  done

let fold f r init =
  let acc = ref init in
  iter (fun u v -> acc := f u v !acc) r;
  !acc

let to_list r = List.rev (fold (fun u v l -> (u, v) :: l) r [])

let cardinal r =
  let c = ref 0 in
  for i = 0 to Array.length r.words - 1 do
    c := !c + popcount (Array.unsafe_get r.words i)
  done;
  !c

let is_empty r = Array.for_all (fun x -> x = 0) r.words

let equal r1 r2 =
  r1.n = r2.n
  &&
  let a = r1.words and b = r2.words in
  let rec go i =
    i < 0 || (Array.unsafe_get a i = Array.unsafe_get b i && go (i - 1))
  in
  go (Array.length a - 1)

(* The order of the byte matrix this layout replaced: universes first,
   then rows in order, each row's bytes low to high, unsigned — so the
   first differing byte decides, and inside it the highest differing
   bit.  That byte is the one holding the lowest differing bit [v] of
   the first differing word, and may straddle two words. *)
let compare r1 r2 =
  let c = Int.compare r1.n r2.n in
  if c <> 0 then c
  else
    let a = r1.words and b = r2.words and w = r1.w in
    let len = Array.length a in
    let rec first i = if i = len || a.(i) <> b.(i) then i else first (i + 1) in
    let i = first 0 in
    if i = len then 0
    else
      let u = i / w in
      let lo = ((i mod w * bpw) + low_bit (a.(i) lxor b.(i))) land lnot 7 in
      let rec decide v =
        let x = get a w u v in
        if x <> get b w u v then if x then 1 else -1 else decide (v - 1)
      in
      decide (min (lo + 7) (r1.n - 1))

(* Relations over the same universe that differ in a single word never
   collide (see {!Util.Bitset.hash_words}). *)
let hash r = Util.Bitset.hash_words r.n r.words

let zip_words f r1 r2 =
  if r1.n <> r2.n then invalid_arg "Relation: universe mismatch";
  { r1 with words = Array.map2 f r1.words r2.words }

let union = zip_words (fun a b -> a lor b)
let inter = zip_words (fun a b -> a land b)
let diff = zip_words (fun a b -> a land lnot b)

let subset r1 r2 =
  if r1.n <> r2.n then invalid_arg "Relation: universe mismatch";
  let a = r1.words and b = r2.words in
  let rec go i =
    i < 0
    || (Array.unsafe_get a i land lnot (Array.unsafe_get b i) = 0 && go (i - 1))
  in
  go (Array.length a - 1)

(* Row-oriented boolean matrix product: row u of [into] becomes the OR
   of rows z of [r2] over the set bits z of row u of [r1].  Each row is
   overwritten whole, so [into] needs no clearing first. *)
let compose_into ~into r1 r2 =
  if r1.n <> r2.n || into.n <> r1.n then
    invalid_arg "Relation.compose: universe mismatch";
  let n = r1.n and w = r1.w in
  if n > 0 && (into.words == r1.words || into.words == r2.words) then
    invalid_arg "Relation.compose_into: into aliases an operand";
  let a = r1.words and b = r2.words and out = into.words in
  if w = 1 then
    for u = 0 to n - 1 do
      let x = ref (Array.unsafe_get a u) and row = ref 0 in
      while !x <> 0 do
        row := !row lor Array.unsafe_get b (low_bit !x);
        x := !x land (!x - 1)
      done;
      Array.unsafe_set out u !row
    done
  else
    for u = 0 to n - 1 do
      let base = u * w in
      Array.fill out base w 0;
      for wi = 0 to w - 1 do
        let x = ref (Array.unsafe_get a (base + wi)) in
        while !x <> 0 do
          let zbase = ((wi * bpw) + low_bit !x) * w in
          for k = 0 to w - 1 do
            Array.unsafe_set out (base + k)
              (Array.unsafe_get out (base + k) lor Array.unsafe_get b (zbase + k))
          done;
          x := !x land (!x - 1)
        done
      done
    done

let compose r1 r2 =
  let out = empty r1.n in
  compose_into ~into:out r1 r2;
  out

let copy r = { r with words = Array.copy r.words }

let filter p r =
  let out = empty r.n in
  iter (fun u v -> if p u v then set out.words out.w u v) r;
  out

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
  let r = empty (Data_graph.size g) in
  for u = 0 to r.n - 1 do
    List.iter (fun v -> set r.words r.w u v) (Data_graph.succ_id g u a)
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
  let out = empty r.n in
  iter
    (fun u v ->
      let v' = h v in
      let u' = h u in
      check out u' v';
      set out.words out.w u' v')
    r;
  out

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
