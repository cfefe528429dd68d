let graph_to_string g =
  let buf = Buffer.create 256 in
  List.iter
    (fun v ->
      Buffer.add_string buf
        (Printf.sprintf "node %s %d\n" (Data_graph.name g v)
           (Data_value.to_int (Data_graph.value g v))))
    (Data_graph.nodes g);
  List.iter
    (fun (u, a, v) ->
      Buffer.add_string buf
        (Printf.sprintf "edge %s %s %s\n" (Data_graph.name g u) a
           (Data_graph.name g v)))
    (Data_graph.edges g);
  Buffer.contents buf

let tuples_to_string g r =
  let buf = Buffer.create 256 in
  Tuple_relation.iter
    (fun tup ->
      Buffer.add_string buf
        ("tuple "
        ^ String.concat " " (List.map (Data_graph.name g) tup)
        ^ "\n"))
    r;
  Buffer.contents buf

let instance_to_string g r = graph_to_string g ^ tuples_to_string g r

(* ------------------------------------------------------------------ *)
(* Parsing: one scan of the text by index.  A line ends at '\n', a '#'
   ends its content, and words are separated by spaces and tabs.  No
   line, word or item list is cut out of the text: words are offsets,
   and node names, labels, edge endpoints and tuple names are looked up
   straight from the text in tables of substrings.  Only distinct node
   names and labels become strings.  Errors come out in the order the
   line-by-line parser reported them: the first malformed line, then a
   duplicate node name, an unknown edge endpoint (the target before the
   source), a duplicate edge, and last the relation. *)

(* The distinct substrings [text.[start.(i)] .. text.[stop.(i) - 1]] of
   one text, numbered [i] in first-insertion order, in an open-addressing
   hash table: a lookup allocates nothing. *)
type table = {
  text : string;
  mutable slots : int array;  (* id + 1, or 0 for a free slot *)
  mutable start : int array;
  mutable stop : int array;
  mutable hashes : int array;
  mutable count : int;
}

let table text =
  {
    text;
    slots = Array.make 64 0;
    start = Array.make 16 0;
    stop = Array.make 16 0;
    hashes = Array.make 16 0;
    count = 0;
  }

let hash_sub text s e =
  let h = ref 0x811c9dc5 in
  for i = s to e - 1 do
    h := (!h lxor Char.code (String.unsafe_get text i)) * 0x01000193
  done;
  !h land max_int

(* The slot of [text.[s] .. text.[e - 1]], whose hash is [h]: free, or
   holding its id + 1. *)
let slot t h s e =
  let mask = Array.length t.slots - 1 in
  let i = ref (h land mask) and found = ref false in
  while not !found do
    let id = t.slots.(!i) - 1 in
    if id < 0 then found := true
    else if t.hashes.(id) = h && t.stop.(id) - t.start.(id) = e - s then begin
      let o = t.start.(id) - s and k = ref s in
      while !k < e && String.unsafe_get t.text !k = String.unsafe_get t.text (!k + o) do
        incr k
      done;
      if !k = e then found := true else i := (!i + 1) land mask
    end
    else i := (!i + 1) land mask
  done;
  !i

(* The id of the substring, or -1. *)
let find t s e = t.slots.(slot t (hash_sub t.text s e) s e) - 1

let grow a = Array.append a (Array.make (Array.length a) 0)

(* The id of the substring, added if new (a new id is [count - 1]). *)
let add t s e =
  let h = hash_sub t.text s e in
  let i = slot t h s e in
  if t.slots.(i) > 0 then t.slots.(i) - 1
  else begin
    let id = t.count in
    if id = Array.length t.start then begin
      t.start <- grow t.start;
      t.stop <- grow t.stop;
      t.hashes <- grow t.hashes
    end;
    t.start.(id) <- s;
    t.stop.(id) <- e;
    t.hashes.(id) <- h;
    t.count <- id + 1;
    t.slots.(i) <- id + 1;
    if 2 * t.count > Array.length t.slots then begin
      (* Rehash into a table twice the size. *)
      let slots = Array.make (2 * Array.length t.slots) 0 in
      let mask = Array.length slots - 1 in
      for id = 0 to t.count - 1 do
        let i = ref (t.hashes.(id) land mask) in
        while slots.(!i) <> 0 do
          i := (!i + 1) land mask
        done;
        slots.(!i) <- id + 1
      done;
      t.slots <- slots
    end;
    id
  end

let strings t = Array.init t.count (fun id -> String.sub t.text t.start.(id) (t.stop.(id) - t.start.(id)))

(* A growable int array. *)
type vec = { mutable a : int array; mutable len : int }

let vec () = { a = Array.make 64 0; len = 0 }

let push v x =
  if v.len = Array.length v.a then v.a <- grow v.a;
  v.a.(v.len) <- x;
  v.len <- v.len + 1

(* What one scan collects.  Node names are in [names] (ids = node
   indices) with their values in [values]; the first repeated name is
   [dup].  Edge [i] is [edges.a.(5i) .. edges.a.(5i + 4)]: source start
   and stop, label id, target start and stop.  Tuple [j] is the words
   [tuple_words.a.(tuple_first.a.(j))] up to
   [tuple_words.a.(tuple_first.a.(j + 1))] (exclusive), as start/stop
   pairs. *)
type scan = {
  names : table;
  values : vec;
  mutable dup : (int * int) option;
  labels : table;
  edges : vec;
  tuple_first : vec;
  tuple_words : vec;
}

exception Syntax of string

let syntax lineno msg = raise (Syntax (Printf.sprintf "line %d: %s" lineno msg))
let sub text s e = String.sub text s (e - s)

(* The directive a word names: 1 node, 2 edge, 3 pair, 4 tuple, or 0. *)
let directive text s e =
  let is kw =
    let n = String.length kw in
    let k = ref 0 in
    while !k < n && e - s = n && String.unsafe_get text (s + !k) = String.unsafe_get kw !k do
      incr k
    done;
    e - s = n && !k = n
  in
  if is "node" then 1 else if is "edge" then 2 else if is "pair" then 3 else if is "tuple" then 4 else 0

(* [int_of_string_opt] of the word, without cutting it out when it is
   plain decimal. *)
let int_of_word text s e =
  let neg = text.[s] = '-' in
  let d0 = if neg then s + 1 else s in
  let acc = ref 0 and i = ref d0 in
  while !i < e && !i - d0 < 18 && text.[!i] >= '0' && text.[!i] <= '9' do
    acc := (10 * !acc) + Char.code text.[!i] - 48;
    incr i
  done;
  if !i = e && e > d0 then Some (if neg then - !acc else !acc)
  else int_of_string_opt (sub text s e)

(* One line's words, [words.a.(2i)] to [words.a.(2i + 1)]. *)
let line sc text lineno words =
  let nw = words.len / 2 in
  let ws i = words.a.(2 * i) and we i = words.a.((2 * i) + 1) in
  if nw > 0 then
    match directive text (ws 0) (we 0) with
    | 1 -> (
        if nw <> 3 then syntax lineno "expected: node <name> <value>";
        match int_of_word text (ws 2) (we 2) with
        | None -> syntax lineno ("bad data value " ^ sub text (ws 2) (we 2))
        | Some d ->
            let count = sc.names.count in
            if add sc.names (ws 1) (we 1) = count then push sc.values d
            else if sc.dup = None then sc.dup <- Some (ws 1, we 1))
    | 2 ->
        if nw <> 4 then syntax lineno "expected: edge <src> <label> <dst>";
        push sc.edges (ws 1);
        push sc.edges (we 1);
        push sc.edges (add sc.labels (ws 2) (we 2));
        push sc.edges (ws 3);
        push sc.edges (we 3)
    | (3 | 4) as d ->
        if d = 3 && nw <> 3 then syntax lineno "expected: pair <u> <v>";
        if nw < 2 then syntax lineno "expected: tuple <n1> ... <nk>";
        push sc.tuple_first sc.tuple_words.len;
        for i = 2 to (2 * nw) - 1 do
          push sc.tuple_words words.a.(i)
        done
    | _ -> syntax lineno ("unknown directive " ^ sub text (ws 0) (we 0))

let scan text =
  let sc =
    {
      names = table text;
      values = vec ();
      dup = None;
      labels = table text;
      edges = vec ();
      tuple_first = vec ();
      tuple_words = vec ();
    }
  in
  let len = String.length text in
  let words = vec () in
  (* [i] starts line [lineno]. *)
  let rec go i lineno =
    words.len <- 0;
    let j = ref i and content = ref true in
    while !j < len && String.unsafe_get text !j <> '\n' do
      match String.unsafe_get text !j with
      | ' ' | '\t' -> incr j
      | '#' ->
          content := false;
          incr j
      | _ when not !content -> incr j
      | _ ->
          push words !j;
          while
            !j < len
            && match String.unsafe_get text !j with
               | ' ' | '\t' | '\n' | '#' -> false
               | _ -> true
          do
            incr j
          done;
          push words !j
    done;
    line sc text lineno words;
    if !j < len then go (!j + 1) (lineno + 1)
  in
  match go 0 1 with
  | () ->
      push sc.tuple_first sc.tuple_words.len;
      Ok sc
  | exception Syntax msg -> Error msg

let build_graph text sc =
  match sc.dup with
  | Some (s, e) -> Error ("Data_graph.make: duplicate node name " ^ sub text s e)
  | None -> (
      let exception Unknown of int * int in
      let resolve s e =
        let id = find sc.names s e in
        if id < 0 then raise (Unknown (s, e));
        id
      in
      let e = sc.edges.a in
      match
        List.init (sc.edges.len / 5) (fun i ->
            let k = 5 * i in
            let v = resolve e.(k + 3) e.(k + 4) in
            (resolve e.(k) e.(k + 1), e.(k + 2), v))
      with
      | exception Unknown (s, e) -> Error ("Data_graph.make: unknown node " ^ sub text s e)
      | edges -> (
          try
            Ok
              (Data_graph.of_resolved ~names:(strings sc.names)
                 ~values:(Array.init sc.values.len (fun i -> Data_value.of_int sc.values.a.(i)))
                 ~labels:(strings sc.labels) ~edges)
          with Invalid_argument msg -> Error msg))

let resolve_tuples text sc g =
  let first = sc.tuple_first.a and words = sc.tuple_words.a in
  let count = sc.tuple_first.len - 1 in
  let arity j = (first.(j + 1) - first.(j)) / 2 in
  let exception Bad of string in
  try
    let rel =
      ref (Tuple_relation.empty ~universe:(Data_graph.size g) ~arity:(if count = 0 then 2 else arity 0))
    in
    for j = 0 to count - 1 do
      if arity j <> arity 0 then raise (Bad "tuples of mixed arity");
      let tuple =
        List.init (arity j) (fun i ->
            let s = words.(first.(j) + (2 * i)) and e = words.(first.(j) + (2 * i) + 1) in
            let id = find sc.names s e in
            if id < 0 then raise (Bad ("unknown node in relation: " ^ sub text s e));
            id)
      in
      rel := Tuple_relation.add !rel tuple
    done;
    Ok !rel
  with Bad msg -> Error msg

let instance_of_string text =
  match scan text with
  | Error _ as e -> e
  | Ok sc -> (
      match build_graph text sc with
      | Error _ as e -> e
      | Ok g -> (
          match resolve_tuples text sc g with
          | Error _ as e -> e
          | Ok rel -> Ok (g, rel)))

let graph_of_string text =
  match scan text with
  | Error _ as e -> e
  | Ok sc ->
      if sc.tuple_first.len > 1 then Error "unexpected pair/tuple line in graph"
      else build_graph text sc

let to_dot ?relation g =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "digraph G {\n  rankdir=LR;\n";
  let highlighted v =
    match relation with
    | Some r when Tuple_relation.arity r = 1 -> Tuple_relation.mem r [ v ]
    | _ -> false
  in
  List.iter
    (fun v ->
      Buffer.add_string buf
        (Printf.sprintf "  %d [label=\"%s:%s\"%s];\n" v (Data_graph.name g v)
           (Data_value.to_string (Data_graph.value g v))
           (if highlighted v then ", peripheries=2" else "")))
    (Data_graph.nodes g);
  List.iter
    (fun (u, a, v) ->
      Buffer.add_string buf (Printf.sprintf "  %d -> %d [label=\"%s\"];\n" u v a))
    (Data_graph.edges g);
  (match relation with
  | Some r when Tuple_relation.arity r = 2 ->
      Tuple_relation.iter
        (function
          | [ u; v ] ->
              Buffer.add_string buf
                (Printf.sprintf
                   "  %d -> %d [style=dashed, color=red, constraint=false];\n" u v)
          | _ -> ())
        r
  | _ -> ());
  Buffer.add_string buf "}\n";
  Buffer.contents buf
