module Data_path = Datagraph.Data_path
module Data_value = Datagraph.Data_value

type t =
  | Eps
  | Letter of string
  | Union of t * t
  | Concat of t * t
  | Plus of t
  | Test of t * Condition.t
  | Bind of int list * t

let star e = Union (Eps, Plus e)

let rec registers_max = function
  | Eps | Letter _ -> -1
  | Union (e1, e2) | Concat (e1, e2) -> max (registers_max e1) (registers_max e2)
  | Plus e -> registers_max e
  | Test (e, c) -> max (registers_max e) (Condition.max_register c)
  | Bind (rs, e) ->
      List.fold_left max (registers_max e) rs

let registers e = registers_max e + 1

let rec size = function
  | Eps | Letter _ -> 1
  | Union (e1, e2) | Concat (e1, e2) -> 1 + size e1 + size e2
  | Plus e | Test (e, _) | Bind (_, e) -> 1 + size e

let rec alphabet_acc acc = function
  | Eps -> acc
  | Letter a -> a :: acc
  | Union (e1, e2) | Concat (e1, e2) -> alphabet_acc (alphabet_acc acc e1) e2
  | Plus e | Test (e, _) | Bind (_, e) -> alphabet_acc acc e

let alphabet e = List.sort_uniq compare (alphabet_acc [] e)
let equal = ( = )

let rec of_regex = function
  | Regexp.Regex.Empty ->
      (* The REM grammar has no ∅; an unsatisfiable test is equivalent. *)
      Test (Eps, Condition.ff)
  | Regexp.Regex.Eps -> Eps
  | Regexp.Regex.Letter a -> Letter a
  | Regexp.Regex.Union (e1, e2) -> Union (of_regex e1, of_regex e2)
  | Regexp.Regex.Concat (e1, e2) -> Concat (of_regex e1, of_regex e2)
  | Regexp.Regex.Plus e -> Plus (of_regex e)
  | Regexp.Regex.Star e -> star (of_regex e)

(* ------------------------------------------------------------------ *)
(* Semantics (Definition 5), by memoized recursion over subpaths.
   [outcomes e i j sigma] is the set of σ' with (e, w[i..j], σ) ⊢ σ'.
   Recursion through Plus on a zero-length subpath can revisit a
   configuration; since binds at a fixed position only move registers
   towards the value at that position, revisits contribute nothing new
   and are cut off (least fixpoint). *)

(* Memo keys need a node identity for subexpressions.  Annotate the
   expression with explicit structural numbers in one pass: a pre-order
   id per node.  (The previous [Obj.repr]-keyed physical identity was a
   correctness hazard: value sharing — hash-consing, flambda-style
   lifting of equal subterms — would merge distinct occurrences.) *)
type ann = { id : int; desc : desc }

and desc =
  | AEps
  | ALetter of string
  | AUnion of ann * ann
  | AConcat of ann * ann
  | APlus of ann
  | ATest of ann * Condition.t
  | ABind of int list * ann

let annotate e =
  let next = ref 0 in
  let rec go e =
    let id = !next in
    incr next;
    let desc =
      match e with
      | Eps -> AEps
      | Letter a -> ALetter a
      | Union (e1, e2) ->
          let a1 = go e1 in
          AUnion (a1, go e2)
      | Concat (e1, e2) ->
          let a1 = go e1 in
          AConcat (a1, go e2)
      | Plus e1 -> APlus (go e1)
      | Test (e1, c) -> ATest (go e1, c)
      | Bind (rs, e1) -> ABind (rs, go e1)
    in
    { id; desc }
  in
  let a = go e in
  (a, !next)

module Assignments = Set.Make (struct
  type t = int option list

  let compare = Stdlib.compare
end)

let key_of_assignment sigma =
  Array.to_list (Array.map (Option.map Data_value.to_int) sigma)

let assignment_of_key key =
  Array.of_list (List.map (Option.map Data_value.of_int) key)

(* Memo-table telemetry for both evaluators below.  The lookups are on
   the hot path of REM evaluation, so the counters cost one branch when
   telemetry is off (see the [Obs] overhead policy). *)
let c_memo_hits = Obs.Counter.make "rem.memo_hits"
let c_memo_misses = Obs.Counter.make "rem.memo_misses"

let check_args ~k e sigma =
  if Array.length sigma <> k then
    invalid_arg "Rem.final_assignments: assignment length <> k";
  if registers e > k then
    invalid_arg "Rem.final_assignments: expression uses more registers than k"

(* Reference implementation: assignment-list memo keys, value sets of
   assignment lists.  Kept as the semantic baseline the packed fast path
   below is tested against, and as the fallback when packing does not
   fit in a word. *)
let final_assignments_generic ~k e w sigma =
  check_args ~k e sigma;
  let ae, _count = annotate e in
  let memo : (int * int * int * int option list, Assignments.t) Hashtbl.t =
    Hashtbl.create 256
  in
  let visiting = Hashtbl.create 64 in
  let rec outcomes ae i j sigma =
    let key = (ae.id, i, j, key_of_assignment sigma) in
    match Hashtbl.find_opt memo key with
    | Some s ->
        Obs.Counter.incr c_memo_hits;
        s
    | None ->
        Obs.Counter.incr c_memo_misses;
        if Hashtbl.mem visiting key then Assignments.empty
        else begin
          Hashtbl.add visiting key ();
          let result = compute ae i j sigma in
          Hashtbl.remove visiting key;
          Hashtbl.replace memo key result;
          result
        end
  and compute ae i j sigma =
    match ae.desc with
    | AEps ->
        if i = j then Assignments.singleton (key_of_assignment sigma)
        else Assignments.empty
    | ALetter a ->
        if j = i + 1 && Data_path.label_at w i = a then
          Assignments.singleton (key_of_assignment sigma)
        else Assignments.empty
    | AUnion (e1, e2) ->
        Assignments.union (outcomes e1 i j sigma) (outcomes e2 i j sigma)
    | AConcat (e1, e2) ->
        let acc = ref Assignments.empty in
        for l = i to j do
          Assignments.iter
            (fun s1 ->
              acc :=
                Assignments.union !acc
                  (outcomes e2 l j (assignment_of_key s1)))
            (outcomes e1 i l sigma)
        done;
        !acc
    | APlus e1 ->
        (* (e⁺,i,j,σ) ⊢ σ' iff (e,i,j,σ) ⊢ σ', or one iteration of e up to
           some split l followed by e⁺ on the rest.  Cycles through
           zero-length iterations revisit the same memo key and are cut off
           by the visiting set; they contribute no new assignments because
           binds at a fixed position only move registers towards that
           position's value. *)
        let acc = ref (outcomes e1 i j sigma) in
        for l = i to j do
          Assignments.iter
            (fun s1 ->
              acc :=
                Assignments.union !acc (outcomes ae l j (assignment_of_key s1)))
            (outcomes e1 i l sigma)
        done;
        !acc
    | ATest (e1, c) ->
        let d = Data_path.value_at w j in
        Assignments.filter
          (fun s -> Condition.sat c ~d ~assignment:(assignment_of_key s))
          (outcomes e1 i j sigma)
    | ABind (rs, e1) ->
        let d = Data_path.value_at w i in
        let sigma' = Array.copy sigma in
        List.iter (fun r -> sigma'.(r) <- Some d) rs;
        outcomes e1 i j sigma'
  in
  let result = outcomes ae 0 (Data_path.length w) sigma in
  List.map assignment_of_key (Assignments.elements result)

(* Packed fast path: the data values in play are exactly those of [w]
   and of the initial assignment, so a register holds one of at most
   [V + 1] states (⊥ or one of [V] values).  Give each value a small
   code (⊥ = 0) and pack the whole assignment into one int, [vbits]
   bits per register.  Memo keys become an int pair and outcome sets
   become sets of ints — no per-lookup list allocation, no polymorphic
   compare over options. *)

module IntSet = Set.Make (Int)

let final_assignments_packed ~k ~vals ~code_of ~vbits e w sigma =
  let m = Data_path.length w in
  let mask = (1 lsl vbits) - 1 in
  let get p r = (p lsr (r * vbits)) land mask in
  let pack sigma =
    let p = ref 0 in
    Array.iteri
      (fun r d ->
        match d with
        | None -> ()
        | Some d -> p := !p lor (code_of d lsl (r * vbits)))
      sigma;
    !p
  in
  let unpack p =
    Array.init k (fun r ->
        let c = get p r in
        if c = 0 then None else Some (Data_value.of_int vals.(c - 1)))
  in
  let rec sat_packed c dc p =
    match c with
    | Condition.True -> true
    | Condition.Eq r -> get p r = dc
    | Condition.Neq r ->
        let g = get p r in
        g = 0 || g <> dc
    | Condition.And (c1, c2) -> sat_packed c1 dc p && sat_packed c2 dc p
    | Condition.Or (c1, c2) -> sat_packed c1 dc p || sat_packed c2 dc p
    | Condition.Not c1 -> not (sat_packed c1 dc p)
  in
  let ae, _count = annotate e in
  let stride = m + 2 in
  let memo : (int * int, IntSet.t) Hashtbl.t = Hashtbl.create 256 in
  let visiting : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let rec outcomes ae i j p =
    let key = (((ae.id * stride) + i) * stride + j, p) in
    match Hashtbl.find_opt memo key with
    | Some s ->
        Obs.Counter.incr c_memo_hits;
        s
    | None ->
        Obs.Counter.incr c_memo_misses;
        if Hashtbl.mem visiting key then IntSet.empty
        else begin
          Hashtbl.add visiting key ();
          let result = compute ae i j p in
          Hashtbl.remove visiting key;
          Hashtbl.replace memo key result;
          result
        end
  and compute ae i j p =
    match ae.desc with
    | AEps -> if i = j then IntSet.singleton p else IntSet.empty
    | ALetter a ->
        if j = i + 1 && Data_path.label_at w i = a then IntSet.singleton p
        else IntSet.empty
    | AUnion (e1, e2) -> IntSet.union (outcomes e1 i j p) (outcomes e2 i j p)
    | AConcat (e1, e2) ->
        let acc = ref IntSet.empty in
        for l = i to j do
          IntSet.iter
            (fun p1 -> acc := IntSet.union !acc (outcomes e2 l j p1))
            (outcomes e1 i l p)
        done;
        !acc
    | APlus e1 ->
        (* Same least-fixpoint cutoff as the generic implementation. *)
        let acc = ref (outcomes e1 i j p) in
        for l = i to j do
          IntSet.iter
            (fun p1 -> acc := IntSet.union !acc (outcomes ae l j p1))
            (outcomes e1 i l p)
        done;
        !acc
    | ATest (e1, c) ->
        let dc = code_of (Data_path.value_at w j) in
        IntSet.filter (fun p -> sat_packed c dc p) (outcomes e1 i j p)
    | ABind (rs, e1) ->
        let dc = code_of (Data_path.value_at w i) in
        let p' =
          List.fold_left
            (fun p r ->
              (p land lnot (mask lsl (r * vbits))) lor (dc lsl (r * vbits)))
            p rs
        in
        outcomes e1 i j p'
  in
  let result = outcomes ae 0 m (pack sigma) in
  IntSet.elements result
  |> List.map unpack
  |> List.sort (fun a b ->
         Stdlib.compare (key_of_assignment a) (key_of_assignment b))

let final_assignments ~k e w sigma =
  Obs.Span.with_ "rem.eval" @@ fun () ->
  check_args ~k e sigma;
  (* Code table for the values of [w] and [sigma]; ⊥ is code 0. *)
  let codes : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let enter d =
    let v = Data_value.to_int d in
    if not (Hashtbl.mem codes v) then Hashtbl.add codes v (Hashtbl.length codes + 1)
  in
  Array.iter enter (Data_path.values w);
  Array.iter (function Some d -> enter d | None -> ()) sigma;
  let nvals = Hashtbl.length codes in
  let rec bits_for n = if n <= 1 then 1 else 1 + bits_for (n / 2) in
  let vbits = bits_for nvals in
  if k * vbits > Sys.int_size - 2 then
    (* Assignments too wide to pack into one word — delegate. *)
    final_assignments_generic ~k e w sigma
  else begin
    let vals = Array.make nvals 0 in
    Hashtbl.iter (fun v c -> vals.(c - 1) <- v) codes;
    let code_of d = Hashtbl.find codes (Data_value.to_int d) in
    final_assignments_packed ~k ~vals ~code_of ~vbits e w sigma
  end

let matches e w =
  let k = registers e in
  final_assignments ~k e w (Array.make k None) <> []

(* ------------------------------------------------------------------ *)
(* Pretty-printing.  Precedence: union 0, concat 1, postfix 2, atom 3.
   One [Buffer] per certificate: this runs on every cache hit. *)

let add_registers b rs =
  match rs with
  | [ r ] ->
      Buffer.add_char b '@';
      Condition.add_register b r
  | _ ->
      Buffer.add_string b "@{";
      List.iteri
        (fun i r ->
          if i > 0 then Buffer.add_char b ',';
          Condition.add_register b r)
        rs;
      Buffer.add_char b '}'

let rec add_prec b prec e =
  let paren open_ body =
    if open_ then begin
      Buffer.add_char b '(';
      body ();
      Buffer.add_char b ')'
    end
    else body ()
  in
  match e with
  | Eps -> Buffer.add_string b "eps"
  | Letter a -> Buffer.add_string b a
  | Union (e1, e2) ->
      paren (prec > 0) (fun () ->
          add_prec b 1 e1;
          Buffer.add_string b " | ";
          add_prec b 0 e2)
  | Concat (e1, e2) ->
      paren (prec > 1) (fun () ->
          add_prec b 1 e1;
          Buffer.add_char b ' ';
          add_prec b 2 e2)
  | Plus e1 ->
      paren (prec > 2) (fun () ->
          add_prec b 3 e1;
          Buffer.add_char b '+')
  | Test (e1, c) ->
      paren (prec > 2) (fun () ->
          add_prec b 3 e1;
          Buffer.add_char b '[';
          Condition.add_to_buffer b c;
          Buffer.add_char b ']')
  | Bind (rs, e1) ->
      (* A bind scopes over everything to its right in a concatenation, so
         it must be parenthesized whenever anything follows it. *)
      paren (prec > 0) (fun () ->
          add_registers b rs;
          Buffer.add_char b ' ';
          add_prec b 1 e1)

let to_string e =
  let b = Buffer.create 64 in
  add_prec b 0 e;
  Buffer.contents b

let pp ppf e = Format.pp_print_string ppf (to_string e)

(* ------------------------------------------------------------------ *)
(* Parser. *)

type token =
  | Tid of string
  | Tlparen
  | Trparen
  | Tbar
  | Tplus
  | Tstar
  | Tdot
  | Tbind of int list
  | Tcond of Condition.t

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\'' || c = '$'

let parse_register_list s =
  (* "r1,r2,r3" -> [0;1;2] *)
  let parts = String.split_on_char ',' s in
  let parse_one p =
    let p = String.trim p in
    if String.length p >= 2 && p.[0] = 'r' then
      match int_of_string_opt (String.sub p 1 (String.length p - 1)) with
      | Some i when i >= 1 -> Some (i - 1)
      | _ -> None
    else None
  in
  let regs = List.map parse_one parts in
  if List.exists (fun r -> r = None) regs then None
  else Some (List.map Option.get regs)

let tokenize s =
  let n = String.length s in
  let rec go i acc =
    if i >= n then Ok (List.rev acc)
    else
      match s.[i] with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1) acc
      | '(' -> go (i + 1) (Tlparen :: acc)
      | ')' -> go (i + 1) (Trparen :: acc)
      | '|' -> go (i + 1) (Tbar :: acc)
      | '+' -> go (i + 1) (Tplus :: acc)
      | '*' -> go (i + 1) (Tstar :: acc)
      | '.' -> go (i + 1) (Tdot :: acc)
      | '[' -> (
          match String.index_from_opt s i ']' with
          | None -> Error "unterminated condition ["
          | Some j -> (
              match Condition.parse (String.sub s (i + 1) (j - i - 1)) with
              | Ok c -> go (j + 1) (Tcond c :: acc)
              | Error msg -> Error ("in condition: " ^ msg)))
      | '@' ->
          if i + 1 < n && s.[i + 1] = '{' then
            match String.index_from_opt s i '}' with
            | None -> Error "unterminated register tuple @{"
            | Some j -> (
                match parse_register_list (String.sub s (i + 2) (j - i - 2)) with
                | Some rs -> go (j + 1) (Tbind rs :: acc)
                | None -> Error "bad register tuple")
          else begin
            let j = ref (i + 1) in
            while !j < n && is_ident_char s.[!j] do
              incr j
            done;
            match parse_register_list (String.sub s (i + 1) (!j - i - 1)) with
            | Some rs -> go !j (Tbind rs :: acc)
            | None -> Error "bad register after @"
          end
      | c when is_ident_char c ->
          let j = ref i in
          while !j < n && is_ident_char s.[!j] do
            incr j
          done;
          go !j (Tid (String.sub s i (!j - i)) :: acc)
      | c -> Error (Printf.sprintf "unexpected character %C at offset %d" c i)
  in
  go 0 []

let parse s =
  match tokenize s with
  | Error _ as e -> e
  | Ok tokens -> (
      let toks = ref tokens in
      let peek () = match !toks with [] -> None | t :: _ -> Some t in
      let advance () = match !toks with [] -> () | _ :: r -> toks := r in
      let exception Fail of string in
      let rec union () =
        let e = concat () in
        match peek () with
        | Some Tbar ->
            advance ();
            Union (e, union ())
        | _ -> e
      and concat () =
        match peek () with
        | Some (Tbind rs) ->
            advance ();
            Bind (rs, concat ())
        | _ ->
            let e = iter () in
            let rec more acc =
              match peek () with
              | Some Tdot ->
                  advance ();
                  continue acc
              | Some (Tid _ | Tlparen | Tbind _) -> continue acc
              | _ -> acc
            and continue acc =
              match peek () with
              | Some (Tbind rs) ->
                  advance ();
                  (* A mid-expression bind scopes over the rest of the
                     concatenation: e1 @r e2 = e1 · (↓r.e2). *)
                  Concat (acc, Bind (rs, concat ()))
              | _ -> more (Concat (acc, iter ()))
            in
            more e
      and iter () =
        let e = atom () in
        let rec post acc =
          match peek () with
          | Some Tplus ->
              advance ();
              post (Plus acc)
          | Some Tstar ->
              advance ();
              post (star acc)
          | Some (Tcond c) ->
              advance ();
              post (Test (acc, c))
          | _ -> acc
        in
        post e
      and atom () =
        match peek () with
        | Some (Tid "eps") ->
            advance ();
            Eps
        | Some (Tid a) ->
            advance ();
            Letter a
        | Some Tlparen -> (
            advance ();
            let e = union () in
            match peek () with
            | Some Trparen ->
                advance ();
                e
            | _ -> raise (Fail "expected )"))
        | _ -> raise (Fail "expected letter, eps or (")
      in
      try
        let e = union () in
        match !toks with
        | [] -> Ok e
        | _ -> Error "trailing tokens after expression"
      with Fail msg -> Error msg)

let rec union_branches acc = function
  | Union (e1, e2) -> union_branches (union_branches acc e1) e2
  | e -> e :: acc

let union_of = function
  | [] -> Test (Eps, Condition.ff) (* the empty language *)
  | e :: rest -> List.fold_left (fun acc x -> Union (acc, x)) e rest

let rec simplify e =
  match e with
  | Eps | Letter _ -> e
  | Union _ ->
      let branches =
        union_branches [] e |> List.map simplify |> List.sort_uniq compare
      in
      union_of (List.rev branches)
  | Concat (e1, e2) -> (
      match (simplify e1, simplify e2) with
      | Eps, e | e, Eps -> e
      | e1, e2 -> Concat (e1, e2))
  | Plus e1 -> (
      match simplify e1 with Plus e -> Plus e | e -> Plus e)
  | Test (e1, c) -> (
      match (simplify e1, c) with
      | e, Condition.True -> e
      | Test (e, c'), c -> Test (e, Condition.And (c', c))
      | e, c -> Test (e, c))
  | Bind (rs, e1) -> (
      match (List.sort_uniq compare rs, simplify e1) with
      | [], e -> e
      | rs, Bind (rs', e) -> Bind (List.sort_uniq compare (rs @ rs'), e)
      | rs, e -> Bind (rs, e))
