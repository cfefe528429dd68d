module Data_path = Datagraph.Data_path
module Data_value = Datagraph.Data_value

type t =
  | Eps
  | Letter of string
  | Union of t * t
  | Concat of t * t
  | Plus of t
  | EqTest of t
  | NeqTest of t

let rec size = function
  | Eps | Letter _ -> 1
  | Union (e1, e2) | Concat (e1, e2) -> 1 + size e1 + size e2
  | Plus e | EqTest e | NeqTest e -> 1 + size e

let rec alphabet_acc acc = function
  | Eps -> acc
  | Letter a -> a :: acc
  | Union (e1, e2) | Concat (e1, e2) -> alphabet_acc (alphabet_acc acc e1) e2
  | Plus e | EqTest e | NeqTest e -> alphabet_acc acc e

let alphabet e = List.sort_uniq compare (alphabet_acc [] e)
let equal = ( = )

let rec of_regex = function
  | Regexp.Regex.Empty ->
      (* No ∅ in the REE grammar: ε= ∩ ε≠ is empty, and so is (ε≠)
         alone on single-value paths... in fact L(ε≠) = ∅ already since a
         single value equals itself. *)
      NeqTest Eps
  | Regexp.Regex.Eps -> Eps
  | Regexp.Regex.Letter a -> Letter a
  | Regexp.Regex.Union (e1, e2) -> Union (of_regex e1, of_regex e2)
  | Regexp.Regex.Concat (e1, e2) -> Concat (of_regex e1, of_regex e2)
  | Regexp.Regex.Plus e -> Plus (of_regex e)
  | Regexp.Regex.Star e -> Union (Eps, Plus (of_regex e))

(* Membership by memoized recursion over subpaths [i..j].  The visiting
   set cuts cycles through zero-length Plus iterations; with no register
   state, a cyclic derivation proves nothing new, so cutting to false
   computes the least fixpoint correctly. *)
let matches e w =
  let memo = Hashtbl.create 256 in
  let visiting = Hashtbl.create 64 in
  let ids = Hashtbl.create 64 in
  let next_id = ref 0 in
  let id_of e =
    match Hashtbl.find_opt ids (Obj.repr e) with
    | Some i -> i
    | None ->
        let i = !next_id in
        incr next_id;
        Hashtbl.add ids (Obj.repr e) i;
        i
  in
  let rec mem e i j =
    let key = (id_of e, i, j) in
    match Hashtbl.find_opt memo key with
    | Some b -> b
    | None ->
        if Hashtbl.mem visiting key then false
        else begin
          Hashtbl.add visiting key ();
          let b = compute e i j in
          Hashtbl.remove visiting key;
          Hashtbl.replace memo key b;
          b
        end
  and compute e i j =
    match e with
    | Eps -> i = j
    | Letter a -> j = i + 1 && Data_path.label_at w i = a
    | Union (e1, e2) -> mem e1 i j || mem e2 i j
    | Concat (e1, e2) ->
        let rec split l = l <= j && ((mem e1 i l && mem e2 l j) || split (l + 1)) in
        split i
    | Plus e1 ->
        mem e1 i j
        ||
        let rec split l =
          l <= j && ((mem e1 i l && mem e l j) || split (l + 1))
        in
        split i
    | EqTest e1 ->
        mem e1 i j
        && Data_value.equal (Data_path.value_at w i) (Data_path.value_at w j)
    | NeqTest e1 ->
        mem e1 i j
        && not
             (Data_value.equal (Data_path.value_at w i) (Data_path.value_at w j))
  in
  mem e 0 (Data_path.length w)

(* Embedding into REM: a dedicated register per restriction node, bound at
   the node's first value and tested at its last. *)
let to_rem e =
  let next = ref 0 in
  let fresh () =
    let r = !next in
    incr next;
    r
  in
  let rec go = function
    | Eps -> Rem_lang.Rem.Eps
    | Letter a -> Rem_lang.Rem.Letter a
    | Union (e1, e2) -> Rem_lang.Rem.Union (go e1, go e2)
    | Concat (e1, e2) -> Rem_lang.Rem.Concat (go e1, go e2)
    | Plus e1 -> Rem_lang.Rem.Plus (go e1)
    | EqTest e1 ->
        let r = fresh () in
        Rem_lang.Rem.Bind
          ([ r ], Rem_lang.Rem.Test (go e1, Rem_lang.Condition.Eq r))
    | NeqTest e1 ->
        let r = fresh () in
        Rem_lang.Rem.Bind
          ([ r ], Rem_lang.Rem.Test (go e1, Rem_lang.Condition.Neq r))
  in
  go e

(* Precedence: union 0, concat 1, postfix 2, atom 3. *)
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
  | EqTest e1 ->
      paren (prec > 2) (fun () ->
          add_prec b 3 e1;
          Buffer.add_char b '=')
  | NeqTest e1 ->
      paren (prec > 2) (fun () ->
          add_prec b 3 e1;
          Buffer.add_string b "!=")

let to_string e =
  let b = Buffer.create 64 in
  add_prec b 0 e;
  Buffer.contents b

let pp ppf e = Format.pp_print_string ppf (to_string e)

type token =
  | Tid of string
  | Tlparen
  | Trparen
  | Tbar
  | Tplus
  | Tstar
  | Tdot
  | Teq
  | Tneq

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\'' || c = '$'

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
      | '=' -> go (i + 1) (Teq :: acc)
      | '!' when i + 1 < n && s.[i + 1] = '=' -> go (i + 2) (Tneq :: acc)
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
        let e = iter () in
        let rec more acc =
          match peek () with
          | Some Tdot ->
              advance ();
              more (Concat (acc, iter ()))
          | Some (Tid _ | Tlparen) -> more (Concat (acc, iter ()))
          | _ -> acc
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
              post (Union (Eps, Plus acc))
          | Some Teq ->
              advance ();
              post (EqTest acc)
          | Some Tneq ->
              advance ();
              post (NeqTest acc)
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
  | [] -> NeqTest Eps (* the empty language *)
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
  | EqTest e1 -> (
      match simplify e1 with
      | Eps -> Eps (* a single value equals itself *)
      | EqTest e -> EqTest e
      | e -> EqTest e)
  | NeqTest e1 -> (
      match simplify e1 with NeqTest e -> NeqTest e | e -> NeqTest e)
