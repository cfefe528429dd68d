type t =
  | Empty
  | Eps
  | Letter of string
  | Union of t * t
  | Concat of t * t
  | Plus of t
  | Star of t

let equal = ( = )

(* Precedence for printing: union 0, concat 1, iteration 2, atom 3.
   The printer writes into one [Buffer], not through [Format]: a
   certificate is rendered on every cache hit. *)
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
  | Empty -> Buffer.add_string b "empty"
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
          Buffer.add_string b " . ";
          add_prec b 2 e2)
  | Plus e1 ->
      paren (prec > 2) (fun () ->
          add_prec b 3 e1;
          Buffer.add_char b '+')
  | Star e1 ->
      paren (prec > 2) (fun () ->
          add_prec b 3 e1;
          Buffer.add_char b '*')

let to_string e =
  let b = Buffer.create 64 in
  add_prec b 0 e;
  Buffer.contents b

let pp ppf e = Format.pp_print_string ppf (to_string e)

let union_of = function
  | [] -> Empty
  | e :: rest -> List.fold_left (fun acc x -> Union (acc, x)) e rest

let concat_of = function
  | [] -> Eps
  | e :: rest -> List.fold_left (fun acc x -> Concat (acc, x)) e rest

let of_word w = concat_of (List.map (fun a -> Letter a) w)

let rec size = function
  | Empty | Eps | Letter _ -> 1
  | Union (e1, e2) | Concat (e1, e2) -> 1 + size e1 + size e2
  | Plus e | Star e -> 1 + size e

let rec alphabet_acc acc = function
  | Empty | Eps -> acc
  | Letter a -> a :: acc
  | Union (e1, e2) | Concat (e1, e2) -> alphabet_acc (alphabet_acc acc e1) e2
  | Plus e | Star e -> alphabet_acc acc e

let alphabet e = List.sort_uniq compare (alphabet_acc [] e)

(* ------------------------------------------------------------------ *)
(* Parser: tokenize, then recursive descent.                          *)

type token = Tid of string | Tlparen | Trparen | Tbar | Tplus | Tstar | Tdot

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
      | c when is_ident_char c ->
          let j = ref i in
          while !j < n && is_ident_char s.[!j] do
            incr j
          done;
          go !j (Tid (String.sub s i (!j - i)) :: acc)
      | c -> Error (Printf.sprintf "unexpected character %C at offset %d" c i)
  in
  go 0 []

(* Grammar:
     union   ::= concat ('|' concat)*
     concat  ::= iter (('.')? iter)*
     iter    ::= atom ('+' | '*')*
     atom    ::= ident | '(' union ')'                                  *)
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
              post (Star acc)
          | _ -> acc
        in
        post e
      and atom () =
        match peek () with
        | Some (Tid "eps") ->
            advance ();
            Eps
        | Some (Tid "empty") ->
            advance ();
            Empty
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
        | _ -> raise (Fail "expected letter or (")
      in
      try
        let e = union () in
        match !toks with
        | [] -> Ok e
        | _ -> Error "trailing tokens after expression"
      with Fail msg -> Error msg)

(* Membership by expression-directed matching with memoization would be
   overkill here; a simple derivative-free recursion over splits suffices
   for the small words in tests.  [Nfa] provides the efficient path. *)
let rec nullable = function
  | Empty | Letter _ -> false
  | Eps | Star _ -> true
  | Union (e1, e2) -> nullable e1 || nullable e2
  | Concat (e1, e2) -> nullable e1 && nullable e2
  | Plus e -> nullable e

(* Brzozowski derivative with respect to one letter. *)
let rec deriv a = function
  | Empty | Eps -> Empty
  | Letter b -> if a = b then Eps else Empty
  | Union (e1, e2) -> Union (deriv a e1, deriv a e2)
  | Concat (e1, e2) ->
      let d = Concat (deriv a e1, e2) in
      if nullable e1 then Union (d, deriv a e2) else d
  | Plus e -> Concat (deriv a e, Star e)
  | Star e -> Concat (deriv a e, Star e)

let matches e word =
  nullable (List.fold_left (fun e a -> deriv a e) e word)

(* Flatten a union into its branches. *)
let rec union_branches acc = function
  | Union (e1, e2) -> union_branches (union_branches acc e1) e2
  | e -> e :: acc

let rec simplify e =
  match e with
  | Empty | Eps | Letter _ -> e
  | Union _ ->
      let branches =
        union_branches [] e |> List.map simplify
        |> List.filter (fun b -> b <> Empty)
        |> List.sort_uniq compare
      in
      union_of (List.rev branches)
  | Concat (e1, e2) -> (
      match (simplify e1, simplify e2) with
      | Empty, _ | _, Empty -> Empty
      | Eps, e | e, Eps -> e
      | e1, e2 -> Concat (e1, e2))
  | Plus e1 -> (
      match simplify e1 with
      | Empty -> Empty
      | Eps -> Eps
      | Plus e -> Plus e
      | Star e -> Star e
      | e -> Plus e)
  | Star e1 -> (
      match simplify e1 with
      | Empty | Eps -> Eps
      | (Plus e | Star e) -> Star e
      | e -> Star e)
