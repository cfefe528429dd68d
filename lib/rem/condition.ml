module Data_value = Datagraph.Data_value

type t =
  | True
  | Eq of int
  | Neq of int
  | And of t * t
  | Or of t * t
  | Not of t

let ff = Not True

let conj = function
  | [] -> True
  | c :: rest -> List.fold_left (fun acc x -> And (acc, x)) c rest

let disj = function
  | [] -> ff
  | c :: rest -> List.fold_left (fun acc x -> Or (acc, x)) c rest

let rec max_register = function
  | True -> -1
  | Eq i | Neq i -> i
  | And (c1, c2) | Or (c1, c2) -> max (max_register c1) (max_register c2)
  | Not c -> max_register c

let rec sat c ~d ~assignment =
  match c with
  | True -> true
  | Eq i -> (
      match assignment.(i) with
      | Some e -> Data_value.equal e d
      | None -> false)
  | Neq i -> (
      match assignment.(i) with
      | Some e -> not (Data_value.equal e d)
      | None -> true)
  | And (c1, c2) -> sat c1 ~d ~assignment && sat c2 ~d ~assignment
  | Or (c1, c2) -> sat c1 ~d ~assignment || sat c2 ~d ~assignment
  | Not c -> not (sat c ~d ~assignment)

let rec eval_type c ty =
  match c with
  | True -> true
  | Eq i -> ty.(i)
  | Neq i -> not ty.(i)
  | And (c1, c2) -> eval_type c1 ty && eval_type c2 ty
  | Or (c1, c2) -> eval_type c1 ty || eval_type c2 ty
  | Not c -> not (eval_type c ty)

let complete_types ~k c =
  let rec enum i ty acc =
    if i >= k then if eval_type c ty then Array.copy ty :: acc else acc
    else begin
      ty.(i) <- false;
      let acc = enum (i + 1) ty acc in
      ty.(i) <- true;
      let acc = enum (i + 1) ty acc in
      ty.(i) <- false;
      acc
    end
  in
  List.rev (enum 0 (Array.make k false) [])

let of_complete_type ty =
  conj
    (List.init (Array.length ty) (fun i -> if ty.(i) then Eq i else Neq i))

let equal = ( = )

(* [r<i+1>], digit by digit: [string_of_int] goes through the C
   formatter, which costs more than the rest of a short certificate. *)
let add_register b i =
  let rec digits n =
    if n >= 10 then digits (n / 10);
    Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))
  in
  Buffer.add_char b 'r';
  digits (i + 1)

let rec add_prec b prec c =
  let paren open_ body =
    if open_ then begin
      Buffer.add_char b '(';
      body ();
      Buffer.add_char b ')'
    end
    else body ()
  in
  match c with
  | True -> Buffer.add_string b "true"
  | Eq i ->
      add_register b i;
      Buffer.add_char b '='
  | Neq i ->
      add_register b i;
      Buffer.add_string b "!="
  | Or (c1, c2) ->
      paren (prec > 0) (fun () ->
          add_prec b 0 c1;
          Buffer.add_string b " | ";
          add_prec b 0 c2)
  | And (c1, c2) ->
      paren (prec > 1) (fun () ->
          add_prec b 1 c1;
          Buffer.add_string b " & ";
          add_prec b 1 c2)
  | Not c1 ->
      paren (prec > 2) (fun () ->
          Buffer.add_char b '!';
          add_prec b 2 c1)

let add_to_buffer b c = add_prec b 0 c

let to_string c =
  let b = Buffer.create 32 in
  add_to_buffer b c;
  Buffer.contents b

let pp ppf c = Format.pp_print_string ppf (to_string c)

type token = Treg of int * bool | Ttrue | Tand | Tor | Tnot | Tlparen | Trparen

let tokenize s =
  let n = String.length s in
  let rec go i acc =
    if i >= n then Ok (List.rev acc)
    else
      match s.[i] with
      | ' ' | '\t' | '\n' -> go (i + 1) acc
      | '&' -> go (i + 1) (Tand :: acc)
      | '|' -> go (i + 1) (Tor :: acc)
      | '!' -> go (i + 1) (Tnot :: acc)
      | '(' -> go (i + 1) (Tlparen :: acc)
      | ')' -> go (i + 1) (Trparen :: acc)
      | 'r' when i + 1 < n && s.[i + 1] >= '0' && s.[i + 1] <= '9' ->
          let j = ref (i + 1) in
          while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do
            incr j
          done;
          let idx = int_of_string (String.sub s (i + 1) (!j - i - 1)) in
          if idx < 1 then Error "register indices start at r1"
          else if !j < n && s.[!j] = '=' then
            go (!j + 1) (Treg (idx - 1, true) :: acc)
          else if !j + 1 < n && s.[!j] = '!' && s.[!j + 1] = '=' then
            go (!j + 2) (Treg (idx - 1, false) :: acc)
          else Error (Printf.sprintf "expected = or != after r%d" idx)
      | 't' when i + 3 < n && String.sub s i 4 = "true" -> go (i + 4) (Ttrue :: acc)
      | c -> Error (Printf.sprintf "unexpected character %C in condition" c)
  in
  go 0 []

(* or ::= and ('|' and)* ; and ::= not ('&' not)* ; not ::= '!' not | atom *)
let parse s =
  match tokenize s with
  | Error _ as e -> e
  | Ok tokens -> (
      let toks = ref tokens in
      let peek () = match !toks with [] -> None | t :: _ -> Some t in
      let advance () = match !toks with [] -> () | _ :: r -> toks := r in
      let exception Fail of string in
      let rec level_or () =
        let c = level_and () in
        match peek () with
        | Some Tor ->
            advance ();
            Or (c, level_or ())
        | _ -> c
      and level_and () =
        let c = level_not () in
        match peek () with
        | Some Tand ->
            advance ();
            And (c, level_and ())
        | _ -> c
      and level_not () =
        match peek () with
        | Some Tnot ->
            advance ();
            Not (level_not ())
        | _ -> atom ()
      and atom () =
        match peek () with
        | Some Ttrue ->
            advance ();
            True
        | Some (Treg (i, eq)) ->
            advance ();
            if eq then Eq i else Neq i
        | Some Tlparen -> (
            advance ();
            let c = level_or () in
            match peek () with
            | Some Trparen ->
                advance ();
                c
            | _ -> raise (Fail "expected )"))
        | _ -> raise (Fail "expected condition atom")
      in
      try
        let c = level_or () in
        match !toks with
        | [] -> Ok c
        | _ -> Error "trailing tokens after condition"
      with Fail msg -> Error msg)
