(* The Format-based printers the library used before it rendered into
   one Buffer, kept verbatim (modulo qualified constructors) as the
   reference the Buffer printers must equal byte for byte.  Nothing
   outside the tests prints through these. *)

module Regex = Regexp.Regex
module Rem = Rem_lang.Rem
module Condition = Rem_lang.Condition
module Basic_rem = Rem_lang.Basic_rem
module Ree = Ree_lang.Ree
module Ree_term = Ree_lang.Ree_term

let regex =
  let rec pp_prec prec ppf (e : Regex.t) =
    let paren p body =
      if prec > p then Format.fprintf ppf "(%t)" body else body ppf
    in
    match e with
    | Empty -> Format.pp_print_string ppf "empty"
    | Eps -> Format.pp_print_string ppf "eps"
    | Letter a -> Format.pp_print_string ppf a
    | Union (e1, e2) ->
        paren 0 (fun ppf ->
            Format.fprintf ppf "%a | %a" (pp_prec 1) e1 (pp_prec 0) e2)
    | Concat (e1, e2) ->
        paren 1 (fun ppf ->
            Format.fprintf ppf "%a . %a" (pp_prec 1) e1 (pp_prec 2) e2)
    | Plus e1 -> paren 2 (fun ppf -> Format.fprintf ppf "%a+" (pp_prec 3) e1)
    | Star e1 -> paren 2 (fun ppf -> Format.fprintf ppf "%a*" (pp_prec 3) e1)
  in
  fun e -> Format.asprintf "%a" (pp_prec 0) e

let condition =
  let rec pp_prec prec ppf (c : Condition.t) =
    let paren p body =
      if prec > p then Format.fprintf ppf "(%t)" body else body ppf
    in
    match c with
    | True -> Format.pp_print_string ppf "true"
    | Eq i -> Format.fprintf ppf "r%d=" (i + 1)
    | Neq i -> Format.fprintf ppf "r%d!=" (i + 1)
    | Or (c1, c2) ->
        paren 0 (fun ppf ->
            Format.fprintf ppf "%a | %a" (pp_prec 0) c1 (pp_prec 0) c2)
    | And (c1, c2) ->
        paren 1 (fun ppf ->
            Format.fprintf ppf "%a & %a" (pp_prec 1) c1 (pp_prec 1) c2)
    | Not c1 -> paren 2 (fun ppf -> Format.fprintf ppf "!%a" (pp_prec 2) c1)
  in
  fun c -> Format.asprintf "%a" (pp_prec 0) c

let rem =
  let pp_registers ppf rs =
    match rs with
    | [ r ] -> Format.fprintf ppf "@@r%d" (r + 1)
    | _ ->
        Format.fprintf ppf "@@{%s}"
          (String.concat ","
             (List.map (fun r -> Printf.sprintf "r%d" (r + 1)) rs))
  in
  let rec pp_prec prec ppf (e : Rem.t) =
    let paren p body =
      if prec > p then Format.fprintf ppf "(%t)" body else body ppf
    in
    match e with
    | Eps -> Format.pp_print_string ppf "eps"
    | Letter a -> Format.pp_print_string ppf a
    | Union (e1, e2) ->
        paren 0 (fun ppf ->
            Format.fprintf ppf "%a | %a" (pp_prec 1) e1 (pp_prec 0) e2)
    | Concat (e1, e2) ->
        paren 1 (fun ppf ->
            Format.fprintf ppf "%a %a" (pp_prec 1) e1 (pp_prec 2) e2)
    | Plus e1 -> paren 2 (fun ppf -> Format.fprintf ppf "%a+" (pp_prec 3) e1)
    | Test (e1, c) ->
        paren 2 (fun ppf ->
            Format.fprintf ppf "%a[%s]" (pp_prec 3) e1 (condition c))
    | Bind (rs, e1) ->
        paren 0 (fun ppf ->
            Format.fprintf ppf "%a %a" pp_registers rs (pp_prec 1) e1)
  in
  fun e -> Format.asprintf "%a" (pp_prec 0) e

let basic_rem =
  let pp ppf (blocks : Basic_rem.t) =
    match blocks with
    | [] -> Format.pp_print_string ppf "eps"
    | _ ->
        Format.pp_print_list
          ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
          (fun ppf (b : Basic_rem.block) ->
            (match b.bind with
            | [] -> ()
            | rs ->
                Format.fprintf ppf "@@{%s} "
                  (String.concat ","
                     (List.map (fun r -> Printf.sprintf "r%d" (r + 1)) rs)));
            if b.cond = Condition.True then Format.fprintf ppf "%s" b.label
            else Format.fprintf ppf "%s[%s]" b.label (condition b.cond))
          ppf blocks
  in
  fun b -> Format.asprintf "%a" pp b

let ree =
  let rec pp_prec prec ppf (e : Ree.t) =
    let paren p body =
      if prec > p then Format.fprintf ppf "(%t)" body else body ppf
    in
    match e with
    | Eps -> Format.pp_print_string ppf "eps"
    | Letter a -> Format.pp_print_string ppf a
    | Union (e1, e2) ->
        paren 0 (fun ppf ->
            Format.fprintf ppf "%a | %a" (pp_prec 1) e1 (pp_prec 0) e2)
    | Concat (e1, e2) ->
        paren 1 (fun ppf ->
            Format.fprintf ppf "%a %a" (pp_prec 1) e1 (pp_prec 2) e2)
    | Plus e1 -> paren 2 (fun ppf -> Format.fprintf ppf "%a+" (pp_prec 3) e1)
    | EqTest e1 -> paren 2 (fun ppf -> Format.fprintf ppf "%a=" (pp_prec 3) e1)
    | NeqTest e1 ->
        paren 2 (fun ppf -> Format.fprintf ppf "%a!=" (pp_prec 3) e1)
  in
  fun e -> Format.asprintf "%a" (pp_prec 0) e

let ree_term =
  let rec pp_prec prec ppf (t : Ree_term.t) =
    let paren p body =
      if prec > p then Format.fprintf ppf "(%t)" body else body ppf
    in
    match t with
    | Eps -> Format.pp_print_string ppf "eps"
    | Letter a -> Format.pp_print_string ppf a
    | Concat (t1, t2) ->
        paren 1 (fun ppf ->
            Format.fprintf ppf "%a %a" (pp_prec 1) t1 (pp_prec 2) t2)
    | EqTest t1 -> paren 2 (fun ppf -> Format.fprintf ppf "%a=" (pp_prec 3) t1)
    | NeqTest t1 ->
        paren 2 (fun ppf -> Format.fprintf ppf "%a!=" (pp_prec 3) t1)
  in
  fun t -> Format.asprintf "%a" (pp_prec 0) t
