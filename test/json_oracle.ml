(* The JSON parser the service used before its fast paths (an option
   per peek, a [Buffer] per string, [float_of_string_opt] for every
   number, [List.assoc_opt] for member lookup), kept verbatim (modulo
   qualified constructors) as the reference the library's parser must
   equal: the same [Ok] value or the same [Error] string on every input.
   Nothing outside the tests parses through this. *)

open Service.Json

exception Fail of int * string

let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub text !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail ("expected " ^ word)
  in
  (* UTF-8 encode one code point (for \uXXXX escapes; surrogate pairs
     are combined by the caller). *)
  let add_utf8 b cp =
    if cp < 0x80 then Buffer.add_char b (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let s = String.sub text !pos 4 in
    pos := !pos + 4;
    match int_of_string_opt ("0x" ^ s) with
    | Some v -> v
    | None -> fail ("bad \\u escape " ^ s)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = text.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents b
      | '\\' -> (
          if !pos >= n then fail "unterminated escape";
          let e = text.[!pos] in
          advance ();
          match e with
          | '"' -> Buffer.add_char b '"'; go ()
          | '\\' -> Buffer.add_char b '\\'; go ()
          | '/' -> Buffer.add_char b '/'; go ()
          | 'b' -> Buffer.add_char b '\b'; go ()
          | 'f' -> Buffer.add_char b '\012'; go ()
          | 'n' -> Buffer.add_char b '\n'; go ()
          | 'r' -> Buffer.add_char b '\r'; go ()
          | 't' -> Buffer.add_char b '\t'; go ()
          | 'u' ->
              let cp = hex4 () in
              let cp =
                (* High surrogate: consume the paired \uXXXX low half. *)
                if cp >= 0xD800 && cp <= 0xDBFF
                   && !pos + 1 < n
                   && text.[!pos] = '\\'
                   && text.[!pos + 1] = 'u'
                then begin
                  pos := !pos + 2;
                  let lo = hex4 () in
                  if lo >= 0xDC00 && lo <= 0xDFFF then
                    0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
                  else fail "unpaired surrogate"
                end
                else cp
              in
              add_utf8 b cp;
              go ()
          | c -> fail (Printf.sprintf "bad escape \\%c" c))
      | c when Char.code c < 0x20 -> fail "raw control character in string"
      | c -> Buffer.add_char b c; go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char text.[!pos] do
      advance ()
    done;
    let s = String.sub text start (!pos - start) in
    match float_of_string_opt s with
    | Some f -> Number f
    | None -> fail ("bad number " ^ s)
  in
  (* Nesting is the only unbounded recursion in this parser (strings,
     numbers and the per-element loops are all tail calls), so a depth
     cap is what turns adversarial input like 10^6 '[' bytes into a
     typed error instead of a stack overflow.  512 is two orders of
     magnitude beyond any protocol document. *)
  let rec parse_value depth =
    if depth > 512 then fail "nesting too deep (max 512)";
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin advance (); Obj [] end
        else
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); fields ((k, v) :: acc)
            | Some '}' -> advance (); Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          fields []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin advance (); List [] end
        else
          let rec elems acc =
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); elems (v :: acc)
            | Some ']' -> advance (); List (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elems []
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage after document";
    v
  with
  | v -> Ok v
  | exception Fail (at, msg) ->
      Error (Printf.sprintf "json: at byte %d: %s" at msg)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None
