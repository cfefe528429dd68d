type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing.  Same escaping as the CLI's verdict emitter, so verdict
   blocks embedded in service responses stay byte-identical to what the
   CLI prints for the same outcome. *)

(* Runs of bytes that need no escape are copied in one blit each: most
   strings (certificates, digests, keys) are a single run. *)
let escape_into b s =
  let n = String.length s in
  let run = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      Buffer.add_substring b s !run (i - !run);
      run := i + 1;
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
    end
  done;
  Buffer.add_substring b s !run (n - !run)

let number_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    (* 12 prints as 12, not 12. — the protocol's counts and exit codes
       must parse back as integers. *)
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let to_string v =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Number f -> Buffer.add_string b (number_to_string f)
    | String s ->
        Buffer.add_char b '"';
        escape_into b s;
        Buffer.add_char b '"'
    | List xs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            go x)
          xs;
        Buffer.add_char b ']'
    | Obj fields ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_char b '"';
            escape_into b k;
            Buffer.add_string b "\":";
            go x)
          fields;
        Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing: recursive descent over the string with one mutable cursor.
   Every request crosses this parser on both hops, so the common cases
   take no detour: the current byte is read in place (no option per
   peek), a string without escapes is one [String.sub] and an escaped
   one is copied in runs, and a plain digit run is an integer.  Error
   strings and byte offsets are part of the protocol (clients see them
   in [error] responses), so every failure reports the offset the
   reference parser in the test tree reports. *)

exception Fail of int * string

(* A number made only of digits and short enough to be exact in a
   double's 53-bit mantissa is read with integer arithmetic; anything
   else (a sign, a fraction, an exponent, a longer run) goes through
   [float_of_string_opt], which also keeps [-0] negative. *)
let max_int_digits = 15

let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  let skip_ws () =
    while
      !pos < n
      && match String.unsafe_get text !pos with
         | ' ' | '\t' | '\n' | '\r' -> true
         | _ -> false
    do
      incr pos
    done
  in
  (* The cursor is at [c]: step over it. *)
  let at c = !pos < n && String.unsafe_get text !pos = c in
  let expect c = if at c then incr pos else fail (Printf.sprintf "expected %C" c) in
  let literal word value =
    let l = String.length word in
    let rec same i =
      i = l || (String.unsafe_get text (!pos + i) = String.unsafe_get word i && same (i + 1))
    in
    if !pos + l <= n && same 0 then begin
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
  (* End of the run of bytes from [i] that a string copies verbatim. *)
  let rec plain i =
    if i >= n then i
    else
      let c = String.unsafe_get text i in
      if c = '"' || c = '\\' || Char.code c < 0x20 then i else plain (i + 1)
  in
  (* The string's remainder from the cursor, after an escape or a byte
     that ends the first run: runs are blitted, escapes decoded. *)
  let rec escaped b =
    let i = plain !pos in
    Buffer.add_substring b text !pos (i - !pos);
    pos := i;
    if i >= n then fail "unterminated string";
    let c = String.unsafe_get text i in
    incr pos;
    match c with
    | '"' -> Buffer.contents b
    | '\\' ->
        if !pos >= n then fail "unterminated escape";
        let e = String.unsafe_get text !pos in
        incr pos;
        (match e with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
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
            add_utf8 b cp
        | c -> fail (Printf.sprintf "bad escape \\%c" c));
        escaped b
    | _ -> fail "raw control character in string"
  in
  let parse_string () =
    expect '"';
    let start = !pos in
    let i = plain start in
    if i < n && String.unsafe_get text i = '"' then begin
      pos := i + 1;
      String.sub text start (i - start)
    end
    else begin
      (* Room for the rest of the input, up to 1 KB: a request's
         instance text decodes without regrowing, and a document of
         many short escaped strings does not allocate its own length
         for each. *)
      let b = Buffer.create (min (n - start) 1024) in
      Buffer.add_substring b text start (i - start);
      pos := i;
      escaped b
    end
  in
  let parse_number () =
    let start = !pos in
    let value = ref 0 and digits_only = ref true in
    while
      !pos < n
      &&
      match String.unsafe_get text !pos with
      | '0' .. '9' as c ->
          value := (!value * 10) + (Char.code c - 48);
          true
      | '-' | '+' | '.' | 'e' | 'E' ->
          digits_only := false;
          true
      | _ -> false
    do
      incr pos
    done;
    if !digits_only && !pos - start <= max_int_digits then
      Number (float_of_int !value)
    else
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
    if !pos >= n then fail "unexpected end of input";
    match String.unsafe_get text !pos with
    | '{' ->
        incr pos;
        skip_ws ();
        if at '}' then begin
          incr pos;
          Obj []
        end
        else
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            skip_ws ();
            if at ',' then begin
              incr pos;
              fields ((k, v) :: acc)
            end
            else if at '}' then begin
              incr pos;
              Obj (List.rev ((k, v) :: acc))
            end
            else fail "expected ',' or '}'"
          in
          fields []
    | '[' ->
        incr pos;
        skip_ws ();
        if at ']' then begin
          incr pos;
          List []
        end
        else
          let rec elems acc =
            let v = parse_value (depth + 1) in
            skip_ws ();
            if at ',' then begin
              incr pos;
              elems (v :: acc)
            end
            else if at ']' then begin
              incr pos;
              List (List.rev (v :: acc))
            end
            else fail "expected ',' or ']'"
          in
          elems []
    | '"' -> String (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> parse_number ()
    | c -> fail (Printf.sprintf "unexpected character %C" c)
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

(* ------------------------------------------------------------------ *)

(* [String.equal], not [List.assoc_opt]'s polymorphic compare: a
   request looks up about nine keys, on both hops. *)
let rec assoc k = function
  | [] -> None
  | (k', v) :: rest -> if String.equal k k' then Some v else assoc k rest

let member k = function Obj fields -> assoc k fields | _ -> None

let to_str = function String s -> Some s | _ -> None

let to_int = function
  | Number f when Float.is_integer f && Float.abs f <= 0x1p53 ->
      Some (int_of_float f)
  | _ -> None

let to_float = function Number f -> Some f | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List xs -> Some xs | _ -> None
