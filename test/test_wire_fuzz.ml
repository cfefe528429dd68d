(* Fuzzing the protocol edge: whatever bytes arrive on a socket —
   hostile nesting, oversized tokens, truncated or bit-flipped lines —
   the parsing layer must return [Error]/[`Unsealed], never raise and
   never overflow the stack.  This is the property the chaos proxy
   leans on: a corrupted line becomes a typed error, not a crash. *)

module Json = Service.Json
module Wire = Service.Wire

let no_raise name f =
  QCheck.Test.make ~count:500 ~name (QCheck.string_of_size (QCheck.Gen.int_bound 2048))
    (fun s ->
      (match Json.parse s with Ok _ | Error _ -> ());
      (match Wire.request_of_string s with Ok _ | Error _ -> ());
      (match Wire.crc_status s with `Sealed_ok | `Sealed_bad | `Unsealed -> ());
      ignore (f s);
      true)

(* ---------- deep nesting ---------- *)

let nested open_c close_c n =
  String.make n open_c ^ String.make n close_c

let test_deep_nesting () =
  List.iter
    (fun n ->
      (* Arrays and objects, at and far beyond the 512 cap: a typed
         error, not a stack overflow. *)
      (match Json.parse (nested '[' ']' n) with
      | Ok _ -> Alcotest.(check bool) "under cap parses" true (n <= 513)
      | Error _ -> Alcotest.(check bool) "over cap rejected" true (n > 513));
      let braces =
        String.concat "" (List.init n (fun _ -> "{\"k\":"))
        ^ "null" ^ String.make n '}'
      in
      match Json.parse braces with
      | Ok _ -> Alcotest.(check bool) "under cap parses" true (n <= 513)
      | Error _ -> Alcotest.(check bool) "over cap rejected" true (n > 513))
    [ 8; 511; 514; 4096; 100_000 ]

let test_oversized_tokens () =
  (* Megabyte-long strings and absurd numbers parse or fail cleanly. *)
  let big = String.make (1 lsl 20) 'a' in
  (match Json.parse (Printf.sprintf "{\"k\":%S}" big) with
  | Ok j -> (
      match Option.bind (Json.member "k" j) Json.to_str with
      | Some s -> Alcotest.(check int) "big string survives" (String.length big) (String.length s)
      | None -> Alcotest.fail "big string lost")
  | Error e -> Alcotest.fail e);
  List.iter
    (fun s -> match Json.parse s with Ok _ | Error _ -> ())
    [
      "1" ^ String.make 400 '0';
      "-1e99999";
      "\"" ^ String.make 65536 '\\';
      String.make 100_000 '"';
    ]

(* ---------- truncation and corruption of real protocol lines ---------- *)

let sample_lines =
  [
    Wire.request_to_string
      (Wire.Decide
         {
           lang = "rem";
           k = Some 1;
           fuel = Some 100;
           timeout_s = None;
           instance = "graph { a -> b } relation { (a,b) }";
         });
    Wire.request_to_string Wire.Stats;
    Wire.seal [ ("op", Wire.json_string "decide"); ("status", Wire.json_string "ok") ];
    Wire.seal_line "{\"op\":\"ping\"}";
  ]

let test_truncated_lines () =
  List.iter
    (fun line ->
      for cut = 0 to String.length line - 1 do
        let s = String.sub line 0 cut in
        (match Json.parse s with Ok _ | Error _ -> ());
        (match Wire.request_of_string s with Ok _ | Error _ -> ());
        match Wire.crc_status s with
        | `Sealed_ok ->
            (* A strict prefix of a sealed line can never re-seal. *)
            Alcotest.failf "truncation sealed ok: %S" s
        | `Sealed_bad | `Unsealed -> ()
      done)
    sample_lines

(* ---------- pinned seals ---------- *)

(* A warm-hit style response and a sealed request, rendered by the
   Format printers and the bytewise CRC before the Buffer printers and
   slicing-by-4 replaced them: the bytes must not move. *)
let pinned_response =
  "{\"op\":\"decide\",\"status\":\"ok\",\"digest\":\"5e2f0c1d9a7b3e46\",\
   \"lang\":\"rem\",\"verdict\":\"definable\",\"reason\":null,\
   \"certificate\":{\"lang\":\"rem\",\"query\":\"(@r1 a[r1!=]) ((@r2 \
   a[r1=]) a[r2=])\"},\"counterexample\":null,\"crc\":\"15a31701\"}"

let pinned_request =
  "{\"op\":\"decide\",\"lang\":\"rem\",\"k\":1,\"instance\":\"node a \
   1\\nnode b 2\\nedge a x b\\ntuple a b\\n\",\"crc\":\"2d058c72\"}"

let test_pinned_seals () =
  let cert =
    match Rem_lang.Rem.parse "(@r1 a[r1!=]) ((@r2 a[r1=]) a[r2=])" with
    | Ok e -> e
    | Error m -> Alcotest.fail m
  in
  let o =
    Engine.Outcome.make ~steps:0 ~elapsed_s:0.
      (Engine.Outcome.Definable (Engine.Outcome.Rem cert))
  in
  Alcotest.(check string) "sealed response" pinned_response
    (Wire.seal
       (("op", Wire.json_string "decide")
       :: ("status", Wire.json_string "ok")
       :: ("digest", Wire.json_string "5e2f0c1d9a7b3e46")
       :: Wire.verdict_fields (Datagraph.Graph_gen.fig1 ()) ~lang:"rem" o));
  Alcotest.(check string) "sealed request" pinned_request
    (Wire.seal_line
       (Wire.request_to_string
          (Wire.Decide
             {
               lang = "rem";
               k = Some 1;
               fuel = None;
               timeout_s = None;
               instance = "node a 1\nnode b 2\nedge a x b\ntuple a b\n";
             })))

(* Flip every byte of a sealed line through a few masks: the seal must
   never verify on damaged bytes.  A flip in the payload or the hex
   digits reads [`Sealed_bad]; one in the trailer's fixed bytes
   ([,"crc":"] and the closing ["}]) unmakes the seal and reads
   [`Unsealed], which a router refuses as well. *)
let test_corrupted_seal_never_ok () =
  List.iter
    (fun line ->
      Alcotest.(check bool) "pristine line seals ok" true
        (Wire.crc_status line = `Sealed_ok);
      let n = String.length line in
      String.iteri
        (fun i c ->
          List.iter
            (fun mask ->
              let b = Bytes.of_string line in
              Bytes.set b i (Char.chr (Char.code c lxor mask));
              let trailer = i >= n - 18 && (i < n - 10 || i >= n - 2) in
              match (Wire.crc_status (Bytes.to_string b), trailer) with
              | `Sealed_bad, false | `Unsealed, true -> ()
              | _ -> Alcotest.failf "flip %#x at %d of %S" mask i line)
            [ 0x01; 0x20; 0x80; 0xff ])
        line)
    [
      Wire.seal_line "{\"op\":\"decide\",\"lang\":\"rem\",\"k\":1}";
      pinned_response;
      pinned_request;
    ]

(* ---------- QCheck: arbitrary bytes ---------- *)

(* The per-byte escaper [Json.escape_into] replaced with a run-copying
   one; every string must escape to the same bytes. *)
let escape_reference s =
  let b = Buffer.create 16 in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~count:500 ~name:"escaping = per-byte reference"
        QCheck.(
          string_gen_of_size (Gen.int_bound 64)
            (Gen.oneof
               [ Gen.char; Gen.oneofl [ '"'; '\\'; '\n'; '\001'; 'a' ] ]))
        (fun s -> Wire.json_string s = escape_reference s);
      no_raise "arbitrary bytes never raise" (fun _ -> ());
      QCheck.Test.make ~count:200 ~name:"mutated request lines never raise"
        QCheck.(pair (int_bound (List.length sample_lines - 1)) (pair small_nat char))
        (fun (which, (pos, c)) ->
          let line = List.nth sample_lines which in
          let b = Bytes.of_string line in
          let pos = pos mod String.length line in
          Bytes.set b pos c;
          let s = Bytes.to_string b in
          (match Json.parse s with Ok _ | Error _ -> ());
          (match Wire.request_of_string s with Ok _ | Error _ -> ());
          (match Wire.crc_status s with
          | `Sealed_ok | `Sealed_bad | `Unsealed -> ());
          true);
      QCheck.Test.make ~count:200 ~name:"seal/crc_status inverse"
        QCheck.(
          small_list
            (pair
               (string_of_size (Gen.int_bound 12))
               (string_of_size (Gen.int_bound 24))))
        (fun pairs ->
          QCheck.assume (pairs <> []);
          let fields =
            List.map (fun (k, v) -> (k, Wire.json_string v)) pairs
          in
          Wire.crc_status (Wire.seal fields) = `Sealed_ok
          && Wire.crc_status (Wire.seal_line (Wire.json_obj fields))
             = `Sealed_ok);
    ]

(* ---------- reference agreement ---------- *)

(* Values compared structurally, except that a number must also keep
   its sign bit: [-0] and [0] are [=] but print differently. *)
let rec same_json (a : Json.t) (b : Json.t) =
  match (a, b) with
  | Number x, Number y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | List xs, List ys -> List.length xs = List.length ys && List.for_all2 same_json xs ys
  | Obj xs, Obj ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (k, x) (l, y) -> String.equal k l && same_json x y) xs ys
  | _ -> a = b

let same_result a b =
  match (a, b) with
  | Ok x, Ok y -> same_json x y
  | Error e, Error f -> String.equal e f
  | Ok _, Error _ | Error _, Ok _ -> false

let gen_number =
  QCheck.Gen.(
    oneof
      [
        map float_of_int (int_range (-1000) 1_000_000);
        map float_of_int (int_range 0 max_int);
        oneofl [ 0.; -0.; 1e15; 999999999999999.; 1e16; 0.5; -2.5e-7; 1e300 ];
        float;
      ])

(* Strings that exercise every escape: quotes, backslashes, control
   bytes, high bytes and multi-byte UTF-8. *)
let gen_text =
  QCheck.Gen.(
    string_size ~gen:
      (oneof
         [
           printable;
           char;
           oneofl [ '"'; '\\'; '\n'; '\t'; '\001'; '\x7f'; '\xc3'; '\xa9'; '\xf0' ];
         ])
      (int_bound 12))

let gen_doc =
  QCheck.Gen.(
    sized_size (int_bound 3) @@ fix (fun self depth ->
        let leaf =
          oneof
            [
              return Json.Null;
              map (fun b -> Json.Bool b) bool;
              map (fun f -> Json.Number f) gen_number;
              map (fun s -> Json.String s) gen_text;
            ]
        in
        if depth = 0 then leaf
        else
          frequency
            [
              (2, leaf);
              (1, map (fun xs -> Json.List xs) (list_size (int_bound 4) (self (depth - 1))));
              ( 1,
                map
                  (fun kvs -> Json.Obj kvs)
                  (list_size (int_bound 4)
                     (pair (oneof [ gen_text; oneofl [ "op"; "k"; "op" ] ]) (self (depth - 1)))) );
            ]))

(* The same document written by hand: random whitespace between tokens,
   and string bytes sometimes spelled as \u escapes — ASCII, two- and
   three-byte code points, surrogate pairs and lone or mismatched
   surrogates, whose errors must match too. *)
let spell rng doc =
  let b = Buffer.create 64 in
  let ws () =
    for _ = 1 to Random.State.int rng 3 do
      Buffer.add_char b (List.nth [ ' '; '\t'; '\n'; '\r' ] (Random.State.int rng 4))
    done
  in
  let u cp = Buffer.add_string b (Printf.sprintf "\\u%04x" cp) in
  let add_string s =
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match Random.State.int rng 8 with
        | 0 -> u (Char.code c)
        | 1 -> u (0x80 + Random.State.int rng 0xF780)
        | 2 ->
            u (0xD800 + Random.State.int rng 0x400);
            u (0xDC00 + Random.State.int rng 0x400)
        | 3 when Random.State.int rng 8 = 0 ->
            (* A lone high surrogate, or one followed by a non-low half. *)
            u (0xD800 + Random.State.int rng 0x400);
            if Random.State.bool rng then u (Random.State.int rng 0xD800)
        | _ -> Json.escape_into b (String.make 1 c))
      s;
    Buffer.add_char b '"'
  in
  let rec go (v : Json.t) =
    ws ();
    (match v with
    | String s -> add_string s
    | List xs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then (ws (); Buffer.add_char b ',');
            go x)
          xs;
        ws ();
        Buffer.add_char b ']'
    | Obj kvs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then (ws (); Buffer.add_char b ',');
            ws ();
            add_string k;
            ws ();
            Buffer.add_char b ':';
            go x)
          kvs;
        ws ();
        Buffer.add_char b '}'
    | Number f when Float.is_integer f && f >= 0. && f < 1e19 && Random.State.bool rng ->
        (* A bare digit run, past 15 digits too, with leading zeros. *)
        Buffer.add_string b (String.make (Random.State.int rng 3) '0');
        Buffer.add_string b (Printf.sprintf "%.0f" f)
    | v -> Buffer.add_string b (Json.to_string v));
    ws ()
  in
  go doc;
  Buffer.contents b

let request_lines =
  sample_lines
  @ [
      pinned_request;
      Wire.request_line
        ~envelope:{ Wire.trace_id = Some "t-1"; parent_span = None; stream = true }
        (Wire.Decide
           {
             lang = "krem";
             k = Some 2;
             fuel = Some 100000;
             timeout_s = Some 1.5;
             instance = "node v1 0\nnode v2 1\nedge v1 a v2\ntuple v1 v2\n";
           });
      Wire.request_to_string
        (Wire.Delta
           {
             lang = "rem";
             k = None;
             fuel = Some 2000;
             timeout_s = Some 0.25;
             digest = "0123456789abcdef0123456789abcdef";
             edit = Wire.Set_relation [ [ "v1"; "v2" ]; [ "v\"3"; "v\\4" ] ];
           });
    ]

(* Up to four byte flips, then maybe a cut, of a real request line. *)
let damage rng line =
  let b = Bytes.of_string line in
  for _ = 1 to Random.State.int rng 5 do
    Bytes.set b (Random.State.int rng (Bytes.length b)) (Char.chr (Random.State.int rng 256))
  done;
  let s = Bytes.to_string b in
  if Random.State.bool rng then String.sub s 0 (Random.State.int rng (String.length s + 1))
  else s

(* Number tokens alone: digit runs of every length around the integer
   fast path's 15-digit limit, signs, fractions and exponents. *)
let gen_number_token =
  QCheck.Gen.(
    map
      (fun (sign, digits, frac, exp) -> sign ^ digits ^ frac ^ exp)
      (quad
         (oneofl [ ""; ""; "-"; "+" ])
         (string_size ~gen:numeral (int_range 0 24))
         (oneofl [ ""; ""; "."; ".0"; ".5" ])
         (oneofl [ ""; ""; "e5"; "E-3"; "e" ])))

let gen_json_input =
  QCheck.Gen.(
    oneof
      [
        gen_number_token;
        map (fun t -> "[" ^ t ^ "]") gen_number_token;
        map Json.to_string gen_doc;
        map2 (fun doc seed -> spell (Random.State.make [| seed |]) doc) gen_doc int;
        map2
          (fun line seed -> damage (Random.State.make [| seed |]) line)
          (oneofl request_lines) int;
      ])

let prop_parse_reference =
  QCheck.Test.make ~count:1000 ~long_factor:50 ~name:"json parse = reference"
    (QCheck.make ~print:(Printf.sprintf "%S") gen_json_input)
    (fun s -> same_result (Json.parse s) (Json_oracle.parse s))

(* Timings as the service produces them, and every edge [fixed6] must
   hand to Printf: ties and near-ties of the sixth decimal, -0 and the
   other negatives, the non-finite values and values past 1e9. *)
let gen_seconds =
  QCheck.Gen.(
    oneof
      [
        oneofl [ 0.; -0.; nan; infinity; neg_infinity; 1e9; 1e9 -. 1e-6; 999999999.9999995; 0.0000005; 1e-300 ];
        map (fun n -> (float_of_int n +. 0.5) /. 1e6) (int_bound 1_000_000_000);
        map2
          (fun n k ->
            let tie = (float_of_int n +. 0.5) /. 1e6 in
            List.nth [ Float.pred tie; Float.succ tie; tie +. (float_of_int k *. 1e-12) ] (abs k mod 3))
          (int_bound 1_000_000_000) (int_range (-2000) 2000);
        map (fun f -> -.f) (float_bound_inclusive 1e3);
        map (fun f -> 1e9 +. f) (float_bound_inclusive 1e12);
        (* Differences of two gettimeofday readings. *)
        map2
          (fun t0 d -> (1.7e9 +. t0 +. d) -. (1.7e9 +. t0))
          (float_bound_inclusive 1e7) (float_bound_inclusive 5.);
        float_bound_inclusive 1e9;
        map (fun e -> 10. ** e) (float_range (-9.) 9.);
        (* Near-ties up to the 1e9 cut, where [x *. 1e6] is coarsest. *)
        map2
          (fun n k -> ((float_of_int n +. 0.5) /. 1e6) +. (float_of_int k *. 1e-7))
          (int_range 0 999_999_999_999_999) (int_range (-3) 3);
      ])

let prop_fixed6_reference =
  QCheck.Test.make ~count:5000 ~long_factor:50 ~name:"fixed6 = Printf %.6f"
    (QCheck.make ~print:(Printf.sprintf "%h") gen_seconds)
    (fun x -> String.equal (Wire.fixed6 x) (Printf.sprintf "%.6f" x))

let test_member_first_binding () =
  match Json.parse "{\"op\":\"decide\",\"k\":1,\"op\":\"ping\",\"k\":2}" with
  | Error e -> Alcotest.fail e
  | Ok j ->
      Alcotest.(check (option string)) "first op" (Some "decide")
        (Option.bind (Json.member "op" j) Json.to_str);
      Alcotest.(check (option int)) "first k" (Some 1)
        (Option.bind (Json.member "k" j) Json.to_int);
      Alcotest.(check bool) "reference agrees" true
        (Json.member "op" j = Json_oracle.member "op" j);
      Alcotest.(check bool) "absent key" true (Json.member "lang" j = None)

(* Digests of the Figure 1 instance text (S2), recorded before
   [text_key] stopped going through Printf. *)
let test_pinned_text_key () =
  let fig1 = Datagraph.Graph_gen.fig1 () in
  let text =
    Datagraph.Graph_io.instance_to_string fig1
      (Datagraph.Tuple_relation.of_binary (Datagraph.Graph_gen.fig1_s2 fig1))
  in
  Alcotest.(check string) "rem k=1" "e7194ec93128cc4eb14998d086ea7d68"
    (Service.Content_hash.text_key ~lang:"rem" ~k:1 text);
  Alcotest.(check string) "krem k=2" "f6c786719cb86f90a47b37b5cb79a738"
    (Service.Content_hash.text_key ~lang:"krem" ~k:2 text)

let () =
  Alcotest.run "wire_fuzz"
    [
      ( "parser",
        [
          Alcotest.test_case "deep nesting" `Quick test_deep_nesting;
          Alcotest.test_case "oversized tokens" `Quick test_oversized_tokens;
          Alcotest.test_case "truncated lines" `Quick test_truncated_lines;
          Alcotest.test_case "corrupted seal never verifies" `Quick
            test_corrupted_seal_never_ok;
        ] );
      ( "seal",
        [
          Alcotest.test_case "pinned lines" `Quick test_pinned_seals;
          Alcotest.test_case "pinned text key" `Quick test_pinned_text_key;
        ] );
      ("qcheck", qcheck_tests);
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest prop_parse_reference;
          QCheck_alcotest.to_alcotest prop_fixed6_reference;
          Alcotest.test_case "member first binding" `Quick
            test_member_first_binding;
        ] );
    ]
