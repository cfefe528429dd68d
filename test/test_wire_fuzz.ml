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
        [ Alcotest.test_case "pinned lines" `Quick test_pinned_seals ] );
      ("qcheck", qcheck_tests);
    ]
