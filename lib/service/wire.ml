module Data_graph = Datagraph.Data_graph
module Outcome = Engine.Outcome

(* Minimal JSON emission — the output grammar is flat enough that a
   string escaper and a few combinators beat a dependency.  (Moved from
   the CLI, which now emits through this module; the byte format is
   load-bearing, see the interface.) *)
let add_json_string b s =
  Buffer.add_char b '"';
  Json.escape_into b s;
  Buffer.add_char b '"'

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  add_json_string b s;
  Buffer.contents b

(* The rendered size of an object whose keys need no escaping, so its
   buffer is allocated once. *)
let obj_size fields =
  List.fold_left
    (fun n (k, v) -> n + String.length k + String.length v + 4)
    2 fields

(* [{] and the fields, without the closing brace: [json_obj] closes it,
   [seal] closes it after the integrity field. *)
let add_obj_open b fields =
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      add_json_string b k;
      Buffer.add_char b ':';
      Buffer.add_string b v)
    fields

let json_obj fields =
  let b = Buffer.create (obj_size fields) in
  add_obj_open b fields;
  Buffer.add_char b '}';
  Buffer.contents b

let json_list xs = "[" ^ String.concat "," xs ^ "]"

(* [Printf.sprintf "%.6f" x] for the service's timings, without Printf.
   For 0 <= x < 1e9 the product [y = x *. 1e6] is below 2^52, where
   every half-integer is a double; rounding is monotone, so [y] lies on
   the same side of each tie as the exact product, or on the tie itself.
   Rounding [y] to the nearest integer therefore gives the digits [%.6f]
   prints, except on a tie, which Printf settles on the exact binary
   value: those (within a margin of 1e-3), a negative sign (-0
   included), the non-finite values and anything larger go to Printf. *)
let fixed6 x =
  let y = x *. 1e6 in
  if Float.sign_bit x || not (x < 1e9) then Printf.sprintf "%.6f" x
  else
    let whole = Float.of_int (Float.to_int y) in
    if Float.abs (y -. whole -. 0.5) < 1e-3 then Printf.sprintf "%.6f" x
    else
      (* The digits of [m], with the point six from the end. *)
      let m = Float.to_int (Float.round y) in
      let rec int_digits n = if n < 10 then 1 else 1 + int_digits (n / 10) in
      let point = int_digits (m / 1_000_000) in
      let b = Bytes.create (point + 7) in
      let rest = ref m in
      for i = point + 6 downto 0 do
        if i = point then Bytes.unsafe_set b i '.'
        else begin
          Bytes.unsafe_set b i (Char.unsafe_chr (48 + (!rest mod 10)));
          rest := !rest / 10
        end
      done;
      Bytes.unsafe_to_string b

(* Response integrity: a sealed response line ends with a ["crc"] field
   holding the CRC-32 (8 hex digits) of the object rendered without it.
   The seal rides inside the JSON object, so a router can relay a shard
   line verbatim and the seal stays valid end to end; a flipped byte
   anywhere in the payload fails the check at the first hop that looks.
   Progress frames are not sealed — they are advisory and discarded on
   any parse doubt. *)
let seal_key = ",\"crc\":\""
let hex_digits = "0123456789abcdef"

(* Close an open object with [,"crc":"xxxxxxxx"}]. *)
let add_seal b crc =
  Buffer.add_string b seal_key;
  for shift = 7 downto 0 do
    Buffer.add_char b hex_digits.[(crc lsr (4 * shift)) land 0xf]
  done;
  Buffer.add_string b "\"}"

let seal fields =
  if fields = [] then "{}"
  else begin
    let b = Buffer.create (obj_size fields + 17) in
    add_obj_open b fields;
    let prefix = Buffer.contents b in
    add_seal b (Store.Crc32.digest_sub_char prefix 0 (String.length prefix) '}');
    Buffer.contents b
  end

(* Seal an already-rendered object line.  The load generator seals its
   request lines with this so a byte corrupted in transit (chaos proxy)
   is detected server-side instead of executing as a subtly different
   request. *)
let seal_line line =
  let n = String.length line in
  if n < 3 || line.[0] <> '{' || line.[n - 1] <> '}' then line
  else begin
    let b = Buffer.create (n + 17) in
    Buffer.add_substring b line 0 (n - 1);
    add_seal b (Store.Crc32.digest_string line);
    Buffer.contents b
  end

(* The 18-byte trailer [,"crc":"xxxxxxxx"}], checked in place. *)
let sealed line =
  let n = String.length line in
  n >= 18
  && line.[n - 2] = '"'
  && line.[n - 1] = '}'
  &&
  let rec key i = i = 8 || (line.[n - 18 + i] = seal_key.[i] && key (i + 1)) in
  key 0

(* The trailer's 8 lowercase hex digits as an int, or -1. *)
let sealed_crc line =
  let n = String.length line in
  let rec go i acc =
    if i = n - 2 then acc
    else
      match line.[i] with
      | '0' .. '9' as c -> go (i + 1) ((acc lsl 4) lor (Char.code c - 48))
      | 'a' .. 'f' as c -> go (i + 1) ((acc lsl 4) lor (Char.code c - 87))
      | _ -> -1
  in
  go (n - 10) 0

let crc_status line =
  if not (sealed line) then `Unsealed
  else
    let crc = sealed_crc line in
    if crc >= 0
       && Store.Crc32.digest_sub_char line 0 (String.length line - 18) '}' = crc
    then `Sealed_ok
    else `Sealed_bad

let crc_ok line = crc_status line <> `Sealed_bad

(* The verdict block: everything that must be byte-identical at any
   domain-pool size and across cache hits (stats blocks may legitimately
   vary — timings, node counts under parallel cancellation).  [check
   --json], [batch] and the service [decide] op all render through this
   one function. *)
let verdict_fields g ~lang (o : Outcome.t) =
  let certificate =
    match Outcome.certificate o with
    | None -> "null"
    | Some c ->
        json_obj
          [
            ("lang", json_string (Outcome.certificate_lang c));
            ("query", json_string (Outcome.certificate_to_string c));
          ]
  in
  let name u = json_string (Data_graph.name g u) in
  let counterexample =
    match o.verdict with
    | Outcome.Not_definable (Outcome.Missing_pairs pairs) ->
        json_obj
          [
            ( "missing_pairs",
              json_list
                (List.map (fun (u, v) -> json_list [ name u; name v ]) pairs) );
          ]
    | Outcome.Not_definable (Outcome.Violating_hom { hom; tuple }) ->
        json_obj
          [
            ("hom", json_list (Array.to_list (Array.map name hom)));
            ("tuple", json_list (List.map name tuple));
          ]
    | Outcome.Definable _ | Outcome.Unknown _ -> "null"
  in
  let reason =
    match o.verdict with
    | Outcome.Unknown r -> json_string (Outcome.reason_to_string r)
    | Outcome.Definable _ | Outcome.Not_definable _ -> "null"
  in
  [
    ("lang", json_string lang);
    ("verdict", json_string (Outcome.verdict_name o.verdict));
    ("reason", reason);
    ("certificate", certificate);
    ("counterexample", counterexample);
  ]

let verdict_to_string g ~lang o = json_obj (verdict_fields g ~lang o)

(* ------------------------------------------------------------------ *)

type address = Unix_sock of string | Tcp of string * int

let address_to_string = function
  | Unix_sock path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let sockaddr_of = function
  | Unix_sock path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
      let inet =
        match Unix.inet_addr_of_string host with
        | addr -> addr
        | exception Failure _ -> (
            match Unix.gethostbyname host with
            | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
                failwith ("cannot resolve host " ^ host)
            | h -> h.Unix.h_addr_list.(0))
      in
      Unix.ADDR_INET (inet, port)

(* ------------------------------------------------------------------ *)

(* Edits name nodes the way instance files do — by node name — and are
   resolved against a concrete graph only at the point of use (the
   server resolves against the cached instance, [watch] against the
   evolving local one). *)
type edit =
  | Add_edge of string * string * string
  | Remove_edge of string * string * string
  | Add_node of string * int
  | Set_relation of string list list

let edit_to_json_fields = function
  | Add_edge (u, a, v) ->
      [
        ("edit", json_string "add_edge");
        ("u", json_string u);
        ("label", json_string a);
        ("v", json_string v);
      ]
  | Remove_edge (u, a, v) ->
      [
        ("edit", json_string "remove_edge");
        ("u", json_string u);
        ("label", json_string a);
        ("v", json_string v);
      ]
  | Add_node (name, value) ->
      [
        ("edit", json_string "add_node");
        ("name", json_string name);
        ("value", string_of_int value);
      ]
  | Set_relation tuples ->
      [
        ("edit", json_string "set_relation");
        ( "tuples",
          json_list
            (List.map (fun tup -> json_list (List.map json_string tup)) tuples)
        );
      ]

let edit_to_json_string e = json_obj (edit_to_json_fields e)

let resolve_edit g e =
  let node what s =
    match Datagraph.Data_graph.node_of_name g s with
    | v -> Ok v
    | exception Not_found -> Error (Printf.sprintf "%s: unknown node %S" what s)
  in
  match e with
  | Add_edge (u, a, v) ->
      Result.bind (node "add_edge" u) (fun u ->
          Result.map (fun v -> Engine.Delta.Add_edge (u, a, v)) (node "add_edge" v))
  | Remove_edge (u, a, v) ->
      Result.bind (node "remove_edge" u) (fun u ->
          Result.map
            (fun v -> Engine.Delta.Remove_edge (u, a, v))
            (node "remove_edge" v))
  | Add_node (name, value) ->
      Ok (Engine.Delta.Add_node (name, Datagraph.Data_value.of_int value))
  | Set_relation tuples ->
      let rec tuples_to_ids acc = function
        | [] -> Ok (List.rev acc)
        | tup :: rest -> (
            let rec tup_to_ids acc = function
              | [] -> Ok (List.rev acc)
              | s :: ss -> (
                  match node "set_relation" s with
                  | Ok v -> tup_to_ids (v :: acc) ss
                  | Error _ as e -> e)
            in
            match tup_to_ids [] tup with
            | Ok ids -> tuples_to_ids (ids :: acc) rest
            | Error _ as e -> e)
      in
      Result.map
        (fun tups -> Engine.Delta.Set_relation tups)
        (tuples_to_ids [] tuples)

type request =
  | Ping
  | Stats
  | Shutdown
  | Sleep of { ms : int }
  | Decide of {
      lang : string;
      k : int option;
      fuel : int option;
      timeout_s : float option;
      instance : string;
    }
  | Batch of {
      lang : string;
      k : int option;
      fuel : int option;
      timeout_s : float option;
      instances : string list;
    }
  | Delta of {
      lang : string;
      k : int option;
      fuel : int option;
      timeout_s : float option;
      digest : string;
      edit : edit;
    }
  | Compact
  | Export of { limit : int option }
  | Import of { entries : (string * string) list }
  | Metrics

(* The observability envelope rides on any request object, orthogonal
   to the op: [trace_id]/[parent_span] propagate a distributed-trace
   context across socket hops, [stream] asks for interim progress
   frames.  It is parsed separately from the op so the seven
   [request]-constructing call sites don't change shape — and so the
   router's verbatim byte relay forwards the context for free. *)
type envelope = {
  trace_id : string option;
  parent_span : string option;
  stream : bool;
}

let empty_envelope = { trace_id = None; parent_span = None; stream = false }

let opt f = function None -> [] | Some v -> [ f v ]

let budget_fields ~k ~fuel ~timeout_s =
  opt (fun k -> ("k", string_of_int k)) k
  @ opt (fun f -> ("fuel", string_of_int f)) fuel
  @ opt (fun s -> ("timeout_s", fixed6 s)) timeout_s

let request_fields = function
  | Ping -> [ ("op", json_string "ping") ]
  | Stats -> [ ("op", json_string "stats") ]
  | Shutdown -> [ ("op", json_string "shutdown") ]
  | Sleep { ms } -> [ ("op", json_string "sleep"); ("ms", string_of_int ms) ]
  | Decide { lang; k; fuel; timeout_s; instance } ->
      ( ("op", json_string "decide")
      :: ("lang", json_string lang)
      :: budget_fields ~k ~fuel ~timeout_s )
      @ [ ("instance", json_string instance) ]
  | Batch { lang; k; fuel; timeout_s; instances } ->
      ( ("op", json_string "batch")
      :: ("lang", json_string lang)
      :: budget_fields ~k ~fuel ~timeout_s )
      @ [ ("instances", json_list (List.map json_string instances)) ]
  | Delta { lang; k; fuel; timeout_s; digest; edit } ->
      ( ("op", json_string "delta")
      :: ("lang", json_string lang)
      :: budget_fields ~k ~fuel ~timeout_s )
      @ [ ("digest", json_string digest); ("edit", edit_to_json_string edit) ]
  | Compact -> [ ("op", json_string "compact") ]
  | Export { limit } ->
      ("op", json_string "export")
      :: opt (fun n -> ("limit", string_of_int n)) limit
  | Import { entries } ->
      [
        ("op", json_string "import");
        ( "entries",
          json_list
            (List.map
               (fun (digest, payload) ->
                 json_obj
                   [
                     ("digest", json_string digest);
                     ("payload", json_string payload);
                   ])
               entries) );
      ]
  | Metrics -> [ ("op", json_string "metrics") ]

let envelope_fields env =
  opt (fun id -> ("trace_id", json_string id)) env.trace_id
  @ opt (fun sp -> ("parent_span", json_string sp)) env.parent_span
  @ (if env.stream then [ ("stream", "true") ] else [])

let request_line ?(envelope = empty_envelope) r =
  json_obj (request_fields r @ envelope_fields envelope)

let request_to_string r = request_line r

let ( let* ) r f = Result.bind r f

let required what conv j field =
  match Option.bind (Json.member field j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or ill-typed %S (%s)" field what)

let optional what conv j field =
  match Json.member field j with
  | None | Some Json.Null -> Ok None
  | Some v -> (
      match conv v with
      | Some v -> Ok (Some v)
      | None -> Error (Printf.sprintf "ill-typed %S (%s)" field what))

let budget_of j =
  let* k = optional "integer" Json.to_int j "k" in
  let* fuel = optional "integer" Json.to_int j "fuel" in
  let* timeout_s = optional "number" Json.to_float j "timeout_s" in
  Ok (k, fuel, timeout_s)

let edit_of_json j =
  let* kind = required "string" Json.to_str j "edit" in
  match kind with
  | "add_edge" | "remove_edge" ->
      let* u = required "string" Json.to_str j "u" in
      let* a = required "string" Json.to_str j "label" in
      let* v = required "string" Json.to_str j "v" in
      Ok (if kind = "add_edge" then Add_edge (u, a, v) else Remove_edge (u, a, v))
  | "add_node" ->
      let* name = required "string" Json.to_str j "name" in
      let* value = required "integer" Json.to_int j "value" in
      Ok (Add_node (name, value))
  | "set_relation" ->
      let* items = required "array" Json.to_list j "tuples" in
      let* tuples =
        List.fold_right
          (fun item acc ->
            let* acc = acc in
            match
              Option.map (List.map Json.to_str) (Json.to_list item)
            with
            | Some names when List.for_all Option.is_some names ->
                Ok (List.map Option.get names :: acc)
            | _ -> Error "\"tuples\" must be an array of arrays of node names")
          items (Ok [])
      in
      Ok (Set_relation tuples)
  | other -> Error (Printf.sprintf "unknown edit kind %S" other)

let edit_of_string line =
  let* j = Json.parse line in
  edit_of_json j

let request_of_json j =
  let* op = required "string" Json.to_str j "op" in
  match op with
  | "ping" -> Ok Ping
  | "stats" -> Ok Stats
  | "shutdown" -> Ok Shutdown
  | "sleep" ->
      let* ms = required "integer" Json.to_int j "ms" in
      if ms < 0 then Error "\"ms\" must be non-negative"
      else Ok (Sleep { ms })
  | "decide" ->
      let* lang = required "string" Json.to_str j "lang" in
      let* k, fuel, timeout_s = budget_of j in
      let* instance = required "string" Json.to_str j "instance" in
      Ok (Decide { lang; k; fuel; timeout_s; instance })
  | "batch" ->
      let* lang = required "string" Json.to_str j "lang" in
      let* k, fuel, timeout_s = budget_of j in
      let* items = required "array" Json.to_list j "instances" in
      let* instances =
        List.fold_right
          (fun item acc ->
            let* acc = acc in
            match Json.to_str item with
            | Some s -> Ok (s :: acc)
            | None -> Error "\"instances\" must be an array of strings")
          items (Ok [])
      in
      Ok (Batch { lang; k; fuel; timeout_s; instances })
  | "delta" ->
      let* lang = required "string" Json.to_str j "lang" in
      let* k, fuel, timeout_s = budget_of j in
      let* digest = required "string" Json.to_str j "digest" in
      let* ej =
        match Json.member "edit" j with
        | Some (Json.Obj _ as ej) -> Ok ej
        | Some _ | None -> Error "missing or ill-typed \"edit\" (object)"
      in
      let* edit = edit_of_json ej in
      Ok (Delta { lang; k; fuel; timeout_s; digest; edit })
  | "compact" -> Ok Compact
  | "export" ->
      let* limit = optional "integer" Json.to_int j "limit" in
      (match limit with
      | Some n when n < 1 -> Error "\"limit\" must be positive"
      | _ -> Ok (Export { limit }))
  | "import" ->
      let* items = required "array" Json.to_list j "entries" in
      let* entries =
        List.fold_right
          (fun item acc ->
            let* acc = acc in
            let* digest = required "string" Json.to_str item "digest" in
            let* payload = required "string" Json.to_str item "payload" in
            Ok ((digest, payload) :: acc))
          items (Ok [])
      in
      Ok (Import { entries })
  | "metrics" -> Ok Metrics
  | other -> Error (Printf.sprintf "unknown op %S" other)

let request_of_string line =
  let* j = Json.parse line in
  request_of_json j

(* Envelope extraction is total: a malformed envelope field degrades to
   its absence rather than failing the request — tracing must never be
   able to break a decide. *)
let envelope_of_json j =
  let str field = Option.bind (Json.member field j) Json.to_str in
  let stream =
    match Option.bind (Json.member "stream" j) Json.to_bool with
    | Some b -> b
    | None -> false
  in
  { trace_id = str "trace_id"; parent_span = str "parent_span"; stream }
