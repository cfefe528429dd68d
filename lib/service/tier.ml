module Graph_io = Datagraph.Graph_io
module Instance = Engine.Instance
module Outcome = Engine.Outcome

type entry = {
  lang : string;
  k : int;
  inst : Instance.t;
  outcome : Outcome.t;
}

(* The marshaled shape.  The instance travels as Graph_io text: an
   [Instance.t] owns memo tables (closures, caches) that must not cross
   a Marshal boundary, and rebuilding from text re-validates it. *)
type payload = {
  p_lang : string;
  p_k : int;
  p_instance : string;
  p_outcome : Outcome.t;
}

(* Version header: bump when [payload] (or anything reachable from
   [Outcome.t]) changes shape, so stale stores from an older build are
   dropped at recovery instead of mis-decoded. *)
let magic = "defv1\n"

let encode e =
  let text =
    Graph_io.instance_to_string (Instance.graph e.inst) (Instance.relation e.inst)
  in
  magic
  ^ Marshal.to_string
      { p_lang = e.lang; p_k = e.k; p_instance = text; p_outcome = e.outcome }
      []

let has_magic raw =
  String.length raw > String.length magic
  && String.sub raw 0 (String.length magic) = magic

(* Structure only: the certificate is the cache's to check, once, on
   the entry's first hit. *)
let decode raw =
  if not (has_magic raw) then Error "tier record: bad or missing version header"
  else
    match
      (Marshal.from_string raw (String.length magic) : payload)
    with
    | exception _ -> Error "tier record: undecodable payload"
    | p -> (
        match Graph_io.instance_of_string p.p_instance with
        | Error msg -> Error ("tier record: stored instance: " ^ msg)
        | Ok (g, s) -> (
            match Instance.create g s with
            | Error msg -> Error ("tier record: stored instance: " ^ msg)
            | Ok inst ->
                Ok { lang = p.p_lang; k = p.p_k; inst; outcome = p.p_outcome }))

let to_hex s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let of_hex s =
  let n = String.length s in
  if n mod 2 <> 0 then Error "bad hex payload: odd length"
  else
    let nibble c =
      match c with
      | '0' .. '9' -> Some (Char.code c - Char.code '0')
      | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
      | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
      | _ -> None
    in
    let b = Bytes.create (n / 2) in
    let rec go i =
      if i >= n / 2 then Ok (Bytes.unsafe_to_string b)
      else
        match (nibble s.[2 * i], nibble s.[(2 * i) + 1]) with
        | Some hi, Some lo ->
            Bytes.set b i (Char.chr ((hi lsl 4) lor lo));
            go (i + 1)
        | _ -> Error "bad hex payload: non-hex digit"
    in
    go 0

type t = Store.Log.t

let open_ = Store.Log.open_

let find t key =
  match Store.Log.find t key with
  | None -> None
  | Some raw -> (
      match decode raw with
      | Ok e -> Some e
      | Error _ ->
          (* Intact bytes that do not decode: a record from an older
             build.  Drop it and recompute; if the delete record does
             not land, the next find drops it again. *)
          (try Store.Log.remove t key with Store.Log.Append_failed _ -> ());
          None)

let put t key e = Store.Log.put t key (encode e)
let remove = Store.Log.remove
let compact = Store.Log.compact
let sync = Store.Log.sync
let close = Store.Log.close
let length = Store.Log.length
let disk_bytes = Store.Log.disk_bytes
let stats = Store.Log.stats
