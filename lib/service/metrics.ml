(* The metrics plane's data model: a point-in-time snapshot of every
   registered Obs histogram and counter, as plain data.  Snapshots are
   what crosses the wire on a [metrics] op — the shard serializes one,
   the router merges N of them and renders the aggregate — so the codec
   and the merge live here, next to the Prometheus renderer, rather
   than in the server. *)

let version = "0.8.0"

let build_string =
  Printf.sprintf "defcheck/%s ocaml/%s" version Sys.ocaml_version

type snapshot = {
  histograms : (string * Obs.Histogram.snapshot) list;
  counters : (string * int) list;
}

let by_name (a, _) (b, _) = String.compare a b

let capture () =
  {
    histograms =
      List.map
        (fun h -> (Obs.Histogram.name h, Obs.Histogram.snapshot h))
        (Obs.Histogram.all ());
    counters = Obs.Counter.all ();
  }

let empty = { histograms = []; counters = [] }

let merge_assoc combine xs ys =
  let tbl = Hashtbl.create 32 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) xs;
  List.iter
    (fun (k, v) ->
      match Hashtbl.find_opt tbl k with
      | Some v0 -> Hashtbl.replace tbl k (combine v0 v)
      | None -> Hashtbl.add tbl k v)
    ys;
  List.sort by_name (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let merge a b =
  {
    histograms = merge_assoc Obs.Histogram.merge a.histograms b.histograms;
    counters = merge_assoc ( + ) a.counters b.counters;
  }

(* ---------------------------------------------------------------- *)
(* Wire codec.  Histogram counts travel sparse — [[index, count], …] —
   since a freshly started shard has a 241-bucket array with a handful
   of non-zero cells. *)

let to_json s =
  let hist (name, (h : Obs.Histogram.snapshot)) =
    let cells = ref [] in
    Array.iteri
      (fun i c ->
        if c <> 0 then
          cells := Wire.json_list [ string_of_int i; string_of_int c ] :: !cells)
      h.Obs.Histogram.counts;
    Wire.json_obj
      [
        ("name", Wire.json_string name);
        ("sum_ns", string_of_int h.Obs.Histogram.sum_ns);
        ("counts", Wire.json_list (List.rev !cells));
      ]
  in
  let counter (name, v) =
    Wire.json_list [ Wire.json_string name; string_of_int v ]
  in
  Wire.json_obj
    [
      ("histograms", Wire.json_list (List.map hist s.histograms));
      ("counters", Wire.json_list (List.map counter s.counters));
    ]

let ( let* ) r f = Result.bind r f

let of_json j =
  let list_field field =
    match Option.bind (Json.member field j) Json.to_list with
    | Some items -> Ok items
    | None -> Error (Printf.sprintf "metrics snapshot: missing %S" field)
  in
  let* hists = list_field "histograms" in
  let* histograms =
    List.fold_right
      (fun item acc ->
        let* acc = acc in
        let name = Option.bind (Json.member "name" item) Json.to_str in
        let sum_ns = Option.bind (Json.member "sum_ns" item) Json.to_int in
        let cells = Option.bind (Json.member "counts" item) Json.to_list in
        match (name, sum_ns, cells) with
        | Some name, Some sum_ns, Some cells ->
            let counts = Array.make Obs.Histogram.n_buckets 0 in
            let ok =
              List.for_all
                (fun cell ->
                  match Option.map (List.map Json.to_int) (Json.to_list cell) with
                  | Some [ Some i; Some c ] when i >= 0 ->
                      if i < Obs.Histogram.n_buckets then counts.(i) <- c;
                      true
                  | _ -> false)
                cells
            in
            if ok then
              Ok ((name, { Obs.Histogram.counts; sum_ns }) :: acc)
            else Error "metrics snapshot: ill-formed histogram cell"
        | _ -> Error "metrics snapshot: ill-formed histogram")
      hists (Ok [])
  in
  let* cs = list_field "counters" in
  let* counters =
    List.fold_right
      (fun item acc ->
        let* acc = acc in
        match Option.map (fun l -> l) (Json.to_list item) with
        | Some [ n; v ] -> (
            match (Json.to_str n, Json.to_int v) with
            | Some n, Some v -> Ok ((n, v) :: acc)
            | _ -> Error "metrics snapshot: ill-formed counter")
        | _ -> Error "metrics snapshot: ill-formed counter")
      cs (Ok [])
  in
  Ok { histograms; counters }

let of_string line =
  let* j = Json.parse line in
  of_json j

(* ---------------------------------------------------------------- *)
(* Prometheus text exposition (version 0.0.4).  Histogram buckets are
   cumulative; empty buckets are elided (legal — scrapers interpolate
   between the listed [le] bounds) but the mandatory [+Inf] bucket,
   [_sum] and [_count] always appear. *)

let prom_name name =
  let mapped =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
        | _ -> '_')
      name
  in
  "defcheck_" ^ mapped

let le_of_bucket i =
  if i >= Obs.Histogram.n_buckets - 1 then "+Inf"
  else Printf.sprintf "%g" (float_of_int (Obs.Histogram.bucket_upper_ns i) /. 1e9)

let render ?(gauges = []) s =
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string b l) fmt in
  List.iter
    (fun (name, (h : Obs.Histogram.snapshot)) ->
      let n = prom_name name ^ "_seconds" in
      line "# HELP %s Latency of %s operations.\n" n name;
      line "# TYPE %s histogram\n" n;
      let cum = ref 0 in
      Array.iteri
        (fun i c ->
          if c <> 0 then begin
            cum := !cum + c;
            if i < Obs.Histogram.n_buckets - 1 then
              line "%s_bucket{le=\"%s\"} %d\n" n (le_of_bucket i) !cum
          end)
        h.Obs.Histogram.counts;
      line "%s_bucket{le=\"+Inf\"} %d\n" n !cum;
      line "%s_sum %.9f\n" n (float_of_int h.Obs.Histogram.sum_ns /. 1e9);
      line "%s_count %d\n" n !cum)
    s.histograms;
  List.iter
    (fun (name, v) ->
      let n = prom_name name ^ "_total" in
      line "# TYPE %s counter\n" n;
      line "%s %d\n" n v)
    s.counters;
  List.iter
    (fun (name, v) ->
      let n = prom_name name in
      line "# TYPE %s gauge\n" n;
      (* Integral readings (byte counts, timestamps) print exactly. *)
      if Float.is_integer v then line "%s %.0f\n" n v else line "%s %g\n" n v)
    gauges;
  line "# TYPE defcheck_build_info gauge\n";
  line "defcheck_build_info{version=\"%s\",ocaml=\"%s\"} 1\n" version
    Sys.ocaml_version;
  Buffer.contents b

let percentile_us s ~histogram p =
  match List.assoc_opt histogram s.histograms with
  | None -> None
  | Some h ->
      if Obs.Histogram.total h = 0 then None
      else Some (float_of_int (Obs.Histogram.percentile_of h p) /. 1e3)
