let dv = Data_value.of_int

let fig1 () =
  Data_graph.make
    ~nodes:
      [
        ("v1", dv 0);
        ("v2", dv 1);
        ("v3", dv 0);
        ("v4", dv 1);
        ("z1", dv 3);
        ("z2", dv 1);
        ("v1'", dv 2);
        ("v2'", dv 3);
        ("v3'", dv 2);
        ("v4'", dv 3);
      ]
    ~edges:
      [
        ("v1", "a", "v2");
        ("v2", "a", "v3");
        ("v3", "a", "v4");
        ("v1", "a", "z2");
        ("z1", "a", "z2");
        ("z2", "a", "v2");
        ("z2", "a", "v1'");
        ("v3", "a", "v3'");
        ("v1'", "a", "v2'");
        ("v2'", "a", "v3'");
        ("v3'", "a", "v4'");
        ("v2'", "a", "v4");
      ]

let pairs_of g names =
  Relation.of_list (Data_graph.size g)
    (List.map
       (fun (u, v) -> (Data_graph.node_of_name g u, Data_graph.node_of_name g v))
       names)

let fig1_s1 g =
  pairs_of g
    [
      ("v1", "v4");
      ("v1", "v3'");
      ("v1", "v3");
      ("v1", "v2'");
      ("v2", "v4'");
      ("z1", "v3");
      ("z1", "v2'");
      ("z2", "v4");
      ("z2", "v3'");
      ("v1'", "v4'");
    ]

let fig1_s2 g = pairs_of g [ ("v1", "v4"); ("v1'", "v4'") ]
let fig1_s3 g = pairs_of g [ ("v1", "v3") ]

let line ~values ~label =
  let values = Array.of_list values in
  let n = Array.length values in
  let edges = List.init (max 0 (n - 1)) (fun i -> (i, label, i + 1)) in
  Data_graph.build ~values ~edges

let cycle ~values ~label =
  let values = Array.of_list values in
  let n = Array.length values in
  if n = 0 then invalid_arg "Graph_gen.cycle: empty";
  let edges = List.init n (fun i -> (i, label, (i + 1) mod n)) in
  Data_graph.build ~values ~edges

let complete ~n ~labels ~value =
  let values = Array.init n value in
  let edges =
    List.concat_map
      (fun a ->
        List.concat_map
          (fun u -> List.init n (fun v -> (u, a, v)))
          (List.init n Fun.id))
      labels
  in
  Data_graph.build ~values ~edges

(* A small deterministic PRNG (xorshift-ish over a 64-bit state) so that
   generated instances are stable across OCaml versions. *)
module Prng = struct
  type t = { mutable s : int64 }

  let create seed = { s = Int64.of_int ((seed * 2654435761) lor 1) }

  let next t =
    let s = t.s in
    let s = Int64.logxor s (Int64.shift_left s 13) in
    let s = Int64.logxor s (Int64.shift_right_logical s 7) in
    let s = Int64.logxor s (Int64.shift_left s 17) in
    t.s <- s;
    Int64.to_int (Int64.logand s 0x3FFFFFFFFFFFFFL)

  let int t bound = next t mod bound
  let float t = float_of_int (next t land 0xFFFFFF) /. float_of_int 0x1000000
end

let random ?(seed = 0) ~n ~delta ~labels ~density () =
  if n < 1 then invalid_arg "Graph_gen.random: n < 1";
  if delta < 1 then invalid_arg "Graph_gen.random: delta < 1";
  if not (0. <= density && density <= 1.) then
    invalid_arg "Graph_gen.random: density out of [0,1]";
  let rng = Prng.create seed in
  let values =
    Array.init n (fun i ->
        (* Force each pool value to appear at least once when possible. *)
        if i < delta && delta <= n then dv i else dv (Prng.int rng delta))
  in
  let edges = ref [] in
  List.iter
    (fun a ->
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if Prng.float rng < density then edges := (u, a, v) :: !edges
        done
      done)
    labels;
  Data_graph.build ~values ~edges:!edges

let random_relation ?(seed = 0) g ~density =
  let rng = Prng.create (seed + 7919) in
  let n = Data_graph.size g in
  let pairs = ref [] in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if Prng.float rng < density then pairs := (u, v) :: !pairs
    done
  done;
  Relation.of_list n !pairs

let random_reachable_relation ?(seed = 0) g ~count =
  let rng = Prng.create (seed + 104729) in
  let n = Data_graph.size g in
  let reach = Array.init n (fun u -> Data_graph.reachable g u) in
  let candidates = ref [] in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if reach.(u).(v) && u <> v then candidates := (u, v) :: !candidates
    done
  done;
  let candidates = Array.of_list !candidates in
  let pairs = ref [] in
  let m = Array.length candidates in
  if m > 0 then
    for _ = 1 to count do
      pairs := candidates.(Prng.int rng m) :: !pairs
    done;
  Relation.of_list n !pairs
