type label = string

type t = { values : Data_value.t array; labels : label array }

let make ~values ~labels =
  if Array.length values <> Array.length labels + 1 then
    invalid_arg "Data_path.make: need one more value than labels";
  { values = Array.copy values; labels = Array.copy labels }

let singleton d = { values = [| d |]; labels = [||] }
let length w = Array.length w.labels
let values w = Array.copy w.values
let labels w = Array.copy w.labels
let value_at w i = w.values.(i)
let label_at w i = w.labels.(i)
let first w = w.values.(0)
let last w = w.values.(Array.length w.values - 1)

let concat_opt w1 w2 =
  if not (Data_value.equal (last w1) (first w2)) then None
  else
    let n1 = Array.length w1.values in
    let n2 = Array.length w2.values in
    let values = Array.make (n1 + n2 - 1) w1.values.(0) in
    Array.blit w1.values 0 values 0 n1;
    Array.blit w2.values 1 values n1 (n2 - 1);
    Some { values; labels = Array.append w1.labels w2.labels }

let concat w1 w2 =
  match concat_opt w1 w2 with
  | Some w -> w
  | None -> invalid_arg "Data_path.concat: endpoint data values differ"

let equal w1 w2 =
  Array.length w1.labels = Array.length w2.labels
  && w1.labels = w2.labels
  && Array.for_all2 (fun a b -> Data_value.equal a b) w1.values w2.values

let compare w1 w2 =
  let c = Stdlib.compare w1.labels w2.labels in
  if c <> 0 then c
  else
    let n1 = Array.length w1.values and n2 = Array.length w2.values in
    let c = Stdlib.compare n1 n2 in
    if c <> 0 then c
    else
      let rec go i =
        if i >= n1 then 0
        else
          let c = Data_value.compare w1.values.(i) w2.values.(i) in
          if c <> 0 then c else go (i + 1)
      in
      go 0

let hash w = Hashtbl.hash (w.labels, Array.map Data_value.to_int w.values)

let pp ppf w =
  Data_value.pp ppf w.values.(0);
  Array.iteri
    (fun i a -> Format.fprintf ppf " %s %a" a Data_value.pp w.values.(i + 1))
    w.labels

let to_string w = Format.asprintf "%a" pp w
let map_values f w = { values = Array.map f w.values; labels = w.labels }

let profile w =
  let n = Array.length w.values in
  let prof = Array.make n 0 in
  for i = 0 to n - 1 do
    let rec first_occ j =
      if j >= i then i
      else if Data_value.equal w.values.(j) w.values.(i) then j
      else first_occ (j + 1)
    in
    prof.(i) <- first_occ 0
  done;
  prof

let automorphic w1 w2 = w1.labels = w2.labels && profile w1 = profile w2
