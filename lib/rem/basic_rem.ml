module Data_path = Datagraph.Data_path
module Data_value = Datagraph.Data_value

type block = { bind : int list; label : string; cond : Condition.t }
type t = block list

let to_rem blocks =
  let rec go = function
    | [] -> Rem.Eps
    | [ b ] -> block_rem b
    | b :: rest -> Rem.Concat (block_rem b, go rest)
  and block_rem b =
    let body = Rem.Test (Rem.Letter b.label, b.cond) in
    match b.bind with [] -> body | rs -> Rem.Bind (rs, body)
  in
  go blocks

let registers blocks =
  List.fold_left
    (fun acc b ->
      let m = List.fold_left max (-1) b.bind in
      max acc (max (m + 1) (Condition.max_register b.cond + 1)))
    0 blocks

let length = List.length

let add_block b blk =
  (match blk.bind with
  | [] -> ()
  | rs ->
      Buffer.add_string b "@{";
      List.iteri
        (fun i r ->
          if i > 0 then Buffer.add_char b ',';
          Condition.add_register b r)
        rs;
      Buffer.add_string b "} ");
  Buffer.add_string b blk.label;
  if blk.cond <> Condition.True then begin
    Buffer.add_char b '[';
    Condition.add_to_buffer b blk.cond;
    Buffer.add_char b ']'
  end

let to_string blocks =
  match blocks with
  | [] -> "eps"
  | _ ->
      let b = Buffer.create 64 in
      List.iteri
        (fun i blk ->
          if i > 0 then Buffer.add_char b ' ';
          add_block b blk)
        blocks;
      Buffer.contents b

let pp ppf blocks = Format.pp_print_string ppf (to_string blocks)

let matches blocks w =
  let k = registers blocks in
  let sigma = Array.make k None in
  let m = Data_path.length w in
  let rec go blocks i =
    match blocks with
    | [] -> i = m
    | b :: rest ->
        i < m
        && Data_path.label_at w i = b.label
        && begin
             let d_before = Data_path.value_at w i in
             List.iter (fun r -> sigma.(r) <- Some d_before) b.bind;
             let d_after = Data_path.value_at w (i + 1) in
             Condition.sat b.cond ~d:d_after ~assignment:sigma
             && go rest (i + 1)
           end
  in
  go blocks 0

let of_data_path w =
  let m = Data_path.length w in
  let prof = Data_path.profile w in
  (* Register of a value class = rank of its first-occurrence position. *)
  let class_reg = Hashtbl.create 8 in
  let reg_of_first pos =
    match Hashtbl.find_opt class_reg pos with
    | Some r -> r
    | None ->
        let r = Hashtbl.length class_reg in
        Hashtbl.add class_reg pos r;
        r
  in
  let blocks = ref [] in
  (* Ensure position 0's class gets register 0 even when m = 0 is not an
     issue: with m = 0 the expression is ε and needs no registers. *)
  if m > 0 then ignore (reg_of_first 0);
  for p = 1 to m do
    let bind =
      (* Bind the value before this letter if position p-1 is a first
         occurrence of its class. *)
      if prof.(p - 1) = p - 1 then [ reg_of_first (p - 1) ] else []
    in
    let cond =
      if prof.(p) < p then
        (* Repeat: equal to the register of its class (already bound,
           since its first occurrence is at a position < p <= before this
           block's target). *)
        Condition.Eq (Hashtbl.find class_reg prof.(p))
      else
        (* Fresh: differs from every register bound so far (the paper's
           construction omits this test; see the .mli note). *)
        Condition.conj
          (Hashtbl.fold (fun _pos r acc -> Condition.Neq r :: acc) class_reg [])
    in
    blocks := { bind; label = Data_path.label_at w (p - 1); cond } :: !blocks
  done;
  List.rev !blocks
