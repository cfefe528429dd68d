module Data_path = Datagraph.Data_path
module Data_value = Datagraph.Data_value
module Data_graph = Datagraph.Data_graph
module Relation = Datagraph.Relation

type op = Bind of int list | Test of Condition.t | Letter of string

type t = {
  k : int;
  nstates : int;
  start : int;
  final : int;
  edges : (op * int) list array;
}

let k a = a.k
let state_count a = a.nstates
let edge_count a = Array.fold_left (fun n l -> n + List.length l) 0 a.edges

let of_rem ?k e =
  let needed = Rem.registers e in
  let k = match k with None -> needed | Some k -> k in
  if k < needed then
    invalid_arg "Register_automaton.of_rem: k below registers used";
  let edges = ref [] and next = ref 0 in
  let fresh () =
    let q = !next in
    incr next;
    q
  in
  let add q op q' = edges := (q, op, q') :: !edges in
  let eps q q' = add q (Test Condition.True) q' in
  let rec build e =
    let s = fresh () and f = fresh () in
    (match e with
    | Rem.Eps -> eps s f
    | Rem.Letter a -> add s (Letter a) f
    | Rem.Union (e1, e2) ->
        let s1, f1 = build e1 and s2, f2 = build e2 in
        eps s s1;
        eps s s2;
        eps f1 f;
        eps f2 f
    | Rem.Concat (e1, e2) ->
        let s1, f1 = build e1 and s2, f2 = build e2 in
        eps s s1;
        eps f1 s2;
        eps f2 f
    | Rem.Plus e1 ->
        let s1, f1 = build e1 in
        eps s s1;
        eps f1 f;
        eps f1 s1
    | Rem.Test (e1, c) ->
        let s1, f1 = build e1 in
        eps s s1;
        add f1 (Test c) f
    | Rem.Bind (rs, e1) ->
        let s1, f1 = build e1 in
        add s (Bind rs) s1;
        eps f1 f);
    (s, f)
  in
  let start, final = build e in
  let nstates = !next in
  let arr = Array.make nstates [] in
  List.iter (fun (q, op, q') -> arr.(q) <- (op, q') :: arr.(q)) !edges;
  { k; nstates; start; final; edges = arr }

let of_basic ?k b = of_rem ?k (Basic_rem.to_rem b)

let sigma_key sigma = Array.to_list (Array.map (Option.map Data_value.to_int) sigma)

let accepts a w =
  let m = Data_path.length w in
  let seen = Hashtbl.create 256 in
  let q = Queue.create () in
  let push state pos sigma =
    let key = (state, pos, sigma_key sigma) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      Queue.add (state, pos, sigma) q
    end
  in
  push a.start 0 (Array.make a.k None);
  let found = ref false in
  while (not !found) && not (Queue.is_empty q) do
    let state, pos, sigma = Queue.pop q in
    if state = a.final && pos = m then found := true
    else
      let d = Data_path.value_at w pos in
      List.iter
        (fun (op, q') ->
          match op with
          | Bind rs ->
              let sigma' = Array.copy sigma in
              List.iter (fun r -> sigma'.(r) <- Some d) rs;
              push q' pos sigma'
          | Test c ->
              if Condition.sat c ~d ~assignment:sigma then push q' pos sigma
          | Letter b ->
              if pos < m && Data_path.label_at w pos = b then
                push q' (pos + 1) sigma)
        a.edges.(state)
  done;
  !found

(* Product with a data graph: configurations (state, node, σ).  Bind and
   Test act on the current node's value; Letter moves along graph edges. *)
let eval_from a g u =
  let n = Data_graph.size g in
  let out = Array.make n false in
  let seen = Hashtbl.create 256 in
  let q = Queue.create () in
  let push state v sigma =
    let key = (state, v, sigma_key sigma) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      Queue.add (state, v, sigma) q
    end
  in
  push a.start u (Array.make a.k None);
  while not (Queue.is_empty q) do
    let state, v, sigma = Queue.pop q in
    if state = a.final then out.(v) <- true;
    let d = Data_graph.value g v in
    List.iter
      (fun (op, q') ->
        match op with
        | Bind rs ->
            let sigma' = Array.copy sigma in
            List.iter (fun r -> sigma'.(r) <- Some d) rs;
            push q' v sigma'
        | Test c ->
            if Condition.sat c ~d ~assignment:sigma then push q' v sigma
        | Letter b -> (
            match Data_graph.label_id_opt g b with
            | None -> ()
            | Some lbl -> List.iter (fun v' -> push q' v' sigma) (Data_graph.succ_id g v lbl)))
      a.edges.(state)
  done;
  out

let eval_on_graph g a =
  let n = Data_graph.size g in
  let pairs = ref [] in
  for u = 0 to n - 1 do
    let out = eval_from a g u in
    for v = 0 to n - 1 do
      if out.(v) then pairs := (u, v) :: !pairs
    done
  done;
  Relation.of_list n !pairs

(* Emptiness over the bounded value pool {0..k}: a fresh value is always
   available because at most k values are stored, so every reachable
   configuration is realizable with these values (the bounded-data
   argument for register automata [16]). *)
let pool a = List.init (a.k + 1) Data_value.of_int

(* BFS over configurations (state, current value, σ) with values drawn
   from the pool, remembering the initial value and the (letter, value)
   steps so an accepted data path can be reconstructed. *)
let bounded_search a ~max_len =
  let seen = Hashtbl.create 256 in
  let q = Queue.create () in
  let push state d sigma init trace len =
    let key = (state, Data_value.to_int d, sigma_key sigma) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      Queue.add (state, d, sigma, init, trace, len) q
    end
  in
  List.iter (fun d -> push a.start d (Array.make a.k None) d [] 0) (pool a);
  let result = ref None in
  while !result = None && not (Queue.is_empty q) do
    let state, d, sigma, init, trace, len = Queue.pop q in
    if state = a.final then begin
      let steps = List.rev trace in
      let values = Array.of_list (init :: List.map snd steps) in
      let labels = Array.of_list (List.map fst steps) in
      result := Some (Data_path.make ~values ~labels)
    end
    else
      List.iter
        (fun (op, q') ->
          match op with
          | Bind rs ->
              let sigma' = Array.copy sigma in
              List.iter (fun r -> sigma'.(r) <- Some d) rs;
              push q' d sigma' init trace len
          | Test c ->
              if Condition.sat c ~d ~assignment:sigma then
                push q' d sigma init trace len
          | Letter b ->
              if len < max_len then
                List.iter
                  (fun d' -> push q' d' sigma init ((b, d') :: trace) (len + 1))
                  (pool a))
        a.edges.(state)
  done;
  !result

let is_empty a =
  (* The visited set is over configurations, so the BFS terminates
     without a length bound; max_int only silences the guard. *)
  bounded_search a ~max_len:max_int = None

let shortest_accepted ?(max_len = 64) a = bounded_search a ~max_len
