type t = {
  nstates : int;
  start : int;
  final : int;
  (* trans.(q) lists (label, q'); eps.(q) lists q'. *)
  trans : (string * int) list array;
  eps : int list array;
}

let state_count a = a.nstates

(* Thompson construction with a single final state per sub-automaton. *)
let of_regex e =
  let trans = ref [] and eps = ref [] and next = ref 0 in
  let fresh () =
    let q = !next in
    incr next;
    q
  in
  let add_trans q a q' = trans := (q, a, q') :: !trans in
  let add_eps q q' = eps := (q, q') :: !eps in
  let rec build e =
    let s = fresh () and f = fresh () in
    (match e with
    | Regex.Empty -> ()
    | Regex.Eps -> add_eps s f
    | Regex.Letter a -> add_trans s a f
    | Regex.Union (e1, e2) ->
        let s1, f1 = build e1 and s2, f2 = build e2 in
        add_eps s s1;
        add_eps s s2;
        add_eps f1 f;
        add_eps f2 f
    | Regex.Concat (e1, e2) ->
        let s1, f1 = build e1 and s2, f2 = build e2 in
        add_eps s s1;
        add_eps f1 s2;
        add_eps f2 f
    | Regex.Plus e1 ->
        let s1, f1 = build e1 in
        add_eps s s1;
        add_eps f1 f;
        add_eps f1 s1
    | Regex.Star e1 ->
        let s1, f1 = build e1 in
        add_eps s s1;
        add_eps f1 f;
        add_eps f1 s1;
        add_eps s f);
    (s, f)
  in
  let start, final = build e in
  let nstates = !next in
  let trans_arr = Array.make nstates [] in
  let eps_arr = Array.make nstates [] in
  List.iter (fun (q, a, q') -> trans_arr.(q) <- (a, q') :: trans_arr.(q)) !trans;
  List.iter (fun (q, q') -> eps_arr.(q) <- q' :: eps_arr.(q)) !eps;
  { nstates; start; final; trans = trans_arr; eps = eps_arr }

let eps_closure a states =
  let seen = Array.make a.nstates false in
  let rec go q =
    if not seen.(q) then begin
      seen.(q) <- true;
      List.iter go a.eps.(q)
    end
  in
  List.iter go states;
  seen

let step a closure label =
  let out = ref [] in
  Array.iteri
    (fun q in_set ->
      if in_set then
        List.iter (fun (b, q') -> if b = label then out := q' :: !out) a.trans.(q))
    closure;
  !out

let accepts a word =
  let rec go closure = function
    | [] -> closure.(a.final)
    | x :: rest -> go (eps_closure a (step a closure x)) rest
  in
  go (eps_closure a [ a.start ]) word

let reachable_states a =
  let seen = Array.make a.nstates false in
  let rec go q =
    if not seen.(q) then begin
      seen.(q) <- true;
      List.iter go a.eps.(q);
      List.iter (fun (_, q') -> go q') a.trans.(q)
    end
  in
  go a.start;
  seen

let is_empty a = not (reachable_states a).(a.final)

let accepts_some_bounded a ~max_len =
  (* BFS over subset-construction states, producing a shortest witness. *)
  let seen = Hashtbl.create 64 in
  let q = Queue.create () in
  let start = eps_closure a [ a.start ] in
  Queue.add (start, []) q;
  Hashtbl.add seen (Array.to_list start) ();
  let labels =
    Array.to_list a.trans
    |> List.concat_map (List.map fst)
    |> List.sort_uniq compare
  in
  let result = ref None in
  (try
     while not (Queue.is_empty q) do
       let closure, word = Queue.pop q in
       if closure.(a.final) then begin
         result := Some (List.rev word);
         raise Exit
       end;
       if List.length word < max_len then
         List.iter
           (fun lbl ->
             let next = eps_closure a (step a closure lbl) in
             let key = Array.to_list next in
             if not (Hashtbl.mem seen key) then begin
               Hashtbl.add seen key ();
               Queue.add (next, lbl :: word) q
             end)
           labels
     done
   with Exit -> ());
  !result

(* Product reachability: from (u, closure-of-start), follow graph edges and
   automaton transitions in lockstep. *)
let eval_from a g u =
  let n = Datagraph.Data_graph.size g in
  let visited = Hashtbl.create 64 in
  let out = Array.make n false in
  let enqueue q (v, closure) =
    let key = (v, Array.to_list closure) in
    if not (Hashtbl.mem visited key) then begin
      Hashtbl.add visited key ();
      Queue.add (v, closure) q
    end
  in
  let q = Queue.create () in
  enqueue q (u, eps_closure a [ a.start ]);
  while not (Queue.is_empty q) do
    let v, closure = Queue.pop q in
    if closure.(a.final) then out.(v) <- true;
    List.iter
      (fun (lbl_id, v') ->
        let lbl = Datagraph.Data_graph.label_name g lbl_id in
        let next = step a closure lbl in
        if next <> [] then enqueue q (v', eps_closure a next))
      (Datagraph.Data_graph.succ_all g v)
  done;
  out

let eval_on_graph g a =
  let n = Datagraph.Data_graph.size g in
  let pairs = ref [] in
  for u = 0 to n - 1 do
    let out = eval_from a g u in
    for v = 0 to n - 1 do
      if out.(v) then pairs := (u, v) :: !pairs
    done
  done;
  Datagraph.Relation.of_list n !pairs

(* Letters appearing on transitions. *)
let letters a =
  Array.to_list a.trans |> List.concat_map (List.map fst)
  |> List.sort_uniq compare

(* Product of [a] with the complement of the determinization of [b]:
   search for a word accepted by [a] and rejected by [b].  States are
   (a-closure, b-closure) pairs; BFS yields a shortest counterexample. *)
let counterexample a ~in_:b ~over =
  let alphabet = List.sort_uniq compare (over @ letters a @ letters b) in
  let seen = Hashtbl.create 256 in
  let q = Queue.create () in
  let push ca cb word =
    let key = (Array.to_list ca, Array.to_list cb) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      Queue.add (ca, cb, word) q
    end
  in
  push (eps_closure a [ a.start ]) (eps_closure b [ b.start ]) [];
  let result = ref None in
  while !result = None && not (Queue.is_empty q) do
    let ca, cb, word = Queue.pop q in
    if ca.(a.final) && not cb.(b.final) then result := Some (List.rev word)
    else
      List.iter
        (fun lbl ->
          let na = step a ca lbl in
          (* A counterexample must be accepted by [a], so a dead [a]-side
             cannot recover; prune it. *)
          if na <> [] then
            push (eps_closure a na) (eps_closure b (step b cb lbl))
              (lbl :: word))
        alphabet
  done;
  !result

let included a ~in_ ~over = counterexample a ~in_ ~over = None
