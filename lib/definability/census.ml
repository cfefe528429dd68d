module Data_graph = Datagraph.Data_graph
module Relation = Datagraph.Relation
module Tuple_relation = Datagraph.Tuple_relation

type t = {
  relations : int;
  rpq : int;
  ree : int;
  krem : int array;
  rem : int;
  ucrdpq : int;
}

let binary ?(max_k = 2) ?sample ?(seed = 0) g =
  let n = Data_graph.size g in
  let bits = n * n in
  (* The relations to examine. *)
  let relations =
    match sample with
    | None ->
        if bits > 20 then
          invalid_arg
            "Census.binary: too many relations to enumerate; pass ~sample";
        List.init (1 lsl bits) (fun code ->
            let pairs = ref [] in
            for u = 0 to n - 1 do
              for v = 0 to n - 1 do
                if (code lsr ((u * n) + v)) land 1 = 1 then
                  pairs := (u, v) :: !pairs
              done
            done;
            Relation.of_list n !pairs)
    | Some count ->
        List.init count (fun i ->
            Datagraph.Graph_gen.random_relation ~seed:(seed + i) g ~density:0.3)
        |> List.sort_uniq Relation.compare
  in
  (* Shared precomputation. *)
  let homs = Hom.all g in
  let closure, _ = Ree_definability.closure g in
  let preserved s =
    List.for_all
      (fun h ->
        Relation.fold
          (fun u v ok -> ok && Relation.mem s h.(u) h.(v))
          s true)
      homs
  in
  let ree_definable s =
    let covered = ref (Relation.empty n) in
    List.iter
      (fun (r, _) -> if Relation.subset r s then covered := Relation.union !covered r)
      closure;
    Relation.equal !covered s
  in
  let decided (o : Witness_search.outcome) =
    match o.verdict with
    | Witness_search.Definable -> true
    | Witness_search.Not_definable _ -> false
    | Witness_search.Exhausted ->
        failwith "definability search truncated; raise max_tuples"
  in
  let counts = Array.make (max_k + 1) 0 in
  let rpq = ref 0 and ree = ref 0 and rem = ref 0 and uc = ref 0 in
  List.iter
    (fun s ->
      if decided (Rpq_definability.search g s) then incr rpq;
      if ree_definable s then incr ree;
      if decided (Rem_definability.search g s) then incr rem;
      if preserved s then incr uc;
      for k = 0 to max_k do
        if decided (Rem_definability.search_k g ~k s) then
          counts.(k) <- counts.(k) + 1
      done)
    relations;
  {
    relations = List.length relations;
    rpq = !rpq;
    ree = !ree;
    krem = counts;
    rem = !rem;
    ucrdpq = !uc;
  }

let pp ppf c =
  Format.fprintf ppf
    "@[<v>relations examined: %d@,RPQ-definable:      %d@,RDPQ=-definable:    \
     %d@,k-REM definable:    %s@,RDPQmem-definable:  %d@,UCRDPQ-definable:   \
     %d@]"
    c.relations c.rpq c.ree
    (String.concat ", "
       (Array.to_list
          (Array.mapi (fun k v -> Printf.sprintf "k=%d:%d" k v) c.krem)))
    c.rem c.ucrdpq
