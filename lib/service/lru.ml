(* Recency is a circular doubly-linked list threaded through the table's
   nodes and closed by a sentinel: [sentinel.older] is the most recently
   used node and [sentinel.newer] the least, so a touch, an insertion
   and an eviction each relink a constant number of nodes.  A node holds
   its value as the option [find] returns, so a hit allocates nothing;
   only the sentinel holds [None]. *)
type 'a node = {
  key : string;
  value : 'a option;
  mutable older : 'a node;
  mutable newer : 'a node;
}

type 'a t = {
  capacity : int;
  table : (string, 'a node) Hashtbl.t;
  sentinel : 'a node;
  mutable evicted : int;
  mutable hit : int;
  mutable miss : int;
  m : Mutex.t;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Service.Lru.create: capacity must be >= 1";
  let rec sentinel = { key = ""; value = None; older = sentinel; newer = sentinel } in
  {
    capacity;
    table = Hashtbl.create (min capacity 64);
    sentinel;
    evicted = 0;
    hit = 0;
    miss = 0;
    m = Mutex.create ();
  }

let locked t f = Mutex.protect t.m f

let capacity t = t.capacity
let length t = locked t (fun () -> Hashtbl.length t.table)
let evictions t = locked t (fun () -> t.evicted)
let hits t = locked t (fun () -> t.hit)
let misses t = locked t (fun () -> t.miss)

let unlink n =
  n.older.newer <- n.newer;
  n.newer.older <- n.older

let push_newest t n =
  let s = t.sentinel in
  n.older <- s.older;
  n.newer <- s;
  s.older.newer <- n;
  s.older <- n

let find t k =
  locked t (fun () ->
      match Hashtbl.find t.table k with
      | exception Not_found ->
          t.miss <- t.miss + 1;
          None
      | n ->
          if t.sentinel.older != n then begin
            unlink n;
            push_newest t n
          end;
          t.hit <- t.hit + 1;
          n.value)

let drop t n =
  unlink n;
  Hashtbl.remove t.table n.key

let put t k v =
  locked t (fun () ->
      (* Replace rather than mutate: [value] is immutable so a reader
         that grabbed the old value keeps a consistent snapshot. *)
      (match Hashtbl.find_opt t.table k with
      | Some n -> drop t n
      | None ->
          if Hashtbl.length t.table >= t.capacity then begin
            drop t t.sentinel.newer;
            t.evicted <- t.evicted + 1
          end);
      let rec n = { key = k; value = Some v; older = n; newer = n } in
      push_newest t n;
      Hashtbl.add t.table k n)

let remove t k =
  locked t (fun () ->
      match Hashtbl.find_opt t.table k with Some n -> drop t n | None -> ())

let hot t n =
  locked t (fun () ->
      (* The walk stops at the sentinel, the one node without a value. *)
      let rec walk acc i node =
        match node.value with
        | Some v when i < n -> walk ((node.key, v) :: acc) (i + 1) node.older
        | _ -> List.rev acc
      in
      walk [] 0 t.sentinel.older)

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.table;
      t.sentinel.older <- t.sentinel;
      t.sentinel.newer <- t.sentinel)
