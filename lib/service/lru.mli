(** A bounded, mutex-guarded LRU store with string keys.

    Backs the service's verdict, graph and request-text caches and the
    router's routing memos.  Recency is a doubly-linked list threaded
    through the entries, so [find], [put] (eviction included) and
    [remove] are O(1): eviction sits on the miss path of every memo, so
    it must not scan the store.  All operations take the store's own
    mutex, so one store can be shared by every connection handler
    thread. *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument if [capacity < 1]. *)

val capacity : 'a t -> int
val length : 'a t -> int

val find : 'a t -> string -> 'a option
(** [find t k] returns the cached value and marks it most recently
    used. *)

val put : 'a t -> string -> 'a -> unit
(** Insert or refresh; evicts the least recently used entry when the
    store is full. *)

val remove : 'a t -> string -> unit
(** Drop an entry (no-op when absent) — used when a cached verdict fails
    revalidation. *)

val hot : 'a t -> int -> (string * 'a) list
(** The (at most) [n] most recently used bindings, most-recent first,
    without touching recency — the warm-transfer export set. *)

val evictions : 'a t -> int
(** How many entries capacity pressure has pushed out so far. *)

val hits : 'a t -> int
(** How many [find] calls returned an entry. *)

val misses : 'a t -> int
(** How many [find] calls came up empty.  Together with {!hits} this
    makes routing-table caches (the router's delta-chain LRU) auditable
    from [stats] instead of invisible. *)

val clear : 'a t -> unit
