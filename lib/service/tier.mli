(** The durable verdict tier: {!Store.Log} records carrying a decided
    outcome, its certificate, and enough of the problem to re-check it.

    {!Cache} layers its in-memory LRU over one of these — the memory
    tier serves the hot set, the durable tier survives restarts and
    eviction.  Everything above the cache ({!Server}, the delta
    chaining, the CLI) sees only the tiered cache; everything below
    ({!Store.Log}) sees only opaque strings.

    {b Record format.}  A record's key is the {!Content_hash} instance
    digest (or a chained delta digest); its value is a small versioned
    header followed by a [Marshal]-encoded payload

    {v { lang; k; instance_text; outcome } v}

    where [instance_text] is the {!Datagraph.Graph_io} rendering of the
    decided instance (an [Engine.Instance.t] carries memo tables and is
    rebuilt from text, never marshaled) and [outcome] is the full
    [Engine.Outcome.t] — certificates are pure ADTs, so the marshaled
    bytes round-trip exactly and a warm hit renders the verdict block
    byte-identical to the cold decide that produced it.

    {b Recovery invariant.}  Each layer checks what it owns, once.
    {!Store.Log} checks the frame CRC on every read, so the bytes
    handed to {!decode} are the bytes that were written.  {!decode}
    checks structure only: the version header, the [Marshal]
    round-trip and the instance re-parse.  The certificate is checked
    by {!Cache}, once per entry, on its first hit.  Recovery therefore
    replays frames and nothing more; a record that fails a later check
    is dropped and its verdict recomputed on the next request:
    corruption degrades to work, never to a wrong answer. *)

type entry = {
  lang : string;
  k : int;
  inst : Engine.Instance.t;
  outcome : Engine.Outcome.t;
}
(** What one tier record denotes, with the instance already rebuilt. *)

(** {2 Codec} — also the wire format of [export]/[import] warm
    transfers (hex-encoded over the protocol). *)

val encode : entry -> string

val decode : string -> (entry, string) result
(** Decode and validate the structure: version header, [Marshal]
    round-trip, instance re-parse.  The certificate is not checked. *)

val to_hex : string -> string
val of_hex : string -> (string, string) result

(** {2 The tier} *)

type t

val open_ :
  ?fsync:Store.Log.fsync_policy -> ?auto_compact_bytes:int -> string -> t
(** Open (and recover) the store directory: {!Store.Log.open_}. *)

val find : t -> string -> entry option
(** The decoded record, certificate unchecked: the memory tier above
    promotes the entry unchecked and checks it on its first hit.  A
    record that does not decode (a stale version header, say) is
    removed from the store and reads as [None]. *)

val put : t -> string -> entry -> unit
(** @raise Store.Log.Append_failed when the record did not land; the
    store is as before the call. *)

val remove : t -> string -> unit
(** @raise Store.Log.Append_failed likewise. *)

val compact : t -> unit
val sync : t -> unit
val close : t -> unit
val length : t -> int
val disk_bytes : t -> int

val stats : t -> (string * int) list
(** The underlying {!Store.Log.stats}. *)
