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

    {b Recovery invariant.}  [Marshal] bytes are trusted only inside a
    CRC-valid frame {e and} only after {!decode} rebuilds the instance
    and re-checks the carried certificate — the [check] hook this module
    installs into {!Store.Log.open_}.  A record that fails any of those
    steps is dropped at recovery (counted in the store's
    [recovery_dropped_check]) and the verdict is recomputed on the next
    request: corruption degrades to work, never to a wrong answer. *)

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

val decode : ?check:bool -> string -> (entry, string) result
(** Decode and validate: version header, [Marshal] round-trip, instance
    re-parse, and (with [check], the default) certificate re-check on
    the rebuilt instance. *)

val to_hex : string -> string
val of_hex : string -> (string, string) result

(** {2 The tier} *)

type t

val open_ :
  ?fsync:Store.Log.fsync_policy -> ?auto_compact_bytes:int -> string -> t
(** Open (and recover) the store directory; every record surviving
    recovery has had its certificate re-checked. *)

val find : t -> string -> entry option
(** Decoded without the certificate re-check: the memory tier above
    promotes the entry unchecked and checks it on its first hit, so
    one check per promoted entry is enough. *)

val find_raw : t -> string -> string option
(** The encoded record, for [export]. *)

val put : t -> string -> entry -> unit
val put_raw : t -> string -> string -> (unit, string) result
(** [put_raw] validates (including the certificate check) before
    writing — the [import] path for records that crossed a socket. *)

val remove : t -> string -> unit
val compact : t -> unit
val sync : t -> unit
val close : t -> unit
val length : t -> int
val disk_bytes : t -> int

val stats : t -> (string * int) list
(** The underlying {!Store.Log.stats}. *)
