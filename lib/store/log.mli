(** A durable, append-only key→value log with CRC-framed records,
    snapshot + compaction, and prefix-truncating recovery.

    {b Layout.}  A store is a directory holding two files in the same
    record format: [snapshot.bin] (the live set as of the last
    compaction, rewritten atomically via a temp file + rename) and
    [log.bin] (everything appended since).  Each record is framed as

    {v
    [body_len : u32 LE] [crc32(body) : u32 LE] [body]
    body = [kind : 'P' | 'D'] [key_len : u32 LE] [key] [value]
    v}

    ['P'] puts (or overwrites) [key]; ['D'] deletes it (the value is
    empty).  The in-memory index maps each live key to the file offset
    of its frame, so [find] is one seek + read and memory use is
    O(keys), not O(values).

    {b Integrity: one rule.}  The frame CRC is the store's only check on
    its bytes, and every read makes it: recovery, {!find}, {!iter} and
    {!compact} all parse frames through one parser that checks length,
    CRC and body layout.  A frame that fails reads as "not stored":
    [find] drops the key from the index and answers [None], [iter]
    skips it, and [compact] leaves it out of the new snapshot, so a
    damaged value is never served and never re-sealed under a fresh
    CRC.  What a value {e means} is the caller's business; the store
    never interprets it.

    {b Recovery.}  Opening replays the snapshot and then the log,
    stopping at the {e first} frame that fails the check — everything
    after a torn write is unreachable garbage by construction, so the
    log is truncated back to the last valid frame (counted in
    [recovery_truncated_bytes]).  A crash can therefore lose the suffix
    of unsynced appends but can never surface a corrupt value: the
    caller re-computes exactly what recovery dropped.

    {b Durability.}  [fsync_policy] trades write latency for the size of
    that losable suffix: [Always] syncs after every append, [Every n]
    after [n] appends, [Never] leaves syncing to the OS (and to
    compaction/close, which always sync).

    {b Compaction.}  [compact] rewrites the live set to a fresh
    snapshot, fsyncs it, renames it into place and truncates the log to
    zero — the only moment records for dead keys are reclaimed.  With
    [auto_compact_bytes > 0] it runs automatically when the log grows
    past the bound.

    All operations are serialized by an internal mutex; one store can be
    shared by every server thread. *)

type fsync_policy = Never | Every of int | Always

val fsync_policy_to_string : fsync_policy -> string
(** ["never"], ["every:N"], ["always"] — the CLI flag syntax. *)

val fsync_policy_of_string : string -> (fsync_policy, string) result

type t

val open_ : ?fsync:fsync_policy -> ?auto_compact_bytes:int -> string -> t
(** [open_ dir] creates [dir] if missing and recovers the store in it.
    [fsync] defaults to [Every 64]; [auto_compact_bytes] to [0] (manual
    compaction only).
    @raise Unix.Unix_error when the directory or files cannot be
    created/read. *)

val find : t -> string -> string option
(** The value last put under the key, if its frame still checks out;
    [None] (and the key forgotten) if it does not. *)

val mem : t -> string -> bool

exception Append_failed of string
(** An append did not reach the file whole: a short write, or a write
    that failed (e.g. [ENOSPC]).  The partial frame has been truncated
    away and the store is exactly as before the call.  If that
    truncation failed as well, the log is read-only until the next
    {!open_} (whose recovery cuts the tail back to the last valid
    frame), and every later {!put} and {!remove} raises this too. *)

val put : t -> string -> string -> unit
(** Insert or overwrite.  The old record, if any, becomes garbage until
    the next compaction.
    @raise Append_failed when the record could not be appended; the
    previous binding, if any, stays. *)

val remove : t -> string -> unit
(** Appends a delete record (no-op when the key is absent).
    @raise Append_failed when the record could not be appended; the
    binding stays. *)

val iter : t -> (string -> string -> unit) -> unit
(** Visit every live binding whose frame checks out (order
    unspecified).  The callback must not reenter the store. *)

val length : t -> int
val sync : t -> unit

val compact : t -> unit
(** Rewrite the live set as a fresh snapshot and empty the log.  A
    binding whose frame no longer checks out is dropped. *)

val close : t -> unit
(** Sync and close; idempotent.  Every other operation raises
    [Invalid_argument] after close. *)

val stats : t -> (string * int) list
(** Sorted: [appends], [compactions], [fsyncs], [live_records],
    [log_bytes], [recovered_records], [recovery_truncated_bytes],
    [snapshot_bytes]. *)

val disk_bytes : t -> int
(** [snapshot_bytes + log_bytes] — what the store occupies on disk. *)
