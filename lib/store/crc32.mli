(** CRC-32 (IEEE 802.3, polynomial [0xEDB88320]), slicing-by-4.

    Frames every record in {!Log} so recovery can tell a complete record
    from a torn or bit-rotted one without trusting file length, and
    seals service lines end to end.  The stdlib has no checksum and the
    store takes no dependencies, so the four 256-entry tables live here,
    built once at module initialisation (safe to use from any thread or
    domain); the value fits OCaml's native [int] on 64-bit (always
    [< 2^32]). *)

val digest_bytes : bytes -> int -> int -> int
(** [digest_bytes b pos len] — CRC-32 of the slice. *)

val digest_string : string -> int

val digest_sub : string -> int -> int -> int

val digest_sub_char : string -> int -> int -> char -> int
(** [digest_sub_char s pos len c] — CRC-32 of the slice followed by the
    byte [c], without building that string: a sealed line is checked
    against the CRC of its prefix closed by ['}']. *)
