(** A minimal JSON value type with a parser and a compact printer — just
    enough for the service protocol (newline-delimited request/response
    objects), with no external dependency.

    The parser accepts standard JSON (RFC 8259): objects, arrays,
    strings with escapes (including [\uXXXX], encoded back as UTF-8),
    numbers, booleans and null.  Numbers are stored as [float]; the
    protocol only ever carries small integers (fuel, ports, counts) and
    seconds, so the 53-bit mantissa is not a practical limit — {!to_int}
    rejects non-integral values rather than silently truncating.

    The printer is compact (no whitespace) and escapes exactly like the
    CLI's verdict emitter, so a value round-trips through
    [parse ∘ to_string]. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** fields in document order *)

val parse : string -> (t, string) result
(** Parse one JSON document; trailing garbage after the document is an
    error.  Errors name the offending byte offset.  A number made only
    of digits (at most 15) is read exactly with integer arithmetic;
    any other number goes through [float_of_string_opt], so [-0] keeps
    its sign. *)

val to_string : t -> string

val escape_into : Buffer.t -> string -> unit
(** Append the JSON string-escape of the text (no surrounding quotes);
    shared with {!Wire}'s string-based emitter. *)

(** {2 Accessors}

    All return [None] on a type mismatch or a missing field, so request
    handlers can validate with [Option] pipelines instead of matching. *)

val member : string -> t -> t option
(** Field of an object ([None] on non-objects too).  Keys are compared
    with [String.equal]; when a key occurs more than once, the first
    binding in document order is returned. *)

val to_str : t -> string option
val to_int : t -> int option
(** Integral numbers only. *)

val to_float : t -> float option
val to_bool : t -> bool option
val to_list : t -> t list option
