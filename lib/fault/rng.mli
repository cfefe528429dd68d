(** The deterministic hash stream under the whole fault plane, also
    behind the connect-retry jitter of {!Service.Client.retry_delay_s}:
    one multiply-xor-shift avalanche, so there is exactly one
    [Random]-free idiom to audit.  Pure and stateless — a site's
    schedule depends only on (seed, site, ordinal). *)

val mix : int -> int -> int
(** [mix salt n] — avalanche of the pair; non-negative. *)

val unit_float : int -> float
(** Map a hash to [\[0, 1)] — 30 mantissa bits. *)

val of_name : string -> int
(** FNV-fold a site name to a salt, so each site gets its own hash
    stream regardless of registration order. *)
