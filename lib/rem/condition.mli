(** Conditions over [k] registers (Definition 3):

    {v c := ⊤ | r_i= | r_i≠ | c ∨ c | c ∧ c | ¬c v}

    Satisfaction is with respect to a data value [d] and an assignment
    [τ ∈ (D ∪ ⊥)^k]: [r_i=] holds iff register [i] holds exactly [d];
    [r_i≠] holds iff it does not (an empty register [⊥] differs from every
    data value).  Consequently exactly one of [r_i=], [r_i≠] holds for
    every register, so a condition is determined by its set of satisfying
    {e complete types} — the boolean vectors recording which registers
    equal the current value.  Registers are 0-indexed. *)

type t =
  | True
  | Eq of int  (** [r_i=] *)
  | Neq of int  (** [r_i≠] *)
  | And of t * t
  | Or of t * t
  | Not of t

val ff : t
(** A canonical unsatisfiable condition, [¬⊤]. *)

val conj : t list -> t
(** n-ary conjunction ([True] for the empty list). *)

val disj : t list -> t
(** n-ary disjunction ([ff] for the empty list). *)

val max_register : t -> int
(** Largest register index mentioned, or [-1] if none. *)

val sat : t -> d:Datagraph.Data_value.t -> assignment:Datagraph.Data_value.t option array -> bool
(** Satisfaction per Definition 3 ([None] is the empty register ⊥). *)

val eval_type : t -> bool array -> bool
(** Satisfaction under a complete type: [ty.(i)] is the truth of [r_i=]. *)

val complete_types : k:int -> t -> bool array list
(** All complete types over [k] registers satisfying the condition —
    [2^k] candidates.  A condition is unsatisfiable over [k] registers iff
    this is empty. *)

val of_complete_type : bool array -> t
(** The conjunction pinning every register to its value in the type. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val add_to_buffer : Buffer.t -> t -> unit
(** Append [to_string c]; the REM printers render a test's condition
    into their own buffer through this. *)

val add_register : Buffer.t -> int -> unit
(** Append register [i] as written: [r<i+1>] ([add_register b 0]
    appends ["r1"]). *)

val parse : string -> (t, string) result
(** Concrete syntax: [true], [r1=], [r1!=], [&], [|], [!c], parentheses.
    Registers are 1-indexed in the concrete syntax ([r1] is register 0). *)
