(** Data paths: sequences [d0 a0 d1 a1 ... a(m-1) dm] of data values
    alternating with letters of the finite alphabet, starting and ending
    with a data value (paper, Section 2).

    A data path is independent of any particular graph; {!Data_graph}
    provides the functions relating data paths to paths in a graph. *)

type label = string
(** Letters of the finite alphabet [Σ]. *)

type t
(** A data path with [m >= 0] letters and [m + 1] data values.  The data
    path consisting of a single data value (denoted [d] in the paper, the
    member of [L(ε)]) has [m = 0]. *)

val make : values:Data_value.t array -> labels:label array -> t
(** [make ~values ~labels] builds a data path.
    @raise Invalid_argument
      if [Array.length values <> Array.length labels + 1]. *)

val singleton : Data_value.t -> t
(** The one-value data path [d]. *)

val length : t -> int
(** Number of letters [m] (one less than the number of data values). *)

val values : t -> Data_value.t array
(** The [m + 1] data values, in order.  Fresh copy: safe to mutate. *)

val labels : t -> label array
(** The [m] letters, in order.  Fresh copy: safe to mutate. *)

val value_at : t -> int -> Data_value.t
(** [value_at w i] is [d_i], for [0 <= i <= length w]. *)

val label_at : t -> int -> label
(** [label_at w i] is [a_i], for [0 <= i < length w]. *)

val first : t -> Data_value.t
val last : t -> Data_value.t

val concat : t -> t -> t
(** [concat w1 w2] is the concatenation [w1 · w2] of the paper: defined only
    when the last value of [w1] equals the first value of [w2]; the shared
    value appears once in the result.
    @raise Invalid_argument if the endpoint values differ. *)

val concat_opt : t -> t -> t option
(** Like {!concat} but returns [None] on an endpoint mismatch. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val map_values : (Data_value.t -> Data_value.t) -> t -> t
(** [map_values pi w] is [π(w)] (Definition 9): apply a renaming of data
    values pointwise, keeping the letters. *)

val profile : t -> int array
(** The equality profile of the data values: [profile w] has one entry per
    data value position; position [i] holds the index of the first position
    carrying the same data value as position [i].  Two data paths are
    automorphic iff they have the same labels and the same profile. *)

val automorphic : t -> t -> bool
(** [automorphic w1 w2] is true iff some automorphism [π] of [D] has
    [π(w1) = w2], i.e. the paths agree on letters and on the (in)equality
    pattern of their data values (Definition 9, Fact 10). *)
