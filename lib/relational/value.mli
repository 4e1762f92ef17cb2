(** Typed atomic values stored in relations.

    The engine supports the four scalar types the paper's examples use
    (strings, integers, reals, booleans) plus SQL-style [NULL].  Values are
    immutable; comparison follows SQL semantics except that [NULL] compares
    as the smallest value under {!compare} (a total order is needed for
    sorting and set operations), while {!cmp_sql} implements three-valued
    logic where any comparison against [NULL] is unknown. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string

type ty = TBool | TInt | TFloat | TString

val type_of : t -> ty option
(** [type_of v] is the type of [v], or [None] for [Null] (which inhabits
    every type). *)

val ty_name : ty -> string
(** [ty_name ty] is the SQL-ish name of [ty]: ["bool"], ["int"], ["real"],
    ["string"]. *)

val ty_of_string : string -> ty option
(** [ty_of_string s] parses a type name as printed by {!ty_name}
    (also accepts ["float"], ["text"], ["integer"], ["boolean"]). *)

val conforms : t -> ty -> bool
(** [conforms v ty] is [true] when [v] can live in a column of type [ty]
    ([Null] conforms to every type; [Int] values conform to [TFloat]
    columns). *)

val coerce : t -> ty -> t option
(** [coerce v ty] converts [v] to type [ty] when a lossless conversion
    exists (e.g. [Int 3] to [Float 3.]), returns [None] otherwise. *)

val compare : t -> t -> int
(** Total order used for sorting and set operations.  [Null] is smallest;
    values of different types are ordered by type tag; numeric values are
    compared numerically across [Int]/[Float]. *)

val equal : t -> t -> bool
(** [equal a b] is [compare a b = 0]. *)

val hash : t -> int
(** Hash consistent with {!equal} (numerically equal [Int]/[Float] values
    hash identically). *)

type bool3 = True3 | False3 | Unknown3
(** SQL three-valued truth values. *)

val cmp_sql : t -> t -> bool3 * int
(** [cmp_sql a b] is [(Unknown3, 0)] when either side is [Null]; otherwise
    [(True3, c)] with [c] the sign of the comparison.  Raises
    [Invalid_argument] for incomparable types (e.g. [Bool] vs [String]). *)

val and3 : bool3 -> bool3 -> bool3
val or3 : bool3 -> bool3 -> bool3
val not3 : bool3 -> bool3
val bool3_of_bool : bool -> bool3
val is_true : bool3 -> bool
(** [is_true b] is [true] only for [True3] (SQL WHERE semantics: unknown
    rows are filtered out). *)

val to_string : t -> string
(** Display form: [Null] prints as ["NULL"], strings print unquoted. *)

val add_to_buffer : Buffer.t -> t -> unit
(** Appends {!to_string}'s rendering. *)

val to_sql : t -> string
(** SQL literal form: strings are single-quoted with quotes doubled. *)

val pp : Format.formatter -> t -> unit

val of_string_as : ty -> string -> t option
(** [of_string_as ty s] parses [s] as a value of type [ty].  The empty
    string and ["NULL"] (case-insensitive) parse as [Null]. *)
