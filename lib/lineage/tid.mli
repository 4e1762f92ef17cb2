(** Base-tuple identifiers.

    Every tuple stored in a base relation gets a stable identifier
    consisting of the relation name and the tuple's insertion index within
    that relation.  Lineage formulas ({!Formula.t}) refer to base tuples
    through these identifiers, and the confidence table of a database maps
    them to confidence values. *)

type t = { rel : string; row : int }

val make : string -> int -> t
(** [make rel row] builds the identifier of the [row]-th tuple inserted
    into relation [rel] (0-based). *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val to_string : t -> string
(** Prints as ["rel#row"], e.g. ["Proposal#2"]. *)

val add_to_buffer : Buffer.t -> t -> unit
(** Appends {!to_string}'s rendering. *)

val add_int : Buffer.t -> int -> unit
(** Appends [string_of_int n] with a digit loop (no format machinery);
    the integer writer every [add_to_buffer] renderer shares. *)

val of_string : string -> t option
(** Parses the {!to_string} form. *)

val pp : Format.formatter -> t -> unit

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
module Table : Hashtbl.S with type key = t
