(** Columnar batches: the storage side of the vectorized engine.

    A batch holds one relation's (or intermediate result's) data as typed
    columns stored side by side — [Bigarray] buffers for int and real
    columns, byte arrays for bools, dictionary codes for strings — plus a
    per-column null byte-map, and the lineage carrier (tuple-id column,
    or merged formulas after duplicate elimination).  A batch holds no
    confidences: lineage and values do not depend on the confidence
    table, so a cached batch serves every confidence snapshot of the
    same structure and is never written after it is built.  A
    selection vector narrows the batch to a subset of physical rows
    without copying column data; operators that must materialize
    (duplicate elimination) compact into a fresh batch.

    The contract with the row engine ({!Eval}) is bit-identity:
    {!to_rows} of any batch pipeline equals the row engine's output —
    same tuples (including [Int] vs [Float] identity in real columns),
    same order, structurally identical lineage formulas.  To keep exact
    integer semantics representable, {!of_relation} declines (returns
    [None]) when an integer's magnitude exceeds 2{^53}; such relations
    are simply evaluated by the row engine. *)

type col =
  | ICol of (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
      (** int column; every value exact, magnitude at most 2{^53} *)
  | FCol of {
      data : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
      was_int : Bytes.t;
          (** ['\001'] where the stored value was a [Value.Int] — real
              columns admit ints ({!Value.conforms}), and materialization
              must reproduce the original constructor *)
    }
  | BCol of Bytes.t  (** bool column, 0/1 *)
  | SCol of {
      codes : int array;
      dict : string array;  (** distinct strings, first-occurrence order *)
      boxed : Value.t array;  (** shared [Value.String] per code *)
      hashes : int array;  (** [Value.hash] per code *)
    }

type lin =
  | Tids of Lineage.Tid.t array  (** row [i]'s lineage is [Var tids.(i)] *)
  | Forms of Lineage.Formula.t array  (** merged formulas after dedup *)

type t = {
  schema : Schema.t;
  nrows : int;  (** physical rows *)
  cols : col array;
  nulls : Bytes.t array;  (** per column, ['\001'] = NULL, length [nrows] *)
  lin : lin;
  sel : int array option;
      (** selection vector of physical indices, in logical order;
          [None] = all rows *)
}

val of_relation : Relation.t -> t option
(** Columnarize a stored relation (tids and values), or
    [None] when the relation is not exactly representable (an integer
    beyond 2{^53} in an int or real column). *)

val length : t -> int
(** Logical row count (selection vector honoured). *)

val phys : t -> int -> int
(** Physical index of logical row [i]. *)

val lineage : t -> int -> Lineage.Formula.t
(** Lineage formula of logical row [i]. *)

val filter : t -> Bytes.t -> t
(** [filter b mask] keeps the logical rows whose mask byte is [1]
    (three-valued predicate: 0 false, 1 true, 2 unknown) by narrowing
    the selection vector; column data is shared, not copied. *)

val project : t -> Schema.t -> int array -> t
(** [project b schema' idx] remaps columns (shared buffers, no copy);
    callers follow with {!dedup} for set semantics. *)

val dedup : t -> t
(** Duplicate elimination with lineage merge, replicating the row
    engine's {!Eval} semantics exactly: groups keyed by [Tuple.hash]
    bucket plus [Value.equal] equality, first-occurrence output order,
    lineage folded left with [Formula.disj].  Output is a compacted
    batch (no selection vector) carrying [Forms] lineage. *)

val limit : t -> int -> t
(** First [n] logical rows. *)

val with_schema : t -> Schema.t -> t
(** Replace the schema (RENAME changes names only, never data). *)

val value : t -> int -> int -> Value.t
(** [value b c p] is column [c] at {e physical} row [p], boxed. *)

val to_rows : t -> Eval.row list
(** The batch↔row bridge: materialize logical rows in order, each tuple
    paired with its lineage formula — bit-identical to what the row
    engine would have produced for the same pipeline. *)
