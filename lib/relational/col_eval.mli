(** Vectorized (batch-at-a-time) plan evaluation over {!Colbatch}.

    The hybrid evaluator: plan subtrees made of vectorizable operators —
    [Scan], [Select] with a compilable predicate, [Project], [Distinct],
    [Limit], [Rename] — run as column kernels over cached scan batches;
    everything else (joins, set operations, aggregation, subqueries,
    ordering) falls back to the row engine through {!Eval.run_rows_via},
    which evaluates one operator and delegates children back here.  Both
    engines therefore share one set of operator semantics, and results
    are bit-identical by construction plus the compiler's conservatism:

    - a predicate is compiled only when {e no} row could make the row
      engine fail (comparisons are same-class with columns resolved,
      LIKE is over a string column, …) — anything that could raise a
      type error is declined so the fallback reproduces the exact error;
    - integer values beyond 2{^53} make {!Colbatch.of_relation} decline
      the whole relation, keeping exact [Int.compare] semantics in the
      float comparison domain;
    - three-valued logic uses byte masks (0 false / 1 true / 2 unknown),
      and selection keeps definitely-true rows only, as in SQL WHERE.

    Mask filling is chunked over an {!Exec.Pool} when one is supplied
    (disjoint row ranges, so results are independent of the jobs count).

    Scan batches are cached per relation name, keyed by the database's
    structural epoch, in a small process-global table.  A batch holds
    lineage and values only — both confidence-independent — so
    confidence updates neither invalidate nor touch it, and a cached
    batch is never written after it is built.  Confidences are priced
    from the caller's own database downstream ({!Eval.confidence},
    [Prepared.eval_conf], the confidence cache). *)

val vectorizes : Database.t -> Algebra.t -> bool
(** [vectorizes db plan] is [true] when the {e whole} plan compiles to
    column kernels (no row-engine fallback at the root). *)

val run :
  ?pool:Exec.Pool.t ->
  Database.t ->
  Algebra.t ->
  (Eval.annotated, string) result
(** Drop-in replacement for {!Eval.run}: same results, same errors.
    [pool] parallelizes predicate mask filling over row chunks. *)

val run_rows :
  ?pool:Exec.Pool.t ->
  Database.t ->
  Algebra.t ->
  (Eval.row list, string) result
(** {!run} without the output schema. *)

val scan_batch : Database.t -> string -> Colbatch.t option
(** The cached columnar image of a base relation, or [None] for
    unknown/declined relations.  Used by tests and benchmarks. *)

val clear_cache : unit -> unit
(** Drop all cached scan batches (tests and benchmarks). *)
