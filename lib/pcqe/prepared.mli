(** Prepared queries: the principal-independent front of the pipeline,
    compiled once and reused.

    Everything up to (and including) lineage-carrying evaluation depends
    only on the query text, the view store, and the database contents —
    never on the requesting principal or the current confidence vector.
    A [Prepared.t] captures that prefix: parse → view expansion →
    rewrite, stamped with the epochs it was compiled against
    ({!Relational.Database.structural_epoch},
    {!Relational.Views.epoch}), plus a one-slot cache of the evaluated
    annotated result keyed by structural epoch.

    Validity is stamp {e equality}: any schema/tuple mutation or any
    view (re)definition yields fresh stamps and silently retires the
    prepared query (see {!Plan_cache}).  Confidence-only mutations leave
    both stamps unchanged — plans and evaluated lineage stay valid, only
    the per-formula confidences must be refreshed ({!Conf_cache}). *)

type t

val compile :
  ?obs:Obs.t ->
  db:Relational.Database.t ->
  views:Relational.Views.t ->
  Query.t ->
  (t, string) result
(** Parse (when SQL), expand views, rewrite.  With [obs] set, records the
    same ["parse/plan"], ["view-expand"] and ["rewrite"] spans the
    one-shot engine path records — a cold prepare is byte-identical work
    to a cold answer's front end. *)

val key_of_query : Query.t -> string
(** The plan-cache key: the SQL text, or the rendered plan. *)

val key : t -> string
val plan : t -> Relational.Algebra.t
(** The view-expanded, rewritten plan. *)

val base_relations : t -> string list
(** Base relations of the final plan — what RBAC checks per principal. *)

val safe : t -> bool
(** The {!Relational.Safe_plan} verdict for the compiled plan, decided
    once at prepare time: [true] means every result row provably carries
    read-once lineage, so {!eval_conf} can compute confidences inline. *)

val structural_epoch : t -> int

val structural_vector : t -> int array
(** The per-shard structural epoch vector pinned at compile time
    ({!Relational.Database.structural_vector}).  Validity and the
    evaluation memo key on this composite stamp, not the scalar: a
    shard re-partition retires the entry even though contents (and the
    scalar epoch) never moved, while an insert into one shard retires
    it through that shard's slot alone. *)

val views_epoch : t -> int

val valid : t -> db:Relational.Database.t -> views:Relational.Views.t -> bool
(** [true] iff the structural vector and the views stamp still match —
    the plan (and any cached evaluation) may be reused against this
    database and view store. *)

val eval :
  ?obs:Obs.t ->
  ?pool:Exec.Pool.t ->
  t ->
  db:Relational.Database.t ->
  (Relational.Eval.annotated, string) result
(** Evaluate the plan through the sharded scatter/gather engine
    ({!Relational.Sharded}), reusing the cached annotated result when
    the database's structural vector still matches (counted as
    [serving.eval_reused]).  The cache holds one vector: a structural
    mutation re-evaluates and replaces it.  [pool] parallelizes the
    per-shard scatter (and columnar mask filling); results are
    independent of the jobs count. *)

val eval_conf :
  ?obs:Obs.t ->
  ?pool:Exec.Pool.t ->
  t ->
  db:Relational.Database.t ->
  (Relational.Eval.annotated * float array option, string) result
(** {!eval} plus the safe-plan confidence fast path: when {!safe} and
    {!Lineage.Circuit.enabled}, also returns per-row confidences
    (index-aligned with the result rows), each one linear read-once pass
    over the row's lineage under [db]'s own confidence table — bitwise
    what the degradation ladder would report for the same rows.  This is
    the only place safe-plan confidences are computed.  They are
    memoized per (structural vector, confidence vector) pair, so a
    confidence-only mutation or a replaced base relation reprices them
    and concurrent callers on different snapshots each get their own
    snapshot's values.  [None] means the plan is not safe (or the fast
    path is off) and the caller must price the ladder/cache path as
    before. *)
