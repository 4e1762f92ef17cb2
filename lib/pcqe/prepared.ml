module Db = Relational.Database

type t = {
  key : string;
  plan : Relational.Algebra.t;
  base_relations : string list;
  safe : bool;
      (* Safe_plan verdict, decided once at compile time: the plan is
         static, so safety is a property of the prepared entry *)
  structural_epoch : int;
  structural_vector : int array;
      (* composite per-shard stamp: validity is vector equality, so a
         re-partition (same contents, new shard layout) retires the
         entry even though the scalar epoch never moved *)
  views_epoch : int;
  mutable evaluated : (int array * Relational.Eval.annotated) option;
  mutable confs : (int array * int array * float array) option;
      (* safe-plan confidences, keyed by the structural and confidence
         vectors they were computed under: [add_relation] moves only the
         structural vector, so the confidence vector alone would serve
         stale values for new rows *)
}

let ( let* ) = Result.bind
let key_of_query = Query.to_string
let key t = t.key
let plan t = t.plan
let base_relations t = t.base_relations
let safe t = t.safe
let structural_epoch t = t.structural_epoch
let structural_vector t = t.structural_vector
let views_epoch t = t.views_epoch

let compile ?obs ~db ~views query =
  let* plan = Obs.span obs "parse/plan" (fun () -> Query.to_plan query) in
  let plan =
    Obs.span obs "view-expand" (fun () -> Relational.Views.expand views plan)
  in
  let* plan =
    Obs.span obs "rewrite" (fun () -> Relational.Rewrite.optimize db plan)
  in
  Ok
    {
      key = key_of_query query;
      plan;
      base_relations = Relational.Algebra.base_relations plan;
      safe = Relational.Safe_plan.analyze plan;
      structural_epoch = Db.structural_epoch db;
      structural_vector = Db.structural_vector db;
      views_epoch = Relational.Views.epoch views;
      evaluated = None;
      confs = None;
    }

let valid t ~db ~views =
  t.structural_vector = Db.structural_vector db
  && t.views_epoch = Relational.Views.epoch views

let eval ?obs ?pool t ~db =
  match t.evaluated with
  | Some (vec, res) when vec = Db.structural_vector db ->
    Obs.incr obs "serving.eval_reused";
    Ok res
  | _ ->
    (* sharded scatter/gather over the hybrid evaluator: vectorizable
       fragments run columnar per shard, the rest falls back to the row
       engine (bit-identical results on every path) *)
    let* res = Relational.Sharded.run ?pool db t.plan in
    t.evaluated <- Some (Db.structural_vector db, res);
    Ok res

(* [eval] plus safe-plan confidences: one linear read-once pass per row
   under the caller's own [db], memoized per (structural, confidence)
   vector pair.  The memo is one immutable triple swapped whole, so a
   concurrent caller on another snapshot can never hand this one its
   values.  [None] confidences mean the caller runs the ladder. *)
let eval_conf ?obs ?pool t ~db =
  let* res = eval ?obs ?pool t ~db in
  if not (t.safe && Lineage.Circuit.enabled ()) then Ok (res, None)
  else
    let sv = Db.structural_vector db and cv = Db.confidence_vector db in
    match t.confs with
    | Some (svec, cvec, confs) when svec = sv && cvec = cv ->
      Ok (res, Some confs)
    | _ ->
      let confs =
        Array.of_list
          (List.map (Relational.Eval.confidence db) res.Relational.Eval.rows)
      in
      t.confs <- Some (sv, cv, confs);
      Ok (res, Some confs)
