(* Scatter/gather execution over a sharded database.  See the interface
   for the transparency contract; the short version: this module may only
   ever change *where* rows are evaluated, never what comes back. *)

let ( let* ) = Result.bind

(* The scatterable fragment grammar: a base-relation scan, optionally
   under a chain of predicate selections.  Both operators are row-local —
   each output row depends on exactly one stored row — so evaluating the
   fragment per shard and merging by row id reproduces the global result
   verbatim.  Project/Distinct (duplicate elimination splices lineage
   across rows in first-occurrence order), joins, set operations and
   aggregation all need the global row stream and stay above the gather.

   A scan of an unknown relation is not scatterable: the row engine's
   error message must come from the unsharded path. *)
let rec scatterable db plan =
  match plan with
  | Algebra.Scan name -> Database.mem_relation db name
  | Algebra.Select (_, p) -> scatterable db p
  | _ -> false

(* Rows of a scatterable fragment carry [Var tid] lineage (scans stamp
   it, selections preserve it), so the gather key is right in the row. *)
let row_id (r : Eval.row) =
  match r.Eval.lineage with
  | Lineage.Formula.Var tid -> tid.Lineage.Tid.row
  | _ -> assert false (* unreachable by the fragment grammar *)

(* K-way merge of per-shard row lists, each ascending in row id (shard
   views preserve global insertion order, and row ids are assigned
   monotonically), back into the global insertion order. *)
let merge (lists : Eval.row list array) =
  let heads = Array.map (fun l -> l) lists in
  let out = ref [] in
  let running = ref true in
  while !running do
    let best = ref (-1) in
    let best_row = ref max_int in
    Array.iteri
      (fun i l ->
        match l with
        | r :: _ when row_id r < !best_row ->
          best := i;
          best_row := row_id r
        | _ -> ())
      heads;
    match !best with
    | -1 -> running := false
    | i -> (
      match heads.(i) with
      | r :: rest ->
        out := r :: !out;
        heads.(i) <- rest
      | [] -> assert false)
  done;
  List.rev !out

(* Evaluate a scatterable fragment: one task per shard view (over the
   pool when one is supplied — per-shard results are independent, so the
   jobs count cannot change the merged output), then gather.  Each
   per-shard evaluation goes through {!Col_eval.run_rows}, so the
   columnar kernels serve sharded scans exactly as unsharded ones.

   If any shard fails, the fragment is re-run unsharded: the row engine
   reports the first failing row in global row order, which no single
   shard can determine locally. *)
let scatter ?pool db plan =
  let views = Array.init (Database.shard_count db) (Database.shard_view db) in
  let results =
    match pool with
    | Some p when Exec.Pool.jobs p > 1 ->
      Exec.Pool.map_array ~chunk:1 p
        (fun view -> Col_eval.run_rows view plan)
        views
    | _ -> Array.map (fun view -> Col_eval.run_rows view plan) views
  in
  if Array.exists Result.is_error results then Col_eval.run_rows db plan
  else Ok (merge (Array.map Result.get_ok results))

let run_rows ?pool db plan =
  if Database.shard_count db <= 1 then Col_eval.run_rows ?pool db plan
  else
    let rec drive db plan =
      if scatterable db plan then scatter ?pool db plan
      else Eval.run_rows_via drive db plan
    in
    drive db plan

let run ?pool db plan =
  let* schema = Algebra.output_schema db plan in
  let* rows = run_rows ?pool db plan in
  Ok { Eval.schema; rows }
