(* Columnar engine identity: for random schemas, data, confidences and
   scan/filter/project pipelines, the vectorized evaluator must produce
   results bit-identical to the row engine — same tuples (constructors
   included), same order, structurally identical lineage — at every jobs
   level, and the same errors when evaluation fails.  Parallel bulk CSV
   ingest must likewise be indistinguishable from the sequential loader. *)

module V = Relational.Value
module S = Relational.Schema
module R = Relational.Relation
module Db = Relational.Database
module A = Relational.Algebra
module Ex = Relational.Expr
module Eval = Relational.Eval
module Col = Relational.Col_eval
module Sm = Prng.Splitmix
module F = Lineage.Formula

let ok = function Ok x -> x | Error m -> Alcotest.failf "unexpected: %s" m

(* ---------------- random generation ---------------- *)

let types = [| V.TInt; V.TFloat; V.TBool; V.TString |]

let random_schema rng =
  let n = Sm.int_in rng 1 4 in
  S.of_list (List.init n (fun i -> (Printf.sprintf "c%d" i, Sm.choice rng types)))

let string_pool = [| "a"; "b"; "ab"; "a,b"; "x\"y"; ""; "abc"; "%a_" |]

let random_value rng huge ty =
  if Sm.coin rng 0.15 then V.Null
  else
    match ty with
    | V.TInt ->
      if huge && Sm.coin rng 0.1 then V.Int ((1 lsl 60) + Sm.int_in rng 0 5)
      else V.Int (Sm.int_in rng (-4) 4)
    | V.TFloat ->
      if Sm.coin rng 0.4 then V.Int (Sm.int_in rng (-3) 3)
      else if Sm.coin rng 0.15 then V.Float (if Sm.bool rng then 0.0 else -0.0)
      else V.Float (Float.of_int (Sm.int_in rng (-3) 3) /. 2.0)
    | V.TBool -> V.Bool (Sm.bool rng)
    | V.TString -> V.String (Sm.choice rng string_pool)

let random_db rng ~huge =
  let schema = random_schema rng in
  let nrows = Sm.int_in rng 0 40 in
  let r = R.create "r" schema in
  let db = Db.add_relation Db.empty r in
  let cols = S.columns schema in
  let rec fill db i =
    if i = 0 then db
    else
      let vs = List.map (fun c -> random_value rng huge c.S.cty) cols in
      let conf = Sm.float_in rng 0.0 1.0 in
      fill (fst (Db.insert db "r" vs ~conf)) (i - 1)
  in
  (fill db nrows, schema)

let random_col rng schema = Ex.col (Sm.choice rng (Array.of_list (S.column_names schema)))

let random_lit rng =
  Ex.Lit (random_value rng false (Sm.choice rng types))

let random_operand rng schema =
  if Sm.coin rng 0.7 then random_col rng schema else random_lit rng

let cmps = [| Ex.Eq; Ex.Neq; Ex.Lt; Ex.Leq; Ex.Gt; Ex.Geq |]

(* Random predicate: mostly vectorizable shapes, sometimes type-mismatched
   or non-vectorizable ones, so both the columnar kernels and the
   decline-to-row-engine path (including error identity) are exercised. *)
let rec random_pred rng schema depth =
  let leaf () =
    match Sm.int_in rng 0 6 with
    | 0 | 1 ->
      Ex.Cmp (Sm.choice rng cmps, random_operand rng schema, random_operand rng schema)
    | 2 -> Ex.IsNull (random_col rng schema)
    | 3 -> Ex.IsNotNull (random_col rng schema)
    | 4 ->
      Ex.In
        ( random_col rng schema,
          List.init (Sm.int_in rng 0 3) (fun _ ->
              random_value rng false (Sm.choice rng types)) )
    | 5 -> Ex.Like (random_col rng schema, Sm.choice rng [| "a%"; "%b"; "_"; "%" |])
    | _ ->
      Ex.Between
        (random_col rng schema, random_lit rng, random_lit rng)
  in
  if depth = 0 || Sm.coin rng 0.5 then leaf ()
  else
    match Sm.int_in rng 0 2 with
    | 0 -> Ex.And (random_pred rng schema (depth - 1), random_pred rng schema (depth - 1))
    | 1 -> Ex.Or (random_pred rng schema (depth - 1), random_pred rng schema (depth - 1))
    | _ -> Ex.Not (random_pred rng schema (depth - 1))

let random_plan rng schema =
  let rec wrap plan schema n =
    if n = 0 then plan
    else
      let plan, schema =
        match Sm.int_in rng 0 4 with
        | 0 -> (A.Select (random_pred rng schema 2, plan), schema)
        | 1 ->
          let names = S.column_names schema in
          let keep = List.filter (fun _ -> Sm.coin rng 0.7) names in
          let keep = if keep = [] then [ List.hd names ] else keep in
          let schema' =
            match S.project schema keep with
            | Ok (s, _) -> s
            | Error _ -> schema
          in
          (A.Project (keep, plan), schema')
        | 2 -> (A.Distinct plan, schema)
        | 3 -> (A.Limit (Sm.int_in rng 0 20, plan), schema)
        | _ -> (A.Rename ("t", plan), S.qualify "t" schema)
      in
      wrap plan schema (n - 1)
  in
  wrap (A.Scan "r") (S.qualify "r" schema) (Sm.int_in rng 0 4)

(* ---------------- bit-identity comparison ---------------- *)

(* constructor-strict value equality: Int 1 and Float 1. are different,
   NaN equals NaN (the row engine's dedup follows Float.compare) *)
let value_ident (a : V.t) (b : V.t) =
  match (a, b) with
  | V.Null, V.Null -> true
  | V.Bool x, V.Bool y -> x = y
  | V.Int x, V.Int y -> x = y
  | V.Float x, V.Float y -> Float.compare x y = 0
  | V.String x, V.String y -> String.equal x y
  | _ -> false

let row_ident (a : Eval.row) (b : Eval.row) =
  let va = Relational.Tuple.values a.tuple
  and vb = Relational.Tuple.values b.tuple in
  Array.length va = Array.length vb
  && Array.for_all2 value_ident va vb
  && F.equal a.lineage b.lineage

let result_ident a b =
  match (a, b) with
  | Ok (ra : Eval.annotated), Ok (rb : Eval.annotated) ->
    S.equal ra.Eval.schema rb.Eval.schema
    && List.length ra.Eval.rows = List.length rb.Eval.rows
    && List.for_all2 row_ident ra.Eval.rows rb.Eval.rows
  | Error ea, Error eb -> String.equal ea eb
  | _ -> false

(* ---------------- properties ---------------- *)

let qcheck_pipeline_identity =
  QCheck.Test.make ~name:"columnar == row engine at jobs 1/2/4" ~count:400
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Sm.of_int seed in
      let db, schema = random_db rng ~huge:(Sm.coin rng 0.15) in
      let plan = random_plan rng schema in
      let expected = Eval.run db plan in
      List.for_all
        (fun jobs ->
          let got =
            if jobs = 1 then Col.run db plan
            else
              Exec.Pool.with_pool ~jobs (fun pool -> Col.run ~pool db plan)
          in
          result_ident expected got)
        [ 1; 2; 4 ])

let qcheck_decline_on_huge_ints =
  QCheck.Test.make ~name:"ints beyond 2^53 decline but stay identical"
    ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Sm.of_int seed in
      let db, schema = random_db rng ~huge:true in
      let plan = A.Select (random_pred rng schema 1, A.Scan "r") in
      ignore schema;
      result_ident (Eval.run db plan) (Col.run db plan))

(* ---------------- bulk ingest identity ---------------- *)

let random_csv rng =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "s:string,n:int,x:real,__confidence:real\n";
  let nrows = Sm.int_in rng 0 60 in
  let bad = Sm.coin rng 0.2 in
  let bad_at = if bad then Sm.int_in rng 0 (max 0 (nrows - 1)) else -1 in
  for i = 0 to nrows - 1 do
    if Sm.coin rng 0.1 then Buffer.add_string buf "  \n";
    if i = bad_at then
      Buffer.add_string buf
        (Sm.choice rng [| "x,notint,0.5,0.5\n"; "only,two\n"; "a,1,0.5,1.5\n" |])
    else
      Buffer.add_string buf
        (Printf.sprintf "%s,%d,%g,%g\n"
           (Relational.Csv.render_line [ Sm.choice rng string_pool ])
           (Sm.int_in rng (-5) 5)
           (Sm.float_in rng (-2.0) 2.0)
           (Sm.float_in rng 0.0 1.0))
  done;
  Buffer.contents buf

let relation_ident db1 db2 name =
  let r1 = Db.relation_exn db1 name and r2 = Db.relation_exn db2 name in
  let t1 = R.tuples r1 and t2 = R.tuples r2 in
  S.equal (R.schema r1) (R.schema r2)
  && List.length t1 = List.length t2
  && List.for_all2
       (fun (tid1, tup1) (tid2, tup2) ->
         Lineage.Tid.equal tid1 tid2
         && Array.for_all2 value_ident
              (Relational.Tuple.values tup1)
              (Relational.Tuple.values tup2)
         && Float.equal (Db.confidence db1 tid1) (Db.confidence db2 tid2))
       t1 t2

let qcheck_bulk_ingest_identity =
  QCheck.Test.make ~name:"bulk ingest == sequential ingest at jobs 1/2/4"
    ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Sm.of_int seed in
      let text = random_csv rng in
      let seq = Relational.Csv.load_into Db.empty ~name:"r" text in
      List.for_all
        (fun jobs ->
          let bulk =
            Relational.Csv.load_string_bulk Db.empty ~name:"r" ~jobs text
          in
          match (seq, bulk) with
          | Ok db1, Ok db2 -> relation_ident db1 db2 "r"
          | Error e1, Error e2 -> String.equal e1 e2
          | _ -> false)
        [ 1; 2; 4 ])

(* ---------------- top-K selection ---------------- *)

let qcheck_topk_equals_sort =
  QCheck.Test.make ~name:"Topk.by_score == stable sort desc + take k"
    ~count:500
    QCheck.(pair (int_range 0 12) (list (float_range (-5.0) 5.0)))
    (fun (k, xs) ->
      let scored = List.mapi (fun i x -> (i, x)) xs in
      let expected =
        List.stable_sort (fun (_, a) (_, b) -> Float.compare b a) scored
        |> List.filteri (fun i _ -> i < k)
      in
      Topk.by_score ~k snd scored = expected)

(* ---------------- directed cases ---------------- *)

let test_vectorizes () =
  let db = Db.empty in
  let r = R.create "t" (S.of_list [ ("a", V.TInt); ("s", V.TString) ]) in
  let db = Db.add_relation db r in
  let db = fst (Db.insert db "t" [ V.Int 1; V.String "x" ] ~conf:0.9) in
  let db = fst (Db.insert db "t" [ V.Int 9; V.Null ] ~conf:0.4) in
  let plan = A.Select (Ex.(col "a" >% int 2), A.Scan "t") in
  Alcotest.(check bool) "select over scan vectorizes" true (Col.vectorizes db plan);
  let res = ok (Col.run db plan) in
  Alcotest.(check int) "one row" 1 (List.length res.rows);
  (* a relation with an int beyond 2^53 declines wholesale *)
  let db2 = fst (Db.insert db "t" [ V.Int (1 lsl 60); V.String "y" ] ~conf:0.5) in
  Alcotest.(check bool) "huge int declines" false (Col.vectorizes db2 plan);
  Alcotest.(check bool) "declined still identical" true
    (result_ident (Eval.run db2 plan) (Col.run db2 plan))

let test_scan_cache_epochs () =
  let db = Db.add_relation Db.empty (R.create "t" (S.of_list [ ("a", V.TInt) ])) in
  let db = fst (Db.insert db "t" [ V.Int 1 ] ~conf:0.5) in
  let b1 = Option.get (Col.scan_batch db "t") in
  (* confidence mutation: same batch (it holds no confidences) *)
  let tid = Lineage.Tid.make "t" 0 in
  let db = Db.set_confidence db tid 0.8 in
  let b2 = Option.get (Col.scan_batch db "t") in
  Alcotest.(check bool) "batch reused across confidence change" true (b1 == b2);
  (* structural mutation: fresh batch *)
  let db = fst (Db.insert db "t" [ V.Int 2 ] ~conf:0.1) in
  let b3 = Option.get (Col.scan_batch db "t") in
  Alcotest.(check bool) "structural change rebuilds" true (not (b1 == b3));
  Alcotest.(check int) "new row visible" 2 b3.Relational.Colbatch.nrows

let test_bulk_epochs () =
  let text = "a:int,__confidence:real\n1,0.5\n2,0.75\n" in
  let db0 = Db.empty in
  let db = ok (Relational.Csv.load_string_bulk db0 ~name:"r" text) in
  Alcotest.(check (float 0.0)) "conf 0" 0.5 (Db.confidence db (Lineage.Tid.make "r" 0));
  Alcotest.(check (float 0.0)) "conf 1" 0.75 (Db.confidence db (Lineage.Tid.make "r" 1));
  (* the single bulk change-log entry stays truthful: both loaded tuples
     appear in the targeted invalidation set for a cache synced before *)
  (match Db.changed_since db ~since:(Db.confidence_epoch db0) with
  | Some set -> Alcotest.(check int) "both tids logged" 2 (Lineage.Tid.Set.cardinal set)
  | None -> Alcotest.fail "changed_since lost the bulk load")

(* Big enough to cross the bulk chunking threshold, with blank lines
   sprinkled in, so the chunk realignment and prefix-sum numbering run for
   real (jobs comes from PCQE_JOBS=2 in the test environment). *)
let test_bulk_large_chunked () =
  let buf = Buffer.create (1 lsl 18) in
  Buffer.add_string buf "s:string,n:int,__confidence:real\n";
  let n = 8_000 in
  for i = 0 to n - 1 do
    if i mod 97 = 0 then Buffer.add_string buf "\n";
    Buffer.add_string buf (Printf.sprintf "row-%d-padding-padding,%d,%g\n" i i
                             (Float.of_int (i mod 100) /. 100.0))
  done;
  let text = Buffer.contents buf in
  Alcotest.(check bool) "text crosses chunk threshold" true
    (String.length text >= 1 lsl 16);
  let seq = ok (Relational.Csv.load_into Db.empty ~name:"big" text) in
  let bulk = ok (Relational.Csv.load_string_bulk Db.empty ~name:"big" text) in
  Alcotest.(check bool) "large bulk identical" true
    (relation_ident seq bulk "big");
  (* error reporting: corrupt one record mid-file, expect the sequential
     error message verbatim (line numbers skip blank lines) *)
  let corrupt =
    let half = String.length text / 2 in
    let nl = String.index_from text half '\n' in
    String.sub text 0 (nl + 1)
    ^ "oops,notanint,0.5\n"
    ^ String.sub text (nl + 1) (String.length text - nl - 1)
  in
  let e1 =
    match Relational.Csv.load_into Db.empty ~name:"big" corrupt with
    | Error e -> e
    | Ok _ -> Alcotest.fail "sequential load accepted corrupt input"
  in
  let e2 =
    match Relational.Csv.load_string_bulk Db.empty ~name:"big" corrupt with
    | Error e -> e
    | Ok _ -> Alcotest.fail "bulk load accepted corrupt input"
  in
  Alcotest.(check string) "bulk error identical" e1 e2

(* Projection onto a single no-null string column takes the dictionary
   dedup fast path (group by code, lineage built as a direct Or of Vars);
   the same column containing a Null falls back to the generic path.
   Both must match the row engine exactly, and the merged-group lineage
   shape is pinned explicitly so a fast-path regression cannot hide
   behind a symmetric change to the row engine. *)
let test_dedup_dict_fast_path () =
  let mk with_null =
    let r = R.create "t" (S.of_list [ ("g", V.TString); ("n", V.TInt) ]) in
    let db = Db.add_relation Db.empty r in
    let rows = [ ("a", 1); ("b", 2); ("a", 3); ("c", 4); ("b", 5); ("a", 6) ] in
    let db =
      List.fold_left
        (fun db (g, n) ->
          fst
            (Db.insert db "t"
               [ V.String g; V.Int n ]
               ~conf:(0.1 *. Float.of_int n)))
        db rows
    in
    if with_null then fst (Db.insert db "t" [ V.Null; V.Int 7 ] ~conf:0.7)
    else db
  in
  let plan = A.Project ([ "g" ], A.Scan "t") in
  List.iter
    (fun with_null ->
      let db = mk with_null in
      Alcotest.(check bool) "project vectorizes" true (Col.vectorizes db plan);
      Alcotest.(check bool)
        (if with_null then "null column: generic path identical"
         else "no-null column: dict fast path identical")
        true
        (result_ident (Eval.run db plan) (Col.run db plan)))
    [ false; true ];
  let db = mk false in
  let res = ok (Col.run db plan) in
  let tid i = Lineage.Tid.make "t" i in
  let expect =
    [
      F.Or [ F.Var (tid 0); F.Var (tid 2); F.Var (tid 5) ];
      F.Or [ F.Var (tid 1); F.Var (tid 4) ];
      F.Var (tid 3);
    ]
  in
  let got = List.map (fun r -> r.Eval.lineage) res.Eval.rows in
  Alcotest.(check int) "three groups" 3 (List.length got);
  Alcotest.(check bool) "grouped lineage pinned" true
    (List.for_all2 F.equal expect got)

(* ---------------- confidence snapshots sharing one scan batch -------- *)

(* Two confidence snapshots of one structure share the structural epoch,
   hence one cached scan batch.  Principals answering a fully vectorized
   safe select concurrently, one per snapshot, must each be priced from
   their own snapshot: in [x] every row sits at 0.3 and nothing clears
   β = 0.6; in [y] every 8th row below k = 4800 is raised to 0.9, so
   exactly those 600 rows are released. *)

let race_beta = 0.6
let race_iterations = 300
let race_sql = "SELECT * FROM R WHERE k < 5000"

let race_snapshots () =
  let n = 20_000 in
  let schema = S.of_list [ ("k", V.TInt) ] in
  let r =
    R.of_tuples "R" schema
      (List.init n (fun k -> Relational.Tuple.of_list [ V.Int k ]))
  in
  let x = Db.bulk_load Db.empty r (Array.make n 0.3) in
  let y =
    List.fold_left
      (fun db k -> Db.set_confidence db (Lineage.Tid.make "R" k) 0.9)
      x
      (List.init 600 (fun i -> i * 8))
  in
  (x, y)

let race_context db =
  let open Rbac.Core_rbac in
  let m = add_user (add_role empty "analyst") "u" in
  let m = ok (assign_user m ~user:"u" ~role:"analyst") in
  let rbac = ok (grant m ~role:"analyst" { action = "select"; resource = "*" }) in
  let policies =
    Rbac.Policy.of_list
      [ Rbac.Policy.make ~role:"analyst" ~purpose:"p" ~beta:race_beta ]
  in
  Pcqe.Engine.make_context ~jobs:1 ~db ~rbac ~policies ()

(* [race_iterations] cold answers on one snapshot (no serving caches, so
   every answer prepares and evaluates afresh); returns the number of
   answers that released a wrong row or the wrong number of rows. *)
let race_answers db ~expected =
  let ctx = race_context db in
  let request =
    { Pcqe.Engine.query = Pcqe.Query.sql race_sql; user = "u"; purpose = "p";
      perc = 0.0 }
  in
  let wrong = ref 0 in
  for _ = 1 to race_iterations do
    match Pcqe.Engine.answer ctx request with
    | Error _ -> incr wrong
    | Ok resp ->
      let own (row : Pcqe.Engine.released) =
        match row.lineage with
        | F.Var tid ->
          row.confidence = Db.confidence db tid && row.confidence > race_beta
        | _ -> false
      in
      if
        List.length resp.released <> expected
        || not (List.for_all own resp.released)
      then incr wrong
  done;
  !wrong

let check_race ~spawn ~join =
  let x, y = race_snapshots () in
  let plan = A.Select (Ex.(col "k" <% int 5000), A.Scan "R") in
  Alcotest.(check bool) "select vectorizes" true (Col.vectorizes x plan);
  Alcotest.(check bool) "select is safe" true (Relational.Safe_plan.analyze plan);
  Col.clear_cache ();
  let other = spawn (fun () -> race_answers x ~expected:0) in
  let wrong_y = race_answers y ~expected:600 in
  let wrong_x = join other in
  Alcotest.(check int) "snapshot x answers priced from x" 0 wrong_x;
  Alcotest.(check int) "snapshot y answers priced from y" 0 wrong_y

let test_snapshot_race_threads () =
  check_race
    ~spawn:(fun f ->
      let result = ref (-1) in
      let th = Thread.create (fun () -> result := f ()) () in
      (th, result))
    ~join:(fun (th, result) ->
      Thread.join th;
      !result)

let test_snapshot_race_domains () =
  check_race ~spawn:Domain.spawn ~join:Domain.join

let () =
  Alcotest.run "columnar"
    [
      ( "identity",
        [
          QCheck_alcotest.to_alcotest qcheck_pipeline_identity;
          QCheck_alcotest.to_alcotest qcheck_decline_on_huge_ints;
          QCheck_alcotest.to_alcotest qcheck_bulk_ingest_identity;
          QCheck_alcotest.to_alcotest qcheck_topk_equals_sort;
        ] );
      ( "directed",
        [
          ("vectorizes + decline", `Quick, test_vectorizes);
          ("scan cache epochs", `Quick, test_scan_cache_epochs);
          ("bulk ingest epochs", `Quick, test_bulk_epochs);
          ("bulk ingest chunked", `Quick, test_bulk_large_chunked);
          ("dict dedup fast path", `Quick, test_dedup_dict_fast_path);
        ] );
      ( "snapshot",
        [
          ("concurrent snapshots, threads", `Quick, test_snapshot_race_threads);
          ("concurrent snapshots, domains", `Quick, test_snapshot_race_domains);
        ] );
    ]
