(* Vectorized plan evaluation: predicate compiler, scan-batch cache, and
   the hybrid tie with the row engine.  See the interface for the
   bit-identity contract. *)

module A1 = Bigarray.Array1

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Predicate compiler                                                  *)
(* ------------------------------------------------------------------ *)

(* Three-valued byte masks: 0 = false, 1 = true, 2 = unknown. *)
let mfalse = '\000'
let mtrue = '\001'
let munknown = '\002'

(* A compiled predicate node, bound to one batch: a mask plus a filler
   that computes it for a logical row range [lo, hi).  Fillers only
   write disjoint ranges, so chunking over a pool is race-free and
   deterministic. *)
type filler = { mask : Bytes.t; fill : int -> int -> unit }

(* Stage 1 (compile): resolve columns against the child schema and prove
   no row can make the row engine fail — otherwise decline with [None].
   Stage 2 (bind): given a batch, allocate masks and close over the
   column buffers. *)
type pred = Colbatch.t -> filler

let test_op (op : Expr.cmp) c =
  match op with
  | Expr.Eq -> c = 0
  | Expr.Neq -> c <> 0
  | Expr.Lt -> c < 0
  | Expr.Leq -> c <= 0
  | Expr.Gt -> c > 0
  | Expr.Geq -> c >= 0

let b3 b = if b then mtrue else mfalse

(* Build a filler computing each row's byte independently. *)
let rowwise b f : filler =
  let n = Colbatch.length b in
  let mask = Bytes.create n in
  let fill lo hi =
    for i = lo to hi - 1 do
      Bytes.unsafe_set mask i (f (Colbatch.phys b i))
    done
  in
  { mask; fill }

let const_filler b byte : filler =
  let n = Colbatch.length b in
  let mask = Bytes.create n in
  let fill lo hi = Bytes.fill mask lo (hi - lo) byte in
  { mask; fill }

(* Comparison of column [idx] against a non-null literal. *)
let cmp_col_lit schema op idx (v : Value.t) : pred option =
  let cty = (Schema.column_at schema idx).cty in
  match (cty, v) with
  | Value.TInt, Value.Int k ->
    Some
      (fun b ->
        let nulls = b.Colbatch.nulls.(idx) in
        match b.Colbatch.cols.(idx) with
        | Colbatch.ICol a ->
          rowwise b (fun p ->
              if Bytes.unsafe_get nulls p = '\001' then munknown
              else b3 (test_op op (Int.compare (A1.unsafe_get a p) k)))
        | _ -> assert false)
  | Value.TInt, Value.Float f ->
    Some
      (fun b ->
        let nulls = b.Colbatch.nulls.(idx) in
        match b.Colbatch.cols.(idx) with
        | Colbatch.ICol a ->
          rowwise b (fun p ->
              if Bytes.unsafe_get nulls p = '\001' then munknown
              else
                b3
                  (test_op op
                     (Float.compare (Float.of_int (A1.unsafe_get a p)) f)))
        | _ -> assert false)
  | Value.TFloat, Value.Int k ->
    Some
      (fun b ->
        let nulls = b.Colbatch.nulls.(idx) in
        match b.Colbatch.cols.(idx) with
        | Colbatch.FCol { data; was_int } ->
          let fk = Float.of_int k in
          rowwise b (fun p ->
              if Bytes.unsafe_get nulls p = '\001' then munknown
              else
                let d = A1.unsafe_get data p in
                let c =
                  if Bytes.unsafe_get was_int p = '\001' then
                    Int.compare (Int.of_float d) k
                  else Float.compare d fk
                in
                b3 (test_op op c))
        | _ -> assert false)
  | Value.TFloat, Value.Float f ->
    Some
      (fun b ->
        let nulls = b.Colbatch.nulls.(idx) in
        match b.Colbatch.cols.(idx) with
        | Colbatch.FCol { data; _ } ->
          rowwise b (fun p ->
              if Bytes.unsafe_get nulls p = '\001' then munknown
              else b3 (test_op op (Float.compare (A1.unsafe_get data p) f)))
        | _ -> assert false)
  | Value.TBool, Value.Bool bv ->
    Some
      (fun b ->
        let nulls = b.Colbatch.nulls.(idx) in
        match b.Colbatch.cols.(idx) with
        | Colbatch.BCol bs ->
          rowwise b (fun p ->
              if Bytes.unsafe_get nulls p = '\001' then munknown
              else
                b3
                  (test_op op
                     (Bool.compare (Bytes.unsafe_get bs p = '\001') bv)))
        | _ -> assert false)
  | Value.TString, Value.String s ->
    Some
      (fun b ->
        let nulls = b.Colbatch.nulls.(idx) in
        match b.Colbatch.cols.(idx) with
        | Colbatch.SCol { codes; dict; _ } ->
          (* one comparison per distinct string, then a per-row lookup *)
          let per_code =
            Array.map (fun ds -> b3 (test_op op (String.compare ds s))) dict
          in
          rowwise b (fun p ->
              if Bytes.unsafe_get nulls p = '\001' then munknown
              else per_code.(codes.(p)))
        | _ -> assert false)
  | _ -> None (* cross-class comparison: the row engine errors per row *)

(* Numeric value of row [p] in a numeric column, in the float domain
   (exact: ints are guarded to 2^53 at batch build time). *)
let float_getter (col : Colbatch.col) =
  match col with
  | Colbatch.ICol a -> fun p -> Float.of_int (A1.unsafe_get a p)
  | Colbatch.FCol { data; _ } -> fun p -> A1.unsafe_get data p
  | _ -> assert false

let is_num = function Value.TInt | Value.TFloat -> true | _ -> false

let cmp_col_col schema op ia ib : pred option =
  let ta = (Schema.column_at schema ia).cty in
  let tb = (Schema.column_at schema ib).cty in
  match (ta, tb) with
  | Value.TInt, Value.TInt ->
    Some
      (fun b ->
        let na = b.Colbatch.nulls.(ia) and nb = b.Colbatch.nulls.(ib) in
        match (b.Colbatch.cols.(ia), b.Colbatch.cols.(ib)) with
        | Colbatch.ICol xa, Colbatch.ICol xb ->
          rowwise b (fun p ->
              if
                Bytes.unsafe_get na p = '\001' || Bytes.unsafe_get nb p = '\001'
              then munknown
              else
                b3
                  (test_op op (Int.compare (A1.unsafe_get xa p) (A1.unsafe_get xb p))))
        | _ -> assert false)
  | ta, tb when is_num ta && is_num tb ->
    Some
      (fun b ->
        let na = b.Colbatch.nulls.(ia) and nb = b.Colbatch.nulls.(ib) in
        let ga = float_getter b.Colbatch.cols.(ia) in
        let gb = float_getter b.Colbatch.cols.(ib) in
        rowwise b (fun p ->
            if Bytes.unsafe_get na p = '\001' || Bytes.unsafe_get nb p = '\001'
            then munknown
            else b3 (test_op op (Float.compare (ga p) (gb p)))))
  | Value.TBool, Value.TBool ->
    Some
      (fun b ->
        let na = b.Colbatch.nulls.(ia) and nb = b.Colbatch.nulls.(ib) in
        match (b.Colbatch.cols.(ia), b.Colbatch.cols.(ib)) with
        | Colbatch.BCol ba, Colbatch.BCol bb ->
          rowwise b (fun p ->
              if
                Bytes.unsafe_get na p = '\001' || Bytes.unsafe_get nb p = '\001'
              then munknown
              else
                b3
                  (test_op op
                     (Bool.compare
                        (Bytes.unsafe_get ba p = '\001')
                        (Bytes.unsafe_get bb p = '\001'))))
        | _ -> assert false)
  | Value.TString, Value.TString ->
    Some
      (fun b ->
        let na = b.Colbatch.nulls.(ia) and nb = b.Colbatch.nulls.(ib) in
        match (b.Colbatch.cols.(ia), b.Colbatch.cols.(ib)) with
        | Colbatch.SCol sa, Colbatch.SCol sb ->
          rowwise b (fun p ->
              if
                Bytes.unsafe_get na p = '\001' || Bytes.unsafe_get nb p = '\001'
              then munknown
              else
                b3
                  (test_op op
                     (String.compare sa.dict.(sa.codes.(p)) sb.dict.(sb.codes.(p)))))
        | _ -> assert false)
  | _ -> None

(* IN-list membership per column class, replicating [Value.equal]:
   numeric Int/Float cross-matches, everything else same-constructor. *)
let in_col schema idx (vs : Value.t list) : pred option =
  let cty = (Schema.column_at schema idx).cty in
  let ints = List.filter_map (function Value.Int k -> Some k | _ -> None) vs in
  let floats =
    List.filter_map (function Value.Float f -> Some f | _ -> None) vs
  in
  let bools = List.filter_map (function Value.Bool b -> Some b | _ -> None) vs in
  let strs =
    List.filter_map (function Value.String s -> Some s | _ -> None) vs
  in
  match cty with
  | Value.TInt ->
    Some
      (fun b ->
        let nulls = b.Colbatch.nulls.(idx) in
        match b.Colbatch.cols.(idx) with
        | Colbatch.ICol a ->
          rowwise b (fun p ->
              if Bytes.unsafe_get nulls p = '\001' then munknown
              else
                let x = A1.unsafe_get a p in
                b3
                  (List.exists (fun k -> k = x) ints
                  || List.exists
                       (fun f -> Float.compare (Float.of_int x) f = 0)
                       floats))
        | _ -> assert false)
  | Value.TFloat ->
    Some
      (fun b ->
        let nulls = b.Colbatch.nulls.(idx) in
        match b.Colbatch.cols.(idx) with
        | Colbatch.FCol { data; was_int } ->
          rowwise b (fun p ->
              if Bytes.unsafe_get nulls p = '\001' then munknown
              else
                let d = A1.unsafe_get data p in
                let hit =
                  if Bytes.unsafe_get was_int p = '\001' then
                    let i = Int.of_float d in
                    List.exists (fun k -> k = i) ints
                    || List.exists (fun f -> Float.compare d f = 0) floats
                  else
                    List.exists
                      (fun k -> Float.compare d (Float.of_int k) = 0)
                      ints
                    || List.exists (fun f -> Float.compare d f = 0) floats
                in
                b3 hit)
        | _ -> assert false)
  | Value.TBool ->
    Some
      (fun b ->
        let nulls = b.Colbatch.nulls.(idx) in
        match b.Colbatch.cols.(idx) with
        | Colbatch.BCol bs ->
          rowwise b (fun p ->
              if Bytes.unsafe_get nulls p = '\001' then munknown
              else
                b3 (List.exists (fun bv -> bv = (Bytes.unsafe_get bs p = '\001')) bools))
        | _ -> assert false)
  | Value.TString ->
    Some
      (fun b ->
        let nulls = b.Colbatch.nulls.(idx) in
        match b.Colbatch.cols.(idx) with
        | Colbatch.SCol { codes; dict; _ } ->
          let per_code =
            Array.map (fun ds -> b3 (List.exists (String.equal ds) strs)) dict
          in
          rowwise b (fun p ->
              if Bytes.unsafe_get nulls p = '\001' then munknown
              else per_code.(codes.(p)))
        | _ -> assert false)

let resolve schema name =
  match Schema.find_index schema name with Ok i -> Some i | Error _ -> None

(* Combine two fillers pointwise with [f] (SQL three-valued AND/OR). *)
let combine2 b pa pb f : filler =
  let fa = pa b and fb = pb b in
  let n = Colbatch.length b in
  let mask = Bytes.create n in
  let fill lo hi =
    fa.fill lo hi;
    fb.fill lo hi;
    for i = lo to hi - 1 do
      Bytes.unsafe_set mask i
        (f (Bytes.unsafe_get fa.mask i) (Bytes.unsafe_get fb.mask i))
    done
  in
  { mask; fill }

let and3 x y =
  if x = mfalse || y = mfalse then mfalse
  else if x = mtrue && y = mtrue then mtrue
  else munknown

let or3 x y =
  if x = mtrue || y = mtrue then mtrue
  else if x = mfalse && y = mfalse then mfalse
  else munknown

let not3 x = if x = munknown then munknown else if x = mtrue then mfalse else mtrue

let rec compile schema (e : Expr.t) : pred option =
  match e with
  | Expr.Lit (Value.Bool bv) -> Some (fun b -> const_filler b (b3 bv))
  | Expr.Lit Value.Null -> Some (fun b -> const_filler b munknown)
  | Expr.Lit _ -> None (* non-boolean literal: the row engine errors *)
  | Expr.Col name -> (
    match resolve schema name with
    | None -> None
    | Some idx -> (
      match (Schema.column_at schema idx).cty with
      | Value.TBool ->
        Some
          (fun b ->
            let nulls = b.Colbatch.nulls.(idx) in
            match b.Colbatch.cols.(idx) with
            | Colbatch.BCol bs ->
              rowwise b (fun p ->
                  if Bytes.unsafe_get nulls p = '\001' then munknown
                  else if Bytes.unsafe_get bs p = '\001' then mtrue
                  else mfalse)
            | _ -> assert false)
      | _ -> None))
  | Expr.Cmp (_, Expr.Lit Value.Null, _) | Expr.Cmp (_, _, Expr.Lit Value.Null)
    ->
    (* NULL on either side of a comparison is unknown before any type
       check, for every row *)
    Some (fun b -> const_filler b munknown)
  | Expr.Cmp (op, Expr.Col name, Expr.Lit v) ->
    Option.bind (resolve schema name) (fun idx -> cmp_col_lit schema op idx v)
  | Expr.Cmp (op, Expr.Lit v, Expr.Col name) ->
    (* mirror the comparison: sign(lit, col) = -sign(col, lit) *)
    let mirror =
      match op with
      | Expr.Eq -> Expr.Eq
      | Expr.Neq -> Expr.Neq
      | Expr.Lt -> Expr.Gt
      | Expr.Leq -> Expr.Geq
      | Expr.Gt -> Expr.Lt
      | Expr.Geq -> Expr.Leq
    in
    Option.bind (resolve schema name) (fun idx ->
        cmp_col_lit schema mirror idx v)
  | Expr.Cmp (op, Expr.Col a, Expr.Col b) ->
    Option.bind (resolve schema a) (fun ia ->
        Option.bind (resolve schema b) (fun ib -> cmp_col_col schema op ia ib))
  | Expr.Cmp (op, Expr.Lit va, Expr.Lit vb) ->
    (* both sides constant and non-null here (null caught above); only
       same-class comparisons avoid the row engine's rank error *)
    let cls v =
      match Value.type_of v with
      | Some (Value.TInt | Value.TFloat) -> `Num
      | Some Value.TBool -> `Bool
      | Some Value.TString -> `Str
      | None -> `Null
    in
    if cls va = cls vb && cls va <> `Null then
      let byte = b3 (test_op op (Value.compare va vb)) in
      Some (fun b -> const_filler b byte)
    else None
  | Expr.Cmp _ -> None
  | Expr.And (a, b) ->
    Option.bind (compile schema a) (fun pa ->
        Option.map
          (fun pb -> fun batch -> combine2 batch pa pb and3)
          (compile schema b))
  | Expr.Or (a, b) ->
    Option.bind (compile schema a) (fun pa ->
        Option.map
          (fun pb -> fun batch -> combine2 batch pa pb or3)
          (compile schema b))
  | Expr.Not a ->
    Option.map
      (fun pa ->
        fun batch ->
         let fa = pa batch in
         let n = Colbatch.length batch in
         let mask = Bytes.create n in
         let fill lo hi =
           fa.fill lo hi;
           for i = lo to hi - 1 do
             Bytes.unsafe_set mask i (not3 (Bytes.unsafe_get fa.mask i))
           done
         in
         { mask; fill })
      (compile schema a)
  | Expr.Between (a, lo, hi) ->
    (* same expansion as the row engine *)
    compile schema (Expr.And (Expr.Cmp (Expr.Geq, a, lo), Expr.Cmp (Expr.Leq, a, hi)))
  | Expr.IsNull (Expr.Col name) ->
    Option.map
      (fun idx ->
        fun b ->
         let nulls = b.Colbatch.nulls.(idx) in
         rowwise b (fun p ->
             if Bytes.unsafe_get nulls p = '\001' then mtrue else mfalse))
      (resolve schema name)
  | Expr.IsNotNull (Expr.Col name) ->
    Option.map
      (fun idx ->
        fun b ->
         let nulls = b.Colbatch.nulls.(idx) in
         rowwise b (fun p ->
             if Bytes.unsafe_get nulls p = '\001' then mfalse else mtrue))
      (resolve schema name)
  | Expr.IsNull (Expr.Lit v) ->
    let byte = b3 (v = Value.Null) in
    Some (fun b -> const_filler b byte)
  | Expr.IsNotNull (Expr.Lit v) ->
    let byte = b3 (v <> Value.Null) in
    Some (fun b -> const_filler b byte)
  | Expr.IsNull _ | Expr.IsNotNull _ -> None
  | Expr.Like (Expr.Col name, pattern) -> (
    match resolve schema name with
    | None -> None
    | Some idx -> (
      match (Schema.column_at schema idx).cty with
      | Value.TString ->
        Some
          (fun b ->
            let nulls = b.Colbatch.nulls.(idx) in
            match b.Colbatch.cols.(idx) with
            | Colbatch.SCol { codes; dict; _ } ->
              (* one LIKE match per distinct string *)
              let per_code =
                Array.map (fun s -> b3 (Expr.like_match ~pattern s)) dict
              in
              rowwise b (fun p ->
                  if Bytes.unsafe_get nulls p = '\001' then munknown
                  else per_code.(codes.(p)))
            | _ -> assert false)
      | _ -> None))
  | Expr.Like _ -> None
  | Expr.In (Expr.Col name, vs) ->
    Option.bind (resolve schema name) (fun idx -> in_col schema idx vs)
  | Expr.In (Expr.Lit v, vs) ->
    let byte =
      if v = Value.Null then munknown
      else b3 (List.exists (Value.equal v) vs)
    in
    Some (fun b -> const_filler b byte)
  | Expr.In _ -> None
  | Expr.Arith _ | Expr.Neg _ -> None

(* ------------------------------------------------------------------ *)
(* Mask evaluation (optionally pool-chunked)                           *)
(* ------------------------------------------------------------------ *)

let parallel_threshold = 8192

let eval_mask (p : pred) b pool =
  let f = p b in
  let n = Colbatch.length b in
  (match pool with
  | Some pl when n >= parallel_threshold && Exec.Pool.jobs pl > 1 ->
    let chunks = Exec.Pool.jobs pl * 4 in
    let per = (n + chunks - 1) / chunks in
    Exec.Pool.run_chunks pl ~chunks (fun ci ->
        let lo = ci * per in
        let hi = min n (lo + per) in
        if lo < hi then f.fill lo hi)
  | _ -> f.fill 0 n);
  f.mask

(* ------------------------------------------------------------------ *)
(* Scan-batch cache                                                    *)
(* ------------------------------------------------------------------ *)

(* Keyed by (relation name, structural epoch): per-shard views of the
   same relation carry distinct shard-structural stamps, so each shard's
   batch gets its own slot instead of evicting the others on every
   alternation.  Stamps are process-globally unique, so a key can never
   alias a different row set.  [None] records a declined relation. *)
let cache : (string * int, Colbatch.t option) Hashtbl.t = Hashtbl.create 16
let cache_mutex = Mutex.create ()
let cache_capacity = 64

let clear_cache () =
  Mutex.protect cache_mutex (fun () -> Hashtbl.reset cache)

let cached_batch db r =
  let key = (Relation.name r, Database.structural_epoch db) in
  Mutex.protect cache_mutex (fun () ->
      match Hashtbl.find_opt cache key with
      | Some batch -> batch
      | None ->
        if Hashtbl.length cache >= cache_capacity then Hashtbl.reset cache;
        let batch = Colbatch.of_relation r in
        Hashtbl.replace cache key batch;
        batch)

let scan_batch db name =
  Option.bind (Database.relation db name) (cached_batch db)

(* ------------------------------------------------------------------ *)
(* Plan compiler and hybrid evaluation                                 *)
(* ------------------------------------------------------------------ *)

type staged = Exec.Pool.t option -> Colbatch.t

let rec compile_plan db (plan : Algebra.t) : staged option =
  match plan with
  | Algebra.Scan name -> Option.map (fun b _ -> b) (scan_batch db name)
  | Algebra.Select (pred, p) -> (
    match compile_plan db p with
    | None -> None
    | Some child -> (
      match Algebra.output_schema db p with
      | Error _ -> None
      | Ok schema -> (
        match compile schema pred with
        | None -> None
        | Some kernel ->
          Some
            (fun pool ->
              let b = child pool in
              Colbatch.filter b (eval_mask kernel b pool)))))
  | Algebra.Project (names, p) -> (
    match compile_plan db p with
    | None -> None
    | Some child -> (
      match Algebra.output_schema db p with
      | Error _ -> None
      | Ok schema -> (
        match Schema.project schema names with
        | Error _ -> None
        | Ok (schema', idx) ->
          Some
            (fun pool ->
              Colbatch.dedup (Colbatch.project (child pool) schema' idx)))))
  | Algebra.Distinct p ->
    Option.map
      (fun child -> fun pool -> Colbatch.dedup (child pool))
      (compile_plan db p)
  | Algebra.Limit (n, p) when n >= 0 ->
    Option.map
      (fun child -> fun pool -> Colbatch.limit (child pool) n)
      (compile_plan db p)
  | Algebra.Rename (_, p) -> (
    match compile_plan db p with
    | None -> None
    | Some child -> (
      match Algebra.output_schema db plan with
      | Error _ | (exception Invalid_argument _) -> None
      | Ok schema ->
        Some (fun pool -> Colbatch.with_schema (child pool) schema)))
  | _ -> None

let vectorizes db plan = Option.is_some (compile_plan db plan)

let run_rows ?pool db plan =
  let rec hybrid db plan =
    match compile_plan db plan with
    | Some exec -> Ok (Colbatch.to_rows (exec pool))
    | None -> Eval.run_rows_via hybrid db plan
  in
  hybrid db plan

let run ?pool db plan =
  let* schema = Algebra.output_schema db plan in
  let* rows = run_rows ?pool db plan in
  Ok { Eval.schema; rows }
