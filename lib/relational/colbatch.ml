(* Columnar batches.  See the interface for the layout and the
   bit-identity contract with the row engine. *)

type col =
  | ICol of (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
  | FCol of {
      data : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
      was_int : Bytes.t;
    }
  | BCol of Bytes.t
  | SCol of {
      codes : int array;
      dict : string array;
      boxed : Value.t array;
      hashes : int array;
    }

type lin = Tids of Lineage.Tid.t array | Forms of Lineage.Formula.t array

type t = {
  schema : Schema.t;
  nrows : int;
  cols : col array;
  nulls : Bytes.t array;
  lin : lin;
  sel : int array option;
}

(* Largest magnitude at which every int is exactly a float and float
   comparison coincides with [Int.compare]; beyond it we decline. *)
let max_exact_int = 1 lsl 53

exception Decline

let vtrue = Value.Bool true
let vfalse = Value.Bool false

let length b = match b.sel with Some s -> Array.length s | None -> b.nrows
let phys b i = match b.sel with Some s -> s.(i) | None -> i

let lineage b i =
  let p = phys b i in
  match b.lin with
  | Tids tids -> Lineage.Formula.var tids.(p)
  | Forms fs -> fs.(p)

(* Dictionary builder for string columns: codes in first-occurrence order. *)
module Dict = struct
  type d = {
    table : (string, int) Hashtbl.t;
    mutable rev : string list;
    mutable next : int;
  }

  let create () = { table = Hashtbl.create 64; rev = []; next = 0 }

  let code d s =
    match Hashtbl.find_opt d.table s with
    | Some c -> c
    | None ->
      let c = d.next in
      Hashtbl.add d.table s c;
      d.rev <- s :: d.rev;
      d.next <- c + 1;
      c

  let finish d =
    let dict = Array.of_list (List.rev d.rev) in
    let boxed = Array.map (fun s -> Value.String s) dict in
    let hashes = Array.map Value.hash boxed in
    (dict, boxed, hashes)
end

let of_relation r =
  let schema = Relation.schema r in
  let arity = Schema.arity schema in
  let n = Relation.cardinality r in
  let mk_i () = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  let mk_f () = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  let builders =
    Array.init arity (fun c ->
        match (Schema.column_at schema c).cty with
        | Value.TInt -> `I (mk_i ())
        | Value.TFloat -> `F (mk_f (), Bytes.make n '\000')
        | Value.TBool -> `B (Bytes.make n '\000')
        | Value.TString -> `S (Array.make n 0, Dict.create ()))
  in
  let nulls = Array.init arity (fun _ -> Bytes.make n '\000') in
  let tids = Array.make n (Lineage.Tid.make "" 0) in
  let check_exact v = if v > max_exact_int || v < -max_exact_int then raise Decline in
  let set c i (v : Value.t) =
    match (builders.(c), v) with
    | _, Value.Null ->
      Bytes.unsafe_set nulls.(c) i '\001'
    | `I a, Value.Int x ->
      check_exact x;
      Bigarray.Array1.unsafe_set a i x
    | `F (a, w), Value.Int x ->
      check_exact x;
      Bigarray.Array1.unsafe_set a i (Float.of_int x);
      Bytes.unsafe_set w i '\001'
    | `F (a, _), Value.Float f -> Bigarray.Array1.unsafe_set a i f
    | `B bs, Value.Bool b -> if b then Bytes.unsafe_set bs i '\001'
    | `S (codes, d), Value.String s -> codes.(i) <- Dict.code d s
    | _ -> raise Decline (* non-conforming cell: not representable *)
  in
  match
    let i = ref 0 in
    List.iter
      (fun (tid, tup) ->
        tids.(!i) <- tid;
        for c = 0 to arity - 1 do
          set c !i (Tuple.get tup c)
        done;
        incr i)
      (Relation.tuples r)
  with
  | exception Decline -> None
  | () ->
    let cols =
      Array.map
        (function
          | `I a -> ICol a
          | `F (a, w) -> FCol { data = a; was_int = w }
          | `B bs -> BCol bs
          | `S (codes, d) ->
            let dict, boxed, hashes = Dict.finish d in
            SCol { codes; dict; boxed; hashes })
        builders
    in
    Some { schema; nrows = n; cols; nulls; lin = Tids tids; sel = None }

let filter b mask =
  let n = length b in
  let kept = ref 0 in
  for i = 0 to n - 1 do
    if Bytes.unsafe_get mask i = '\001' then incr kept
  done;
  let sel = Array.make !kept 0 in
  let j = ref 0 in
  for i = 0 to n - 1 do
    if Bytes.unsafe_get mask i = '\001' then begin
      sel.(!j) <- phys b i;
      incr j
    end
  done;
  { b with sel = Some sel }

let project b schema idx =
  {
    b with
    schema;
    cols = Array.map (fun c -> b.cols.(c)) idx;
    nulls = Array.map (fun c -> b.nulls.(c)) idx;
  }

let limit b n =
  let len = length b in
  let n = min n len in
  let sel = Array.init n (fun i -> phys b i) in
  { b with sel = Some sel }

let with_schema b schema = { b with schema }

let value b c p =
  if Bytes.unsafe_get b.nulls.(c) p = '\001' then Value.Null
  else
    match b.cols.(c) with
    | ICol a -> Value.Int (Bigarray.Array1.unsafe_get a p)
    | FCol { data; was_int } ->
      let f = Bigarray.Array1.unsafe_get data p in
      if Bytes.unsafe_get was_int p = '\001' then Value.Int (Int.of_float f)
      else Value.Float f
    | BCol bs -> if Bytes.unsafe_get bs p = '\001' then vtrue else vfalse
    | SCol { codes; boxed; _ } -> boxed.(codes.(p))

(* [Value.hash] of the cell at physical row [p] of column [c] — must match
   what [Tuple.hash] computes on the materialized row. *)
let cell_hash b c p =
  if Bytes.unsafe_get b.nulls.(c) p = '\001' then 17
  else
    match b.cols.(c) with
    | ICol a -> Hashtbl.hash (Float.of_int (Bigarray.Array1.unsafe_get a p))
    | FCol { data; _ } -> Hashtbl.hash (Bigarray.Array1.unsafe_get data p)
    | BCol bs -> if Bytes.unsafe_get bs p = '\001' then 31 else 37
    | SCol { codes; hashes; _ } -> hashes.(codes.(p))

let row_hash b p =
  let arity = Array.length b.cols in
  let h = ref 7 in
  for c = 0 to arity - 1 do
    h := (!h * 31) + cell_hash b c p
  done;
  !h

(* [Value.equal] per cell: the only cross-constructor equality is numeric
   Int/Float, which the FCol float domain captures exactly (ints are
   guarded to 2^53 at build time). *)
let rows_equal b p q =
  let arity = Array.length b.cols in
  let rec go c =
    c >= arity
    ||
    let np = Bytes.unsafe_get b.nulls.(c) p = '\001' in
    let nq = Bytes.unsafe_get b.nulls.(c) q = '\001' in
    if np || nq then np && nq && go (c + 1)
    else
      (match b.cols.(c) with
      | ICol a ->
        Bigarray.Array1.unsafe_get a p = Bigarray.Array1.unsafe_get a q
      | FCol { data; _ } ->
        Float.compare
          (Bigarray.Array1.unsafe_get data p)
          (Bigarray.Array1.unsafe_get data q)
        = 0
      | BCol bs -> Bytes.unsafe_get bs p = Bytes.unsafe_get bs q
      | SCol { codes; _ } -> codes.(p) = codes.(q))
      && go (c + 1)
  in
  go 0

type group = {
  rep : int; (* physical row of the first occurrence *)
  mutable forms : Lineage.Formula.t list;
      (* member lineages, newest first; merged with one [Formula.disj]
         at the end (identical to the row engine's per-row fold — [disj]
         splices nested [Or]s — but linear in the group size) *)
}

(* Dictionary-grouped fast path: a batch that is a single no-null string
   column with [Tids] lineage groups by dictionary code — codes are
   equality classes of the strings (the dict is distinct by
   construction), so no hashing and no equality scans are needed.  And
   because tuple ids within a batch are distinct, the merged lineage of
   a group is [Or [Var t1; ...; Var tk]] in arrival order — exactly what
   folding [Formula.disj] over distinct [Var]s produces — so it can be
   built directly, skipping [disj]'s flatten/dedup pass. *)
let dedup_by_code b codes dict boxed hashes tids =
  let ncodes = Array.length dict in
  let grp = Array.make ncodes (-1) in
  let members : Lineage.Tid.t list array = Array.make ncodes [] in
  let order = ref [] in
  let m = ref 0 in
  let n = length b in
  for i = 0 to n - 1 do
    let p = phys b i in
    let c = Array.unsafe_get codes p in
    if Array.unsafe_get grp c < 0 then begin
      Array.unsafe_set grp c !m;
      Array.unsafe_set members c [ Array.unsafe_get tids p ];
      order := c :: !order;
      incr m
    end
    else
      Array.unsafe_set members c
        (Array.unsafe_get tids p :: Array.unsafe_get members c)
  done;
  let m = !m in
  (* group index -> code, first-occurrence order *)
  let by_group = Array.make m 0 in
  let i = ref m in
  List.iter
    (fun c ->
      decr i;
      by_group.(!i) <- c)
    !order;
  {
    schema = b.schema;
    nrows = m;
    cols = [| SCol { codes = by_group; dict; boxed; hashes } |];
    nulls = [| Bytes.make m '\000' |];
    lin =
      Forms
        (Array.init m (fun g ->
             match members.(by_group.(g)) with
             | [ t ] -> Lineage.Formula.var t
             | ts -> Lineage.Formula.Or (List.rev_map Lineage.Formula.var ts)));
    sel = None;
  }

let no_null_col b col =
  let nulls = b.nulls.(col) in
  let n = length b in
  let rec go i =
    i >= n || (Bytes.unsafe_get nulls (phys b i) = '\000' && go (i + 1))
  in
  go 0

let dedup_generic b =
  let n = length b in
  (* hash -> groups with that hash, newest first (mirrors the row engine's
     bucket lists: equal tuples with different hashes stay distinct) *)
  let buckets : (int, group list) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let ngroups = ref 0 in
  for i = 0 to n - 1 do
    let p = phys b i in
    let h = row_hash b p in
    let cells = try Hashtbl.find buckets h with Not_found -> [] in
    match List.find_opt (fun g -> rows_equal b g.rep p) cells with
    | Some g -> g.forms <- lineage b i :: g.forms
    | None ->
      let g = { rep = p; forms = [ lineage b i ] } in
      Hashtbl.replace buckets h (g :: cells);
      order := g :: !order;
      incr ngroups
  done;
  let groups = Array.make !ngroups { rep = 0; forms = [] } in
  List.iteri
    (fun i g -> groups.(!ngroups - 1 - i) <- g)
    !order;
  let m = !ngroups in
  let arity = Array.length b.cols in
  let cols =
    Array.init arity (fun c ->
        match b.cols.(c) with
        | ICol a ->
          let a' = Bigarray.Array1.create Bigarray.int Bigarray.c_layout m in
          for i = 0 to m - 1 do
            Bigarray.Array1.unsafe_set a' i
              (Bigarray.Array1.unsafe_get a groups.(i).rep)
          done;
          ICol a'
        | FCol { data; was_int } ->
          let a' =
            Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout m
          in
          let w' = Bytes.make m '\000' in
          for i = 0 to m - 1 do
            let p = groups.(i).rep in
            Bigarray.Array1.unsafe_set a' i (Bigarray.Array1.unsafe_get data p);
            Bytes.unsafe_set w' i (Bytes.unsafe_get was_int p)
          done;
          FCol { data = a'; was_int = w' }
        | BCol bs ->
          let bs' = Bytes.make m '\000' in
          for i = 0 to m - 1 do
            Bytes.unsafe_set bs' i (Bytes.unsafe_get bs groups.(i).rep)
          done;
          BCol bs'
        | SCol { codes; dict; boxed; hashes } ->
          SCol
            {
              codes = Array.init m (fun i -> codes.(groups.(i).rep));
              dict;
              boxed;
              hashes;
            })
  in
  let nulls =
    Array.init arity (fun c ->
        let src = b.nulls.(c) in
        let dst = Bytes.make m '\000' in
        for i = 0 to m - 1 do
          Bytes.unsafe_set dst i (Bytes.unsafe_get src groups.(i).rep)
        done;
        dst)
  in
  {
    schema = b.schema;
    nrows = m;
    cols;
    nulls;
    lin =
      Forms
        (Array.map
           (fun g ->
             match g.forms with
             | [ l ] -> l
             | ls -> Lineage.Formula.disj (List.rev ls))
           groups);
    sel = None;
  }

let dedup b =
  match (b.cols, b.lin) with
  | [| SCol { codes; dict; boxed; hashes } |], Tids tids
    when no_null_col b 0 ->
    dedup_by_code b codes dict boxed hashes tids
  | _ -> dedup_generic b

let to_rows b =
  let n = length b in
  let arity = Array.length b.cols in
  let rows = ref [] in
  for i = n - 1 downto 0 do
    let p = phys b i in
    let tuple = Tuple.make (Array.init arity (fun c -> value b c p)) in
    rows := { Eval.tuple; lineage = lineage b i } :: !rows
  done;
  !rows
