(* The benchmark's inputs, all derived from the command-line seed: the
   database R(k, g, n) / S(g, m), the RBAC model (eight principals under
   one Analyst role), the single policy <Analyst, serve, 0.6>, and the SQL
   texts each workload sends. *)

module Db = Relational.Database
module Sm = Prng.Splitmix

type size = {
  r_rows : int;  (** R(k, g, n): k = 0 .. r_rows-1, g = k/5 *)
  window : int;  (** keys per browse/adhoc window *)
  band_window : int;  (** keys per band-join window (nested-loop join) *)
  improve_window : int;  (** keys per improve window *)
  ramp_s : float;
      (** untimed load before the timed run: the server's heap and caches
          grow during the first seconds, and those run slower *)
}

let full = { r_rows = 100_000; window = 1_000; band_window = 250; improve_window = 100; ramp_s = 2.0 }
let tiny = { r_rows = 2_000; window = 100; band_window = 50; improve_window = 20; ramp_s = 0.0 }

(* S has one row per join key g of R. *)
let s_rows size = size.r_rows / 5
let principals = Array.init 8 (fun i -> Printf.sprintf "analyst%d" i)
let role = "Analyst"
let purpose = "serve"
let beta = 0.6
let conf_lo = 0.35
let conf_hi = 0.95

let rbac () =
  let ok = function Ok r -> r | Error e -> failwith ("rbac: " ^ e) in
  let r = Rbac.Core_rbac.add_role Rbac.Core_rbac.empty role in
  let r =
    ok (Rbac.Core_rbac.grant r ~role { Rbac.Core_rbac.action = "select"; resource = "*" })
  in
  Array.fold_left
    (fun r u -> ok (Rbac.Core_rbac.assign_user (Rbac.Core_rbac.add_user r u) ~user:u ~role))
    r principals

let policies () = Rbac.Policy.of_list [ Rbac.Policy.make ~role ~purpose ~beta ]

(* m = g/2 pairs neighbouring join keys, so the band join below puts two
   S tuples and three R groups under one output row: lineage that is not
   read-once. *)
let database size ~seed =
  let rng = Sm.of_int seed in
  let int v = Relational.Value.Int v in
  let n = size.r_rows and ns = s_rows size in
  let r_schema = Relational.Schema.of_list [ ("k", TInt); ("g", TInt); ("n", TInt) ] in
  let s_schema = Relational.Schema.of_list [ ("g", TInt); ("m", TInt) ] in
  let r_tuples =
    List.init n (fun k -> Relational.Tuple.of_list [ int k; int (k / 5); int (Sm.int rng 50) ])
  in
  let s_tuples = List.init ns (fun g -> Relational.Tuple.of_list [ int g; int (g / 2) ]) in
  let confs count = Array.init count (fun _ -> Sm.float_in rng conf_lo conf_hi) in
  let r_confs = confs n in
  let s_confs = confs ns in
  let db = Db.bulk_load Db.empty (Relational.Relation.of_tuples "R" r_schema r_tuples) r_confs in
  Db.bulk_load db (Relational.Relation.of_tuples "S" s_schema s_tuples) s_confs

(* Strategy finding on the increment grid delta = 0.05, finer than the
   engine's default 0.1: each improve window is then an instance whose
   solve, not its evaluation, is the main cost of a proposal. *)
let delta = 0.05

let context ~jobs db =
  Pcqe.Engine.make_context ~jobs ~delta ~db ~rbac:(rbac ()) ~policies:(policies ()) ()

(* --- SQL texts ------------------------------------------------------ *)

let select_sql ~lo ~hi = Printf.sprintf "SELECT k, n FROM R WHERE k >= %d AND k < %d" lo hi

let join_sql ~lo ~hi =
  Printf.sprintf "SELECT R.k, S.m FROM R JOIN S ON R.g = S.g WHERE R.k >= %d AND R.k < %d" lo hi

(* R joins the S rows with g or g+1, for S rows with g up to [s_hi].  The
   predicate is not an equality, so the join is a nested loop; the
   subquery bounds S to the window's keys. *)
let band_join ~cols ~s_hi ~lo ~hi =
  Printf.sprintf
    "SELECT %s FROM R JOIN (SELECT g, m FROM S WHERE g >= %d AND g <= %d) AS T ON T.g >= R.g \
     AND T.g <= R.g + 1 WHERE R.k >= %d AND R.k < %d"
    cols (lo / 5) s_hi lo hi

(* Grouped by m, an output row covers two S tuples and the three R
   groups around them: lineage that is not read-once. *)
let band_sql ~lo ~hi = band_join ~cols:"T.m" ~s_hi:((hi / 5) + 1) ~lo ~hi

(* One output row per R tuple and partner set.  Neighbouring rows share
   S tuples, so strategy finding works on overlapping lineage rather than
   on independent rows.  S stops at the window's own last join key, so
   no two windows share a tuple and an accept never reaches beyond its
   window. *)
let improve_sql ~lo ~hi = band_join ~cols:"R.k, T.m" ~s_hi:((hi - 1) / 5) ~lo ~hi

type shape = Select | Join | Band

let sql_of size shape ~lo =
  match shape with
  | Select -> select_sql ~lo ~hi:(lo + size.window)
  | Join -> join_sql ~lo ~hi:(lo + size.window)
  | Band -> band_sql ~lo ~hi:(lo + size.band_window)
