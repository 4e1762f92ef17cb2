(* Correctness gate and traced replay.

   One pass walks every wire request in send order (the warm-up first)
   and keeps the database the server must have had at that point: each
   accept applies the increments its proposal quoted.  For every answer
   it checks, from the wire body alone:

   - no answer is degraded, and the threshold is the policy's beta;
   - every released row's confidence is above beta;
   - [browse] and [adhoc] carry no proposal; every [improve] re-answer
     releases at least what it requested;
   - each accept reports the cost its proposal quoted;
   - the body equals a cold [Engine.answer] (no caches) for every
     distinct (principal, text, database state), tier labels aside.

   With [trace] the same pass also replays each request in process twice.
   The traced replay calls each layer's public functions the way
   [Engine.Session.answer] does and times every call from outside; its
   body must equal the wire body byte for byte.  The untraced twin is
   [Engine.Session.answer] itself: its body must match too, and its time
   is what the layer times are set against. *)

module E = Pcqe.Engine
module Db = Relational.Database

let clock = Unix.gettimeofday

let timed f =
  let t0 = clock () in
  let v = f () in
  (v, clock () -. t0)

(* --- accumulation ---------------------------------------------------- *)

type acc = (string, float ref) Hashtbl.t

let add (acc : acc) k v =
  match Hashtbl.find_opt acc k with Some r -> r := !r +. v | None -> Hashtbl.replace acc k (ref v)

let get (acc : acc) k = match Hashtbl.find_opt acc k with Some r -> !r | None -> 0.0

(* --- traced replay ---------------------------------------------------- *)

type slot = { caches : Pcqe.Caches.t; twin : E.Session.t; mutable pending : E.proposal option }

let ok what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)
let tiers = [ "safe_plan"; "var"; "read_once"; "shannon"; "circuit"; "obdd"; "cached" ]

(* [Engine.answer] on the serving path (caches on, exact confidence, no
   deadline), one public call at a time.  Returns the response. *)
let traced_answer (acc : acc) ~counting (ctx : E.context) slot (req : Load.request) =
  let db = ctx.db in
  let plans = Pcqe.Caches.plans slot.caches and conf = Pcqe.Caches.conf slot.caches in
  let query = Pcqe.Query.Sql req.sql in
  (* an accept's invalidations happen at the next lookup, here *)
  let invalidated = Pcqe.Conf_cache.invalidated conf in
  let hits = Pcqe.Plan_cache.hits plans in
  let prepared, dt = timed (fun () -> Pcqe.Plan_cache.find_or_compile plans ~db ~views:ctx.views query) in
  let prepared = ok "plan" prepared in
  if Pcqe.Plan_cache.hits plans > hits then (add acc "plan.lookup_s" dt; add acc "plan.hits" 1.0)
  else add acc "plan.compile_s" dt;
  let roles, dt =
    timed (fun () ->
        let user = req.principal in
        if not (List.mem user (Rbac.Core_rbac.users ctx.rbac)) then failwith "rbac: unknown user";
        List.iter
          (fun rel ->
            if not (Rbac.Core_rbac.check ctx.rbac ~user { Rbac.Core_rbac.action = "select"; resource = rel })
            then failwith "rbac: denied")
          (Relational.Algebra.base_relations (Pcqe.Prepared.plan prepared));
        Rbac.Core_rbac.authorized_roles ctx.rbac user)
  in
  add acc "rbac_s" dt;
  let reused = Obs.Metrics.counter counting.Obs.metrics "serving.eval_reused" in
  let evaluated, dt = timed (fun () -> Pcqe.Prepared.eval_conf ~obs:counting prepared ~db) in
  let res, safe_confs = ok "eval" evaluated in
  add acc "eval_s" dt;
  add acc "eval.rows" (float_of_int (List.length res.Relational.Eval.rows));
  if Obs.Metrics.counter counting.Obs.metrics "serving.eval_reused" > reused then add acc "eval.memo_hits" 1.0;
  if safe_confs <> None then add acc "eval.safe_plans" 1.0;
  let reused = Pcqe.Conf_cache.reused conf and recomputed = Pcqe.Conf_cache.recomputed conf in
  let with_conf, dt =
    timed (fun () ->
        match safe_confs with
        | Some confs -> List.mapi (fun i r -> (r, confs.(i), "safe_plan")) res.Relational.Eval.rows
        | None ->
          List.map
            (fun r ->
              let c, tier = Pcqe.Conf_cache.confidence_tiered conf ~db r.Relational.Eval.lineage in
              (r, c, tier))
            res.Relational.Eval.rows)
  in
  add acc "confidence_s" dt;
  add acc "conf_cache.reused" (float_of_int (Pcqe.Conf_cache.reused conf - reused));
  add acc "conf_cache.recomputed" (float_of_int (Pcqe.Conf_cache.recomputed conf - recomputed));
  List.iter (fun (_, _, tier) -> add acc ("tier." ^ tier) 1.0) with_conf;
  let (applied_policies, threshold, released, withheld), dt =
    timed (fun () ->
        let applied = Rbac.Policy.applicable ctx.policies ~roles ~purpose:Data.purpose in
        let threshold = Rbac.Policy.effective_threshold ctx.policies ~roles ~purpose:Data.purpose in
        let mk r c tier =
          { E.tuple = r.Relational.Eval.tuple; lineage = r.Relational.Eval.lineage; confidence = c; conf_tier = tier }
        in
        match threshold with
        | None -> (applied, threshold, List.map (fun (r, c, tier) -> mk r c tier) with_conf, 0)
        | Some beta ->
          let rel, wh =
            List.fold_left
              (fun (rel, wh) (r, c, tier) ->
                match Lineage.Approx.releasable ~beta (Lineage.Approx.Exact c) with
                | `Release -> (mk r c tier :: rel, wh)
                | `Ambiguous | `Withhold -> (rel, wh + 1))
              ([], 0) with_conf
          in
          (applied, threshold, List.rev rel, wh))
  in
  add acc "policy_s" dt;
  add acc "conf_cache.invalidated" (float_of_int (Pcqe.Conf_cache.invalidated conf - invalidated));
  add acc "policy.released" (float_of_int (List.length released));
  add acc "policy.withheld" (float_of_int withheld);
  let n = List.length with_conf in
  let need = int_of_float (ceil (req.perc *. float_of_int n)) in
  let proposal, infeasible, degraded =
    match threshold with
    | Some beta when List.length released < need && withheld > 0 -> (
      let deadline = Resilience.Deadline.start ctx.deadline in
      let problem, dt =
        timed (fun () ->
            Optimize.Problem.of_query_results
              ~conf_of:(fun f -> Pcqe.Conf_cache.confidence conf ~db f)
              ~delta:ctx.delta ~theta:req.perc ~beta ~cost_of:ctx.cost_of ~cap_of:ctx.cap_of db res)
      in
      let problem, _ = ok "problem" problem in
      add acc "problem.build_s" dt;
      add acc "problem.bases" (float_of_int (Optimize.Problem.num_bases problem));
      add acc "problem.classes" (float_of_int (Optimize.Problem.num_classes problem));
      let out, dt =
        timed (fun () -> Optimize.Solver.solve ~algorithm:ctx.solver ~jobs:ctx.jobs ~deadline problem)
      in
      add acc "solver.solve_s" dt;
      (match out.Optimize.Solver.stats with
      | Optimize.Solver.Divide_conquer_stats s ->
        add acc "solver.groups" (float_of_int s.num_groups);
        add acc "solver.full_evals" (float_of_int s.evals.full_evals);
        add acc "solver.incremental_evals" (float_of_int s.evals.incremental_evals);
        add acc "solver.coeff_invalidations" (float_of_int s.evals.coeff_invalidations)
      | _ -> ());
      let degraded =
        match out.Optimize.Solver.resolution with
        | Optimize.Solver.Complete -> None
        | Optimize.Solver.Partial { reason } -> Some reason
      in
      match out.Optimize.Solver.solution with
      | Some increments ->
        let projected, dt =
          timed (fun () ->
              let raised = Lineage.Tid.Table.create 16 in
              List.iter (fun (tid, p) -> Lineage.Tid.Table.replace raised tid p) increments;
              let conf_after tid =
                let current = Db.confidence db tid in
                match Lineage.Tid.Table.find_opt raised tid with
                | Some target -> Float.max current target
                | None -> current
              in
              List.fold_left
                (fun acc row ->
                  if Lineage.Prob.confidence conf_after row.Relational.Eval.lineage > beta then acc + 1 else acc)
                0 res.Relational.Eval.rows)
        in
        add acc "proposal.project_s" dt;
        add acc "proposals" 1.0;
        add acc "proposal.increments" (float_of_int (List.length increments));
        ( Some
            {
              E.increments;
              cost = out.cost;
              projected_release = projected;
              solver_name = Optimize.Solver.algorithm_name ctx.solver;
              solver_stats = out.stats;
              solver_detail = out.detail;
              elapsed_s = out.elapsed_s;
              resolution = out.resolution;
            },
          false,
          degraded )
      | None -> (None, degraded = None, degraded))
    | _ -> (None, false, None)
  in
  {
    E.schema = res.Relational.Eval.schema;
    released;
    withheld;
    ambiguous = 0;
    requested = need;
    threshold;
    applied_policies;
    proposal;
    infeasible;
    degraded;
    profile = None;
  }

(* --- the walk --------------------------------------------------------- *)

type op = Answer | Propose | Accept

let op_of (r : Load.record) =
  if r.accept then Accept
  else match r.outcome with Load.Answered { token = Some _; _ } -> Propose | _ -> Answer

type outcome = {
  failures : string list;  (** gate violations; empty when correct *)
  acc : acc;  (** replay layer sums over the timed requests *)
  prefix : acc;  (** exact counters over each client's first rounds *)
  inproc : (op * float) list;  (** in-process time of each replayed timed request, s *)
  queries : int;  (** timed queries *)
  accepts : int;  (** timed accepts *)
}

let client_key (r : Load.record) what = Printf.sprintf "client%d.%s" r.client what

let run ~kind ~trace ~prefix_rounds ~(ctx : E.context) (records : Load.record list) =
  let measured : acc = Hashtbl.create 64 and untimed : acc = Hashtbl.create 64 in
  let prefix : acc = Hashtbl.create 32 in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> if List.length !failures < 20 then failures := m :: !failures) fmt in
  let db = ref ctx.db in
  let counting = Obs.deterministic () in
  let slots = Hashtbl.create 8 in
  let slot p =
    match Hashtbl.find_opt slots p with
    | Some s -> s
    | None ->
      let s = { caches = Pcqe.Caches.create (); twin = E.Session.create ctx; pending = None } in
      Hashtbl.replace slots p s;
      s
  in
  (* the last proposal each principal was quoted over the wire *)
  let quoted = Hashtbl.create 8 in
  let after_accept = Hashtbl.create 8 in
  let parsed = Hashtbl.create 256 in
  let parse (req : Load.request) body =
    let key = (req.principal, req.sql) in
    let known = Option.value ~default:[] (Hashtbl.find_opt parsed key) in
    match List.find_opt (fun (b, _) -> b == body) known with
    | Some (_, p) -> p
    | None ->
      let p = Body.parse body in
      Hashtbl.replace parsed key ((body, p) :: known);
      p
  in
  let cold_seen = Hashtbl.create 256 in
  let inproc = ref [] and queries = ref 0 and accepts = ref 0 in
  let accept (r : Load.record) ~acc ~in_prefix who s =
    match (Hashtbl.find_opt quoted r.req.principal, r.outcome) with
    | None, _ -> fail "%s: accept without a quoted proposal" who
    | Some _, (Load.Shed | Load.Timed_out _ | Load.Failed _ | Load.Answered _) -> ()
    | Some (p : Body.proposal), Load.Accepted { applied; cost } ->
      Hashtbl.remove quoted r.req.principal;
      if cost <> p.cost then fail "%s: accepted cost %.17g differs from the quoted %.17g" who cost p.cost;
      if applied <> List.length p.increments then
        fail "%s: accept applied %d of %d increments" who applied (List.length p.increments);
      if in_prefix then add prefix (client_key r "accepted_cost") cost;
      let increments =
        match s.pending with
        | Some tp when trace -> tp.E.increments
        | _ -> Body.increments p
      in
      s.pending <- None;
      let next, dt = timed (fun () -> Db.apply_increments !db increments) in
      db := next;
      add acc "accept.apply_s" dt;
      if r.timed then inproc := (Accept, dt) :: !inproc;
      Hashtbl.replace after_accept r.req.principal ()
  in
  let replay (r : Load.record) ~acc ~in_prefix ~re_answer who s q (a : string) =
    let req = r.req in
    let recomputed = get acc "conf_cache.recomputed" in
    let before =
      List.map (fun k -> (k, get acc k)) [ "solver.full_evals"; "solver.incremental_evals"; "solver.coeff_invalidations" ]
    in
    let resp = traced_answer acc ~counting { ctx with db = !db } s req in
    s.pending <- resp.proposal;
    if in_prefix then List.iter (fun (k, v) -> add prefix k (get acc k -. v)) before;
    if re_answer then add acc "recomputed_after_accept" (get acc "conf_cache.recomputed" -. recomputed);
    let token = Option.map (fun _ -> 1) resp.proposal in
    let frame, dt =
      timed (fun () ->
          let typ, payload =
            Net.Wire.encode_response (Net.Wire.Answer (Net.Wire.answer_of_response ?proposal_token:token resp))
          in
          Net.Frame.encode ~typ payload)
    in
    add acc "net.encode_response_s" dt;
    add acc "net.response_bytes" (float_of_int (String.length frame));
    let decoded, dt =
      timed (fun () ->
          match Net.Frame.decode frame with
          | Ok (typ, payload) -> Net.Wire.decode_response ~typ payload
          | Error e -> Error (Net.Frame.error_to_string e))
    in
    add acc "net.decode_response_s" dt;
    let (_ : string), dt =
      timed (fun () ->
          let typ, payload =
            Net.Wire.encode_request
              (Net.Wire.Query
                 { user = req.principal; purpose = Data.purpose; perc = req.perc; sql = req.sql; deadline_ms = None })
          in
          Net.Frame.encode ~typ payload)
    in
    add acc "net.encode_request_s" dt;
    (match decoded with
    | Ok (Net.Wire.Answer d) when String.equal d.body a -> ()
    | Ok _ | Error _ -> fail "%s: traced replay body differs from the wire body" who);
    E.Session.set_context s.twin { (E.Session.context s.twin) with db = !db };
    let twin, dt = timed (fun () -> E.Session.answer s.twin q) in
    add acc "engine.answer_s" dt;
    if r.timed then inproc := (op_of r, dt) :: !inproc;
    match twin with
    | Ok t when String.equal (Net.Wire.body_of_response t) a -> ()
    | Ok _ -> fail "%s: Engine.Session.answer body differs from the wire body" who
    | Error e -> fail "%s: Engine.Session.answer failed: %s" who e
  in
  let answer (r : Load.record) ~acc ~in_prefix who s (a : string) ~released ~withheld ~requested ~degraded ~token =
    let req = r.req in
    let re_answer = Hashtbl.mem after_accept req.principal in
    Hashtbl.remove after_accept req.principal;
    match parse req a with
    | exception Body.Malformed m -> fail "%s: malformed body: %s" who m
    | b ->
      if degraded <> None || b.degraded <> None then fail "%s: degraded answer" who;
      if b.threshold <> Some Data.beta then fail "%s: threshold is not the policy's beta" who;
      if released <> List.length b.released || withheld <> b.withheld || requested <> b.requested then
        fail "%s: answer header disagrees with its body" who;
      List.iter
        (fun (row : Body.row) ->
          if not (row.confidence > Data.beta) then
            fail "%s: released %s at confidence %g, not above beta" who row.tuple row.confidence)
        b.released;
      (match (kind, token, b.proposal) with
      | (Load.Browse | Load.Adhoc), None, None -> ()
      | (Load.Browse | Load.Adhoc), _, _ -> fail "%s: a read-only workload got a proposal" who
      | Load.Improve, Some _, Some p -> Hashtbl.replace quoted req.principal p
      | Load.Improve, None, None -> ()
      | Load.Improve, _, _ -> fail "%s: proposal token and body disagree" who);
      if re_answer && released < requested then fail "%s: re-answer released %d < requested %d" who released requested;
      if in_prefix then begin
        add prefix (client_key r "released") (float_of_int released);
        add prefix (client_key r "withheld") (float_of_int withheld);
        if b.proposal <> None then add prefix (client_key r "proposals") 1.0
      end;
      let q = { E.query = Pcqe.Query.Sql req.sql; user = req.principal; purpose = Data.purpose; perc = req.perc } in
      let key = (req.principal, req.sql, Db.confidence_vector !db) in
      if not (Hashtbl.mem cold_seen key) then begin
        Hashtbl.replace cold_seen key ();
        match E.answer { ctx with db = !db; caches = None } q with
        | Ok cold ->
          if Body.untiered (Body.parse (Net.Wire.body_of_response cold)) <> Body.untiered b then
            fail "%s: wire answer differs from a cold Engine.answer" who
        | Error e -> fail "%s: cold Engine.answer failed: %s" who e
      end;
      if trace then
        replay r ~acc ~in_prefix ~re_answer who s q a
  in
  List.iter
    (fun (r : Load.record) ->
      let acc = if r.timed then measured else untimed in
      let in_prefix = r.round >= 0 && r.round < prefix_rounds in
      let who = Printf.sprintf "client %d round %d (%s, %s)" r.client r.round r.req.principal r.req.sql in
      let s = slot r.req.principal in
      if in_prefix then begin
        let op = match op_of r with Answer -> "answers" | Propose -> "proposing_queries" | Accept -> "accepts" in
        add prefix (client_key r op) 1.0
      end;
      let check () =
        if r.accept then begin
          if r.timed then incr accepts;
          accept r ~acc ~in_prefix who s
        end
        else
          match r.outcome with
          | Load.Answered { released; withheld; requested; degraded; token; body } ->
            if r.timed then incr queries;
            answer r ~acc ~in_prefix who s body ~released ~withheld ~requested ~degraded ~token
          | Load.Accepted _ -> fail "%s: a query was answered with Accepted" who
          | Load.Shed | Load.Timed_out _ | Load.Failed _ -> ()
      in
      match check () with () -> () | exception e -> fail "%s: check raised %s" who (Printexc.to_string e))
    (List.stable_sort (fun (a : Load.record) b -> compare a.sent b.sent) records);
  { failures = List.rev !failures; acc = measured; prefix; inproc = !inproc; queries = !queries; accepts = !accepts }
