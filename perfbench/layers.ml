(* Per-layer metrics from the traced replay.

   Every [*_us] metric on the answer path is the layer's total time over
   the timed queries divided by their number, so the layers add up to
   [engine.answer_us], the untraced [Engine.Session.answer] time per
   query; [engine.unattributed_share] is what they leave over.  Counts
   per proposal ([problem.*], [solver.*], [proposal.increments]) are
   divided by the proposals replayed. *)

let us = 1e6

(* The answer path's layers, in pipeline order, each with the sums that
   make up its time. *)
let engine_layers =
  [
    ("plan", [ "plan.lookup_s"; "plan.compile_s" ]);
    ("rbac", [ "rbac_s" ]);
    ("eval", [ "eval_s" ]);
    ("confidence", [ "confidence_s" ]);
    ("policy", [ "policy_s" ]);
    ("optimize", [ "problem.build_s"; "solver.solve_s"; "proposal.project_s" ]);
  ]

let net_sums = [ "net.encode_response_s"; "net.decode_response_s"; "net.encode_request_s" ]

(* an op the workload does not issue reports 0 *)
let or0 v = if Float.is_nan v then 0.0 else v

let inproc_p50 (check : Check.outcome) op =
  Report.median (List.filter_map (fun (o, t) -> if o = op then Some t else None) check.inproc) *. 1000.0

(* [answer], [propose], [accept] and [rounds] are the wire latencies of
   the run. *)
let metrics ~(check : Check.outcome) ~(answer : Report.op_stats) ~(propose : Report.op_stats)
    ~(accept : Report.op_stats) ~(rounds : Report.op_stats) ~server:(shed, timeouts, errors) =
  let get = Check.get check.acc in
  let q = float_of_int (max 1 check.queries) in
  let proposals = Float.max 1.0 (get "proposals") in
  let per_accept = float_of_int (max 1 check.accepts) in
  let sum keys = List.fold_left (fun a k -> a +. get k) 0.0 keys in
  let layer_s = List.map (fun (name, keys) -> (name, sum keys)) engine_layers in
  let engine_s = List.fold_left (fun a (_, s) -> a +. s) 0.0 layer_s in
  let attributed = engine_s +. sum net_sums in
  Printf.printf "layer shares of the attributed time (%.1f us per query):\n" (attributed /. q *. us);
  List.iter
    (fun (name, s) -> Printf.printf "  %-10s %6.2f%%  %.1f us/query\n" name (100.0 *. s /. attributed) (s /. q *. us))
    (layer_s @ [ ("net", sum net_sums) ]);
  let share names = Report.ratio (List.fold_left (fun a n -> a +. List.assoc n layer_s) 0.0 names) attributed in
  (match check.queries with
  | 0 -> ()
  | _ ->
    Printf.printf
      "claims: eval+optimize %.3f (browse: < 0.1), plan+eval+confidence %.3f (adhoc: > 0.5), optimize %.3f \
       (improve: > 0.5)\n"
      (share [ "eval"; "optimize" ]) (share [ "plan"; "eval"; "confidence" ]) (share [ "optimize" ]));
  let tier_total = List.fold_left (fun a t -> a +. get ("tier." ^ t)) 0.0 Check.tiers in
  let prefix_accepts, prefix_cost =
    Hashtbl.fold
      (fun k v (n, c) ->
        if String.ends_with ~suffix:".accepts" k then (n +. !v, c)
        else if String.ends_with ~suffix:".accepted_cost" k then (n, c +. !v)
        else (n, c))
      check.prefix (0.0, 0.0)
  in
  let transport (wire : Report.op_stats) op = or0 (wire.p50 -. inproc_p50 check op) in
  let m name value unit = { Report.name; value; unit } in
  [
    m "net.encode_request_us" (get "net.encode_request_s" /. q *. us) "us";
    m "net.encode_response_us" (get "net.encode_response_s" /. q *. us) "us";
    m "net.decode_response_us" (get "net.decode_response_s" /. q *. us) "us";
    m "net.response_bytes" (get "net.response_bytes" /. q) "bytes";
    m "net.transport_ms" (transport answer Check.Answer) "ms";
    m "net.transport_propose_ms" (transport propose Check.Propose) "ms";
    m "net.transport_accept_ms" (transport accept Check.Accept) "ms";
    m "net.server_shed" (float_of_int shed) "count";
    m "net.server_timeouts" (float_of_int timeouts) "count";
    m "net.server_errors" (float_of_int errors) "count";
    m "plan.lookup_us" (get "plan.lookup_s" /. q *. us) "us";
    m "plan.compile_us" (get "plan.compile_s" /. q *. us) "us";
    m "plan.hit_ratio" (get "plan.hits" /. q) "ratio";
    m "rbac.check_us" (get "rbac_s" /. q *. us) "us";
    m "policy.filter_us" (get "policy_s" /. q *. us) "us";
    m "policy.released_ratio"
      (Report.ratio (get "policy.released") (get "policy.released" +. get "policy.withheld"))
      "ratio";
    m "eval.us" (get "eval_s" /. q *. us) "us";
    m "eval.rows" (get "eval.rows" /. q) "count";
    m "eval.memo_hit_ratio" (get "eval.memo_hits" /. q) "ratio";
    m "eval.safe_plan_ratio" (get "eval.safe_plans" /. q) "ratio";
    m "confidence.us" (get "confidence_s" /. q *. us) "us";
    m "confidence.classes" (get "conf_cache.recomputed" /. q) "count";
    m "conf_cache.hit_ratio"
      (Report.ratio (get "conf_cache.reused") (get "conf_cache.reused" +. get "conf_cache.recomputed"))
      "ratio";
  ]
  @ List.map
      (fun t -> m ("confidence.tier_share." ^ t) (Report.ratio (get ("tier." ^ t)) tier_total) "ratio")
      Check.tiers
  @ [
      m "problem.build_us" (get "problem.build_s" /. q *. us) "us";
      m "problem.bases" (get "problem.bases" /. proposals) "count";
      m "problem.classes" (get "problem.classes" /. proposals) "count";
      m "solver.solve_us" (get "solver.solve_s" /. q *. us) "us";
      m "solver.full_evals" (get "solver.full_evals" /. proposals) "count";
      m "solver.incremental_evals" (get "solver.incremental_evals" /. proposals) "count";
      m "solver.coeff_invalidations" (get "solver.coeff_invalidations" /. proposals) "count";
      m "solver.groups" (get "solver.groups" /. proposals) "count";
      m "proposal.increments" (get "proposal.increments" /. proposals) "count";
      m "proposal.project_us" (get "proposal.project_s" /. q *. us) "us";
      m "accept.apply_us" (get "accept.apply_s" /. per_accept *. us) "us";
      m "conf_cache.invalidated_per_accept" (get "conf_cache.invalidated" /. per_accept) "count";
      m "conf_cache.recomputed_after_accept" (get "recomputed_after_accept" /. per_accept) "count";
      m "engine.answer_us" (get "engine.answer_s" /. q *. us) "us";
      m "engine.unattributed_share" (1.0 -. Report.ratio engine_s (get "engine.answer_s")) "ratio";
      m "answer_p90_ms" answer.p90 "ms";
      m "round_p90_ms" rounds.p90 "ms";
      m "propose_p50_ms" (or0 propose.p50) "ms";
      m "propose_p90_ms" (or0 propose.p90) "ms";
      m "accept_p50_ms" (or0 accept.p50) "ms";
      m "accept_p90_ms" (or0 accept.p90) "ms";
      m "proposal_cost" (Report.ratio prefix_cost prefix_accepts) "cost";
    ]
