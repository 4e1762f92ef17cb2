(* Benchmark harness reproducing the paper's evaluation (Section 5).

   Every panel of Figure 11 has a subcommand, plus the Table 4 parameter
   dump and three ablations documented in DESIGN.md:

     table4      parameter defaults (Table 4)
     fig11a      heuristic variants, no greedy bound (response time)
     fig11d      heuristic variants seeded with the greedy bound
     fig11b      one-phase vs two-phase greedy (response time)
     fig11e      one-phase vs two-phase greedy (minimum cost)
     fig11c      heuristic/greedy/D&C scalability (response time)
     fig11f      heuristic/greedy/D&C minimum cost
     sweep-bpr   A1: base-tuples-per-result sweep (Table 4 row 2)
     sweep-gamma A2: partition gamma / tau sensitivity
     sweep-edge  A3: intersection vs union edge weights
     sweep-solvers A4: all four solvers incl. the annealing baseline
     sweep-rewrite A5: evaluation time, naive plan vs rewritten plan
     sweep-jobs  parallel D&C / Monte-Carlo scaling at jobs 1,2,4,8
                 (restrict with --jobs N); writes BENCH_parallel.json
     solvers-json  write BENCH_solvers.json: structured solver telemetry
                   and engine per-stage span timings, machine-readable
     sweep-incremental  A/B of incremental confidence re-evaluation
                   (affine coefficient caches + lineage dedup) vs the
                   forced-off baseline; writes BENCH_incremental.json
     sweep-resilience  solve-latency distribution with a wall deadline
                   vs unbounded, over many seeds: the deadline bounds
                   the tail (p99) while every partial answer stays
                   feasible; writes BENCH_resilience.json
     sweep-serving  warm serving pipeline (prepared plans + per-epoch
                   confidence caches) vs the cold per-request path:
                   repeated query, 1/8/64 principals, and the re-answer
                   after accept_proposal; every warm answer is checked
                   identical to cold; writes BENCH_serving.json
     sweep-columnar  columnar batch engine vs the row engine: parallel
                   bulk CSV ingest (MB/s), scan/filter/project
                   throughput (rows/s), top-K-by-confidence heap vs
                   full sort — identity-checked row-vs-columnar on
                   every point; writes BENCH_columnar.json
     sweep-circuits  safe-plan confidence fast path + d-DNNF lineage
                   circuits vs the degradation ladder: hierarchical
                   query through the engine, unsafe self-join re-priced
                   across confidence epochs, and circuit-backed solver
                   evaluators — every point bit-identical to the
                   ladder; writes BENCH_circuits.json
     smoke       every panel at tiny sizes (run by `dune runtest`)
     micro       Bechamel micro-benchmarks of the hot paths

   `dune exec bench/main.exe` runs everything except the slowest points;
   pass `--full` to also run the full-rescan greedy at 50K/100K (several
   minutes each, reproducing the paper's "greedy takes hours" regime).
   Absolute times are hardware-specific; the shapes are what the paper
   reports (see EXPERIMENTS.md). *)

module Problem = Optimize.Problem
module Greedy = Optimize.Greedy
module H = Optimize.Heuristic
module D = Optimize.Divide_conquer
module Synth = Workload.Synth

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let header title =
  Printf.printf "\n==================== %s ====================\n%!" title

(* every artifact records the host's core count and the effective jobs
   level ({!Exec.resolve_jobs}: PCQE_JOBS, else 1) so a reader can tell
   an oversubscribed run from a parallel one without guessing *)
let machine_fields () =
  Printf.sprintf "\"cores\": %d,\n  \"jobs\": %d"
    (Domain.recommended_domain_count ())
    (Exec.resolve_jobs ())

let row fmt = Printf.printf fmt

(* run [f] with the circuit/safe-plan fast paths pinned on or off —
   panels that A/B the two confidence tiers, or that assert
   ladder/cache-path behaviour a safe-plan query would bypass, pin
   explicitly instead of inheriting PCQE_CIRCUITS *)
let with_circuits on f =
  Lineage.Circuit.force (Some on);
  Fun.protect ~finally:(fun () -> Lineage.Circuit.force None) f

(* ------------------------------------------------------------------ *)
(* Table 4 *)

let table4 () =
  header "Table 4: parameters and their settings";
  List.iter
    (fun (name, value) -> row "  %-40s %s\n" name value)
    (Synth.table4 Synth.default_params);
  row "  %-40s %s\n" "Data size sweep" "10, 1K, 5K, 10K, 50K, 100K";
  row "  %-40s %s\n" "Base tuples per result sweep" "5, 10, 25, 50, 100"

(* ------------------------------------------------------------------ *)
(* Figure 11 (a) and (d): heuristic variants on the small instance
   (10 base tuples, >= 3 results above beta = 0.6, 5 base tuples/result) *)

let heuristic_variants =
  [
    ("Naive", H.naive);
    ("H1", H.only `H1);
    ("H2", H.only `H2);
    ("H3", H.only `H3);
    ("H4", H.only `H4);
    ("All", H.all_heuristics);
  ]

let fig11_ad ?(seeds = [ 1; 2; 3; 4; 5 ]) ?(max_nodes = None) ~seeded () =
  header
    (if seeded then
       "Figure 11(d): heuristic variants, greedy cost as initial bound"
     else "Figure 11(a): heuristic variants, no initial bound");
  row "  small instance: 10 base tuples, 8 results, >=3 above beta=0.6\n";
  row "  %-8s %14s %14s %14s\n" "variant" "time (ms)" "nodes" "cost";
  List.iter
    (fun (name, heuristics) ->
      let times = ref [] and nodes = ref [] and costs = ref [] in
      List.iter
        (fun seed ->
          let p = Synth.small_instance ~seed () in
          let bound =
            if seeded then begin
              let g = Greedy.solve p in
              if g.Greedy.feasible then Some g.Greedy.cost else None
            end
            else None
          in
          let out, dt =
            time (fun () ->
                H.solve
                  ~config:{ H.heuristics; initial_bound = bound; max_nodes }
                  p)
          in
          times := dt :: !times;
          nodes := float_of_int out.H.nodes :: !nodes;
          costs :=
            (match out.H.solution with
            | Some _ -> out.H.cost
            | None -> ( match bound with Some b -> b | None -> nan))
            :: !costs)
        seeds;
      row "  %-8s %14.2f %14.0f %14.2f\n" name
        (1000.0 *. mean !times)
        (mean !nodes) (mean !costs))
    heuristic_variants;
  row "  expected shape: every Hi beats Naive; All beats each single Hi;\n";
  row "  seeding (11d) reduces nodes for every variant.\n"

(* ------------------------------------------------------------------ *)
(* Figure 11 (b) and (e): one-phase vs two-phase greedy *)

let fig11_be ?(sizes = [ 1000; 3000; 5000; 7000; 9000 ]) () =
  header "Figure 11(b)+(e): one-phase vs two-phase greedy";
  row "  %-8s %14s %14s %14s %14s %10s\n" "size" "1p time(s)" "2p time(s)"
    "1p cost" "2p cost" "saving";
  List.iter
    (fun size ->
      let params = { Synth.default_params with data_size = size } in
      let p = Synth.instance ~params ~seed:(size + 1) () in
      let one, t1 =
        time (fun () ->
            Greedy.solve
              ~config:{ Greedy.default_config with two_phase = false }
              p)
      in
      let two, t2 = time (fun () -> Greedy.solve p) in
      row "  %-8d %14.3f %14.3f %14.1f %14.1f %9.1f%%\n" size t1 t2
        one.Greedy.cost two.Greedy.cost
        (100.0
        *. (one.Greedy.cost -. two.Greedy.cost)
        /. Float.max one.Greedy.cost 1e-9))
    sizes;
  row "  expected shape: similar response time (phase 2 is cheap), two-phase\n";
  row "  cost clearly below one-phase (the paper reports >30%% savings).\n"

(* ------------------------------------------------------------------ *)
(* Figure 11 (c) and (f): scalability of the three algorithms *)

let bpr_for_size size = if size < 10_000 then 5 else size / 1000

let fig11_cf ?(sizes = [ 10; 1000; 5000; 10_000; 50_000; 100_000 ]) ~full () =
  header "Figure 11(c)+(f): heuristic vs greedy vs divide-and-conquer";
  row "  (heuristic only runs at tiny sizes; '-' = not run%s)\n"
    (if full then "" else "; pass --full for greedy at 50K/100K");
  row "  %-8s %12s %12s %12s %14s %14s %14s\n" "size" "heur t(s)"
    "greedy t(s)" "dnc t(s)" "heur cost" "greedy cost" "dnc cost";
  List.iter
    (fun size ->
      let params =
        {
          Synth.default_params with
          data_size = size;
          bases_per_result = bpr_for_size size;
        }
      in
      let p =
        if size = 10 then
          Synth.small_instance ~num_bases:10 ~num_results:4 ~required:2 ~seed:7
            ()
        else Synth.instance ~params ~seed:7 ()
      in
      let heur =
        if size <= 10 then begin
          let out, dt = time (fun () -> H.solve p) in
          Some (dt, out.H.cost)
        end
        else None
      in
      let greedy =
        if size <= 10_000 || full then begin
          let out, dt = time (fun () -> Greedy.solve p) in
          Some (dt, if out.Greedy.feasible then out.Greedy.cost else nan)
        end
        else None
      in
      let dnc, dnc_t = time (fun () -> D.solve p) in
      let fmt_t = function
        | Some (t, _) -> Printf.sprintf "%.3f" t
        | None -> "-"
      in
      let fmt_c = function
        | Some (_, c) -> Printf.sprintf "%.1f" c
        | None -> "-"
      in
      row "  %-8d %12s %12s %12.3f %14s %14s %14.1f\n" size (fmt_t heur)
        (fmt_t greedy) dnc_t (fmt_c heur) (fmt_c greedy) dnc.D.cost)
    sizes;
  row "  expected shape: heuristic explodes beyond tiny sizes; greedy is\n";
  row "  fastest on small inputs, D&C overtakes it as size grows and the\n";
  row "  gap widens; heuristic cost is optimal, the other two land close.\n"

(* ------------------------------------------------------------------ *)
(* A1: base-tuples-per-result sweep at 10K (Table 4 row 2) *)

let sweep_bpr ?(size = 10_000) ?(bprs = [ 5; 10; 25; 50; 100 ]) () =
  header (Printf.sprintf "A1: base tuples per result sweep (%d base tuples)" size);
  row "  %-8s %14s %14s %14s %14s\n" "bpr" "greedy t(s)" "dnc t(s)"
    "greedy cost" "dnc cost";
  List.iter
    (fun bpr ->
      let params =
        { Synth.default_params with data_size = size; bases_per_result = bpr }
      in
      let p = Synth.instance ~params ~seed:11 () in
      let g, tg = time (fun () -> Greedy.solve p) in
      let d, td = time (fun () -> D.solve p) in
      row "  %-8d %14.3f %14.3f %14.1f %14.1f\n" bpr tg td g.Greedy.cost
        d.D.cost)
    bprs

(* ------------------------------------------------------------------ *)
(* A2: partition gamma / tau sensitivity for D&C *)

let sweep_gamma ?(size = 10_000) () =
  header "A2: D&C sensitivity to gamma (merge threshold) and tau";
  let p =
    Synth.instance
      ~params:{ Synth.default_params with data_size = size }
      ~seed:13 ()
  in
  row "  %d-base-tuple instance; default gamma=2, tau=12\n" size;
  row "  %-10s %-6s %12s %12s %10s\n" "gamma" "tau" "time (s)" "cost" "groups";
  List.iter
    (fun gamma ->
      List.iter
        (fun tau ->
          let config =
            {
              D.default_config with
              partition = { Optimize.Partition.default_config with gamma };
              tau;
            }
          in
          let out, dt = time (fun () -> D.solve ~config p) in
          row "  %-10.1f %-6d %12.3f %12.1f %10d\n" gamma tau dt out.D.cost
            out.D.num_groups)
        [ 0; 12 ])
    [ 1.0; 2.0; 3.0; 4.0 ]

(* ------------------------------------------------------------------ *)
(* A3: edge-weight semantics ablation *)

let sweep_edge ?(size = 10_000) () =
  header
    "A3: partition edge weights, shared-count (prose) vs union (pseudocode)";
  let p =
    Synth.instance
      ~params:{ Synth.default_params with data_size = size }
      ~seed:17 ()
  in
  row "  %-14s %12s %12s %10s\n" "semantics" "time (s)" "cost" "groups";
  List.iter
    (fun (name, semantics) ->
      let config =
        {
          D.default_config with
          partition = { Optimize.Partition.default_config with semantics };
        }
      in
      let out, dt = time (fun () -> D.solve ~config p) in
      row "  %-14s %12.3f %12.1f %10d\n" name dt out.D.cost out.D.num_groups)
    [
      ("shared-count", Optimize.Partition.Shared_count);
      ("union-size", Optimize.Partition.Union_size);
    ]

(* ------------------------------------------------------------------ *)
(* A4: all four solvers head to head (annealing is our extra baseline) *)

let sweep_solvers ?(size = 1000) ?(annealing_iters = 2_000_000) () =
  header
    (Printf.sprintf
       "A4: solver comparison including the annealing baseline (%d)" size);
  let p =
    Synth.instance ~params:{ Synth.default_params with data_size = size }
      ~seed:23 ()
  in
  row "  %-22s %12s %14s %10s\n" "solver" "time (s)" "cost" "feasible";
  List.iter
    (fun algorithm ->
      let out = Optimize.Solver.solve ~algorithm p in
      row "  %-22s %12.3f %14s %10b\n"
        (Optimize.Solver.algorithm_name algorithm)
        out.Optimize.Solver.elapsed_s
        (match out.Optimize.Solver.solution with
        | Some _ -> Printf.sprintf "%.1f" out.Optimize.Solver.cost
        | None -> "-")
        (out.Optimize.Solver.solution <> None))
    [
      Optimize.Solver.greedy;
      Optimize.Solver.Greedy
        { Optimize.Greedy.default_config with
          selection = Optimize.Greedy.Incremental };
      Optimize.Solver.divide_conquer;
      Optimize.Solver.Annealing
        { Optimize.Annealing.default_config with
          iterations = annealing_iters; restarts = 1 };
    ];
  row "  expected shape: the domain-specific algorithms beat the generic\n";
  row "  randomized baseline on cost at comparable or better time.\n"

(* ------------------------------------------------------------------ *)
(* A5: effect of the plan rewriter (selection pushdown) *)

let sweep_rewrite ?(rows = 400) () =
  header "A5: plan rewriter, naive vs optimized evaluation";
  let open Relational in
  let rng = Prng.Splitmix.of_int 99 in
  let r = Relation.create "R" (Schema.of_list [ ("k", Value.TInt); ("n", Value.TInt) ]) in
  let s = Relation.create "S" (Schema.of_list [ ("k", Value.TInt); ("m", Value.TInt) ]) in
  let db = Database.add_relation (Database.add_relation Database.empty r) s in
  let fill db rel count =
    let rec go db i =
      if i = 0 then db
      else
        let vs = [ Value.Int (Prng.Splitmix.int rng 1000); Value.Int i ] in
        go (fst (Database.insert db rel vs ~conf:0.5)) (i - 1)
    in
    go db count
  in
  let db = fill db "R" rows in
  let db = fill db "S" rows in
  (* naive plan: selective predicates above a band join (non-equality, so
     the nested loop is unavoidable and join input size is what matters) *)
  let plan =
    Algebra.Select
      ( Expr.(col "R.n" <% int 10),
        Algebra.Select
          ( Expr.(col "S.m" <% int 10),
            Algebra.Join
              ( Some Expr.(col "R.k" <% col "S.k"),
                Algebra.scan "R", Algebra.scan "S" ) ) )
  in
  let optimized =
    match Rewrite.optimize db plan with Ok p -> p | Error m -> failwith m
  in
  let _, t_naive = time (fun () -> Eval.run_exn db plan) in
  let _, t_opt = time (fun () -> Eval.run_exn db optimized) in
  row "  %-24s %12.4f s\n" "naive (select above join)" t_naive;
  row "  %-24s %12.4f s\n" "after pushdown" t_opt;
  row "  speedup: %.1fx (the pushed plan band-joins ~9x9 rows, not 400x400;\n"
    (t_naive /. Float.max t_opt 1e-9);
  row "  equality joins are served by the built-in hash join either way)\n"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the hot paths *)

let micro ?(quota = 0.5) ?(size = 1000) () =
  header "Micro-benchmarks (Bechamel, monotonic clock)";
  let open Bechamel in
  let open Toolkit in
  let p =
    Synth.instance
      ~params:{ Synth.default_params with data_size = size }
      ~seed:3 ()
  in
  let st = Optimize.State.create p in
  let formula = (Problem.result p 0).Problem.formula in
  let db_p tid =
    match Problem.bid_of_tid p tid with
    | Some bid -> (Problem.base p bid).Problem.p0
    | None -> 0.0
  in
  let manager = Lineage.Bdd.manager () in
  let bdd = Lineage.Bdd.of_formula manager formula in
  let levels = Array.map (fun b -> b.Problem.p0) (Problem.bases p) in
  (* a browse-sized answer: 500 joined rows, each "(k, g, n)" with
     lineage "R#k & S#g" *)
  let answer =
    let module V = Relational.Value in
    let released =
      List.init 500 (fun k ->
          {
            Pcqe.Engine.tuple = Relational.Tuple.of_list [ V.Int k; V.Int (k / 5); V.Int (k mod 50) ];
            lineage = Lineage.(Formula.conj [ Formula.var (Tid.make "R" k); Formula.var (Tid.make "S" (k / 5)) ]);
            confidence = 0.6 +. (float_of_int k /. 2000.0);
            conf_tier = "cached";
          })
    in
    {
      Pcqe.Engine.schema = Relational.Schema.of_list [ ("R.k", V.TInt); ("R.g", V.TInt); ("R.n", V.TInt) ];
      released;
      withheld = 0;
      ambiguous = 0;
      requested = 500;
      threshold = Some 0.6;
      applied_policies = [];
      proposal = None;
      infeasible = false;
      degraded = None;
      profile = None;
    }
  in
  let block = String.init 65536 (fun i -> Char.chr ((i * 131) land 0xff)) in
  let tests =
    [
      Test.make ~name:"wire/body-encode"
        (Staged.stage (fun () -> Net.Wire.frame_response (Net.Wire.Answer (Net.Wire.answer_of_response answer))));
      Test.make ~name:"wire/crc32-64KiB" (Staged.stage (fun () -> Net.Frame.crc32 block));
      Test.make ~name:"confidence/compiled-read-once"
        (Staged.stage (fun () -> Problem.eval_result p levels 0));
      Test.make ~name:"confidence/formula-shannon"
        (Staged.stage (fun () -> Lineage.Prob.exact db_p formula));
      Test.make ~name:"confidence/bdd"
        (Staged.stage (fun () -> Lineage.Bdd.prob manager db_p bdd));
      Test.make ~name:"state/gain"
        (Staged.stage (fun () -> Optimize.State.gain st 0 0.1));
      Test.make ~name:"partition/1K"
        (Staged.stage (fun () -> Optimize.Partition.partition p));
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      Hashtbl.iter
        (fun name raw ->
          let est = Analyze.one ols Instance.monotonic_clock raw in
          match Analyze.OLS.estimates est with
          | Some [ ns ] -> row "  %-34s %12.1f ns/run\n" name ns
          | _ -> row "  %-34s (no estimate)\n" name)
        results)
    tests

(* ------------------------------------------------------------------ *)
(* sweep-jobs: parallel divide-and-conquer and Monte-Carlo scaling.

   For each workload size, solves the same instance at every jobs level
   and checks the outcome (cost, increments, stats) is bit-identical to
   the jobs=1 run — the subsystem's determinism contract — while
   recording wall time and speedup.  Written to BENCH_parallel.json. *)

let parallel_json_path = "BENCH_parallel.json"

let hist_json = function
  | None -> "null"
  | Some (h : Obs.Metrics.histogram) ->
    Printf.sprintf
      "{\"count\":%d,\"sum\":%g,\"min\":%g,\"max\":%g,\"mean\":%g,\"p50\":%g,\"p90\":%g,\"p99\":%g}"
      h.Obs.Metrics.count h.sum h.min h.max h.mean h.p50 h.p90 h.p99

let sweep_jobs ?(sizes = [ 10_000; 50_000; 100_000 ])
    ?(jobs_levels = [ 1; 2; 4; 8 ]) ?(mc_samples = 400_000) () =
  header "sweep-jobs: parallel D&C / Monte-Carlo scaling";
  let cores = Domain.recommended_domain_count () in
  (* requested levels go through the same clamp the library applies:
     more domains than cores only measures contention (every point of an
     oversubscribed sweep reports speedup < 1), so e.g. [1;2;4;8] on a
     2-core host sweeps [1;2] *)
  let jobs_levels =
    List.sort_uniq compare
      (List.map (fun j -> Exec.resolve_jobs ~jobs:j ()) jobs_levels)
  in
  row "  host cores: %d (Domain.recommended_domain_count); speedups above\n"
    cores;
  row "  the core count are not expected — identical outcomes are;\n";
  row "  jobs levels clamped to the core count: %s\n"
    (String.concat ", " (List.map string_of_int jobs_levels));
  let dnc_entries = ref [] in
  List.iter
    (fun size ->
      let params =
        {
          Synth.default_params with
          data_size = size;
          bases_per_result = bpr_for_size size;
        }
      in
      row "  -- %d base tuples --\n" size;
      row "  %-6s %12s %10s %14s %12s %10s\n" "jobs" "solve t(s)" "speedup"
        "cost" "increments" "identical";
      let baseline = ref None in
      List.iter
        (fun jobs ->
          let run pool =
            let problem = Synth.instance ?pool ~params ~seed:29 () in
            let metrics = Obs.Metrics.create () in
            let out, dt = time (fun () -> D.solve ~metrics ?pool ~now problem) in
            (out, metrics, dt)
          in
          let out, metrics, dt =
            if jobs <= 1 then run None
            else Exec.Pool.with_pool ~jobs (fun p -> run (Some p))
          in
          let fingerprint = (out.D.cost, out.D.solution, out.D.stats) in
          let t1, identical =
            match !baseline with
            | None ->
              baseline := Some (dt, fingerprint);
              (dt, true)
            | Some (t1, fp1) -> (t1, fp1 = fingerprint)
          in
          let speedup = t1 /. Float.max dt 1e-9 in
          row "  %-6d %12.3f %9.2fx %14.1f %12d %10b\n" jobs dt speedup
            out.D.cost
            (List.length out.D.solution)
            identical;
          dnc_entries :=
            Printf.sprintf
              "    {\"size\":%d,\"jobs\":%d,\"solve_s\":%g,\"speedup\":%g,\"cost\":%g,\"increments\":%d,\"identical\":%b,\"group_solve_s\":%s}"
              size jobs dt speedup out.D.cost
              (List.length out.D.solution)
              identical
              (hist_json (Obs.Metrics.histogram metrics "dnc.group_solve_s"))
            :: !dnc_entries)
        jobs_levels)
    sizes;
  (* Monte-Carlo confidence over one result formula of the first size *)
  let mc_entries =
    match sizes with
    | [] -> []
    | size :: _ ->
      let params =
        {
          Synth.default_params with
          data_size = size;
          bases_per_result = bpr_for_size size;
        }
      in
      let p = Synth.instance ~params ~seed:29 () in
      let formula = (Problem.result p 0).Problem.formula in
      let db_p tid =
        match Problem.bid_of_tid p tid with
        | Some bid -> (Problem.base p bid).Problem.p0
        | None -> 0.0
      in
      row "  -- Monte-Carlo confidence (%d samples, one formula) --\n"
        mc_samples;
      row "  %-6s %12s %10s %14s %10s\n" "jobs" "mc t(s)" "speedup" "estimate"
        "identical";
      let run pool =
        time (fun () ->
            Lineage.Prob.monte_carlo ?pool
              (Prng.Splitmix.of_int 31)
              ~samples:mc_samples db_p formula)
      in
      let baseline = ref None in
      List.map
        (fun jobs ->
          let est, dt =
            if jobs <= 1 then run None
            else Exec.Pool.with_pool ~jobs (fun p -> run (Some p))
          in
          let t1, identical =
            match !baseline with
            | None ->
              baseline := Some (dt, est);
              (dt, true)
            | Some (t1, est1) -> (t1, est1 = est)
          in
          let speedup = t1 /. Float.max dt 1e-9 in
          row "  %-6d %12.3f %9.2fx %14.6f %10b\n" jobs dt speedup est
            identical;
          Printf.sprintf
            "    {\"jobs\":%d,\"samples\":%d,\"estimate\":%g,\"elapsed_s\":%g,\"speedup\":%g,\"identical\":%b}"
            jobs mc_samples est dt speedup identical)
        jobs_levels
  in
  let oc = open_out parallel_json_path in
  Printf.fprintf oc "{\n  %s,\n  \"dnc\": [\n" (machine_fields ());
  output_string oc (String.concat ",\n" (List.rev !dnc_entries));
  output_string oc "\n  ],\n  \"monte_carlo\": [\n";
  output_string oc (String.concat ",\n" mc_entries);
  output_string oc "\n  ]\n}\n";
  close_out oc;
  row "  wrote %d D&C points and %d Monte-Carlo points to %s\n"
    (List.length !dnc_entries)
    (List.length mc_entries)
    parallel_json_path

(* ------------------------------------------------------------------ *)
(* solvers-json: machine-readable artifact with the four solvers'
   structured telemetry and the engine's per-stage span timings *)

let solvers_json_path = "BENCH_solvers.json"

let solvers_json ?(size = 1000) () =
  header (Printf.sprintf "solvers-json: writing %s" solvers_json_path);
  let fields_json fields =
    String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "%S:%g" k v) fields)
  in
  (* all four solvers, each on the largest instance it handles comfortably:
     the exact heuristic gets the paper's small instance, the scalable
     three get the 1K default *)
  let small = Synth.small_instance ~seed:23 () in
  let p1k =
    Synth.instance ~params:{ Synth.default_params with data_size = size }
      ~seed:23 ()
  in
  let solver_entry (algorithm, problem, size) =
    let obs = Obs.wall () in
    let out = Optimize.Solver.solve ~algorithm ~obs problem in
    let name = Optimize.Solver.algorithm_name algorithm in
    row "  %-22s %8.3f s  %s\n" name out.Optimize.Solver.elapsed_s
      out.Optimize.Solver.detail;
    Printf.sprintf
      "    {\"solver\":%S,\"size\":%d,\"elapsed_s\":%g,\"feasible\":%b,\"cost\":%g,\"stats\":{%s}}"
      name size out.Optimize.Solver.elapsed_s
      (out.Optimize.Solver.solution <> None)
      out.Optimize.Solver.cost
      (fields_json (Optimize.Solver.stats_fields out.Optimize.Solver.stats))
  in
  let solver_entries =
    List.map solver_entry
      [
        (Optimize.Solver.heuristic, small, Problem.num_bases small);
        (Optimize.Solver.greedy, p1k, Problem.num_bases p1k);
        (Optimize.Solver.divide_conquer, p1k, Problem.num_bases p1k);
        (Optimize.Solver.annealing, p1k, Problem.num_bases p1k);
      ]
  in
  (* engine stage timings: a small end-to-end query whose low confidences
     force the whole pipeline, strategy finding included *)
  let stage_entries =
    let open Relational in
    let r =
      Relation.create "R"
        (Schema.of_list [ ("k", Value.TInt); ("n", Value.TInt) ])
    in
    let db = Database.add_relation Database.empty r in
    let rng = Prng.Splitmix.of_int 7 in
    let db =
      List.fold_left
        (fun db i ->
          fst
            (Database.insert db "R"
               [ Value.Int i; Value.Int (Prng.Splitmix.int rng 100) ]
               ~conf:0.5))
        db
        (List.init 200 Fun.id)
    in
    let rbac =
      match
        Rbac.Config.parse
          "role Analyst\nuser ann\nassign ann Analyst\ngrant Analyst select *\n"
      with
      | Ok r -> r
      | Error m -> failwith m
    in
    let policies =
      match Rbac.Policy.parse_store "Analyst, analysis, 0.6" with
      | Ok s -> s
      | Error m -> failwith m
    in
    let obs = Obs.wall () in
    let ctx = Pcqe.Engine.make_context ~obs ~db ~rbac ~policies () in
    let request =
      {
        Pcqe.Engine.query = Pcqe.Query.sql "SELECT k FROM R WHERE n < 50";
        user = "ann";
        purpose = "analysis";
        perc = 0.9;
      }
    in
    (match Pcqe.Engine.answer ctx request with
    | Ok _ -> ()
    | Error m -> failwith m);
    let sink, get = Obs.Sink.memory () in
    Obs.drain obs sink;
    List.filter_map
      (function
        | Obs.Sink.Span { path; elapsed; _ } ->
          Some
            (Printf.sprintf "    {\"stage\":%S,\"elapsed_s\":%g}"
               (String.concat "/" path) elapsed)
        | _ -> None)
      (get ())
  in
  let oc = open_out solvers_json_path in
  Printf.fprintf oc "{\n  %s,\n  \"solvers\": [\n" (machine_fields ());
  output_string oc (String.concat ",\n" solver_entries);
  output_string oc "\n  ],\n  \"engine_stages\": [\n";
  output_string oc (String.concat ",\n" stage_entries);
  output_string oc "\n  ]\n}\n";
  close_out oc;
  row "  wrote %d solver entries and %d engine stages to %s\n"
    (List.length solver_entries)
    (List.length stage_entries)
    solvers_json_path

(* ------------------------------------------------------------------ *)
(* sweep-incremental: A/B of incremental confidence re-evaluation (affine
   coefficient caches + lineage dedup) against the forced-off baseline.
   Both sides must return identical solutions, satisfied sets and costs —
   the panel fails hard otherwise — and on every non-trivial point (where
   the baseline re-evaluates beyond the initial pass) the incremental side
   must perform strictly fewer full lineage evaluations.  Writes
   BENCH_incremental.json. *)

let incremental_json_path = "BENCH_incremental.json"

(* Entangled-lineage instance for the branch-and-bound point: result [j]'s
   formula is an Or of pairwise Ands over a sliding window of [width]
   bases, so every variable occurs in several clauses.  Non-read-once
   lineage compiles to an OBDD whose probability evaluation allocates a
   fresh memo table per call — exactly the regime where replacing
   re-evaluations with cached affine coefficients pays in wall time, not
   just in counters. *)
let entangled_problem ~incremental ~num_bases ~num_results ~width ~required
    ~seed () =
  let rng = Prng.Splitmix.of_int seed in
  let bases =
    List.init num_bases (fun i ->
        {
          Problem.tid = Lineage.Tid.make "ent" i;
          p0 = Prng.Splitmix.float_in rng 0.05 0.15;
          cap = 1.0;
          cost = Cost.Cost_model.random rng;
        })
  in
  let tids = Array.of_list (List.map (fun b -> b.Problem.tid) bases) in
  let formulas =
    List.init num_results (fun j ->
        Lineage.Formula.disj
          (List.init (width - 1) (fun i ->
               let a = tids.((j + i) mod num_bases) in
               let b = tids.((j + i + 1) mod num_bases) in
               Lineage.Formula.conj
                 [ Lineage.Formula.var a; Lineage.Formula.var b ])))
  in
  Problem.make_exn ~delta:0.1 ~incremental ~beta:0.6 ~required ~bases
    ~formulas ()

(* self-join-style companion instance: every lineage formula appears
   [copies] times, the shape hash-consing collapses into shared classes *)
let dup_problem ~incremental ~copies ~size ~seed () =
  let p =
    Synth.instance
      ~params:{ Synth.default_params with data_size = size }
      ~seed ()
  in
  let bases = Array.to_list (Problem.bases p) in
  let formulas =
    Array.to_list (Problem.results p)
    |> List.map (fun r -> r.Problem.formula)
  in
  let formulas = List.concat (List.init copies (fun _ -> formulas)) in
  Problem.make_exn ~delta:(Problem.delta p) ~incremental
    ~beta:(Problem.beta p)
    ~required:(copies * Problem.required p)
    ~bases ~formulas ()

let sweep_incremental ?(size = 1000) ?(bases_per_result = 25)
    ?(annealing_iters = 100_000) ?(bb_max_nodes = None) () =
  header "sweep-incremental: affine caches + lineage dedup vs full re-evaluation";
  row "  %-22s %6s %11s %11s %11s %8s %7s %8s\n" "solver" "bases" "full(off)"
    "full(on)" "incr(on)" "invalid" "dedup" "speedup";
  let field out name =
    match
      List.assoc_opt name
        (Optimize.Solver.stats_fields out.Optimize.Solver.stats)
    with
    | Some v -> int_of_float v
    | None -> 0
  in
  (* probe-heavy solvers (greedy, D&C) get the wide-lineage regime
     ([bases_per_result], Table 4 row 2 sweep) where evaluations are
     expensive; the annealing random walk gets the Table 4 default — its
     cache hits come from same-base revisits, which need bases that occur
     in many formulas *)
  let synth_point ?bpr incremental =
    let bases_per_result =
      match bpr with Some b -> b | None -> bases_per_result
    in
    Synth.instance
      ~params:{ Synth.default_params with data_size = size; bases_per_result }
      ~incremental ~seed:11 ()
  in
  let entries =
    List.map
      (fun (label, algorithm, make_problem) ->
        let pb_on = make_problem true in
        let pb_off = make_problem false in
        let out_on, t_on =
          time (fun () -> Optimize.Solver.solve ~algorithm pb_on)
        in
        let out_off, t_off =
          time (fun () -> Optimize.Solver.solve ~algorithm pb_off)
        in
        (* identical outputs, or the A/B comparison is meaningless *)
        if out_on.Optimize.Solver.solution <> out_off.Optimize.Solver.solution
        then failwith (label ^ ": solutions differ between cache on and off");
        if
          out_on.Optimize.Solver.satisfied
          <> out_off.Optimize.Solver.satisfied
        then
          failwith (label ^ ": satisfied sets differ between cache on and off");
        if out_on.Optimize.Solver.cost <> out_off.Optimize.Solver.cost then
          failwith (label ^ ": costs differ between cache on and off");
        let full_on = field out_on "full_evals" in
        let full_off = field out_off "full_evals" in
        let incr_on = field out_on "incremental_evals" in
        let invalid = field out_on "coeff_invalidations" in
        let dedup = field out_on "dedup_formulas" in
        (* non-trivial = the baseline re-evaluated beyond its initial
           per-result pass; there the cache must win outright *)
        if full_off > Problem.num_results pb_off && full_on >= full_off then
          failwith
            (Printf.sprintf
               "%s: incremental path did %d full evals, baseline %d" label
               full_on full_off);
        let speedup = if t_on > 0.0 then t_off /. t_on else 1.0 in
        let nb = Problem.num_bases pb_on in
        row "  %-22s %6d %11d %11d %11d %8d %7d %7.2fx\n" label nb full_off
          full_on incr_on invalid dedup speedup;
        Printf.sprintf
          "    {\"solver\":%S,\"bases\":%d,\"results\":%d,\"feasible\":%b,\"cost\":%g,\"full_evals_baseline\":%d,\"full_evals_incremental\":%d,\"incremental_evals\":%d,\"coeff_invalidations\":%d,\"dedup_formulas\":%d,\"elapsed_s_baseline\":%g,\"elapsed_s_incremental\":%g,\"speedup\":%g,\"identical_outputs\":true}"
          label nb (Problem.num_results pb_on)
          (out_on.Optimize.Solver.solution <> None)
          out_on.Optimize.Solver.cost full_off full_on incr_on invalid dedup
          t_off t_on speedup)
      [
        ("greedy", Optimize.Solver.greedy, fun i -> synth_point i);
        ( "divide-and-conquer",
          Optimize.Solver.divide_conquer,
          fun i -> synth_point i );
        ( "simulated-annealing",
          Optimize.Solver.Annealing
            {
              Optimize.Annealing.default_config with
              iterations = annealing_iters;
            },
          synth_point ~bpr:Synth.default_params.Synth.bases_per_result );
        ( "heuristic(entangled)",
          Optimize.Solver.Heuristic
            { Optimize.Heuristic.default_config with max_nodes = bb_max_nodes },
          fun incremental ->
            entangled_problem ~incremental ~num_bases:12 ~num_results:10
              ~width:5 ~required:4 ~seed:11 () );
        ( "greedy(self-join x4)",
          Optimize.Solver.greedy,
          fun incremental ->
            dup_problem ~incremental ~copies:4 ~size:(size / 2) ~seed:11 () );
      ]
  in
  let oc = open_out incremental_json_path in
  Printf.fprintf oc "{\n  %s,\n  \"points\": [\n" (machine_fields ());
  output_string oc (String.concat ",\n" entries);
  output_string oc "\n  ]\n}\n";
  close_out oc;
  row "  wrote %d points to %s\n" (List.length entries) incremental_json_path

(* ------------------------------------------------------------------ *)

(* sweep-resilience: the deadline's contract, measured.  Solve many
   seeded instances twice — unbounded, and under a wall deadline — and
   compare the latency distributions.  The deadline must bound the tail
   (p99) at roughly the budget, and every deadline-cut answer that
   reports a solution must still be feasible (degraded optimality, never
   degraded compliance).  Writes BENCH_resilience.json. *)

let resilience_json_path = "BENCH_resilience.json"

let percentile xs p =
  match xs with
  | [] -> nan
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let i = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) i))

let sweep_resilience ?(size = 2000) ?(seeds = 20) ?(deadline_ms = 100.0) () =
  header
    (Printf.sprintf
       "sweep-resilience: solve latency, %gms wall deadline vs unbounded"
       deadline_ms);
  row "  %-6s %14s %14s %10s %10s\n" "seed" "unbounded(ms)" "deadline(ms)"
    "partial" "feasible";
  let solve ~ms problem =
    let deadline =
      match ms with
      | None -> Resilience.Deadline.never
      | Some ms -> Resilience.Deadline.wall_ms ms
    in
    time (fun () ->
        Optimize.Solver.solve ~algorithm:Optimize.Solver.divide_conquer
          ~deadline problem)
  in
  let entries =
    List.init seeds (fun i ->
        let seed = 100 + i in
        let problem =
          Synth.instance
            ~params:{ Synth.default_params with data_size = size }
            ~seed ()
        in
        let out_u, t_u = solve ~ms:None problem in
        let out_d, t_d = solve ~ms:(Some deadline_ms) problem in
        let partial =
          match out_d.Optimize.Solver.resolution with
          | Optimize.Solver.Complete -> false
          | Optimize.Solver.Partial _ -> true
        in
        (* the resilience contract: a reported solution is feasible even
           when the deadline cut the solve short *)
        (match out_d.Optimize.Solver.solution with
        | Some _
          when List.length out_d.Optimize.Solver.satisfied
               < Problem.required problem ->
          failwith
            (Printf.sprintf
               "seed %d: deadline-cut solution is infeasible (%d < %d)" seed
               (List.length out_d.Optimize.Solver.satisfied)
               (Problem.required problem))
        | _ -> ());
        row "  %-6d %14.2f %14.2f %10b %10b\n" seed (1000.0 *. t_u)
          (1000.0 *. t_d) partial
          (out_d.Optimize.Solver.solution <> None);
        ( t_u,
          t_d,
          partial,
          Printf.sprintf
            "    \
             {\"seed\":%d,\"elapsed_unbounded_s\":%g,\"elapsed_deadline_s\":%g,\"partial\":%b,\"feasible_unbounded\":%b,\"feasible_deadline\":%b}"
            seed t_u t_d partial
            (out_u.Optimize.Solver.solution <> None)
            (out_d.Optimize.Solver.solution <> None) ))
  in
  let t_us = List.map (fun (t, _, _, _) -> t) entries in
  let t_ds = List.map (fun (_, t, _, _) -> t) entries in
  let partials =
    List.length (List.filter (fun (_, _, p, _) -> p) entries)
  in
  let p50_u = percentile t_us 50.0 and p99_u = percentile t_us 99.0 in
  let p50_d = percentile t_ds 50.0 and p99_d = percentile t_ds 99.0 in
  row "  p50: unbounded %.2fms, deadline %.2fms\n" (1000.0 *. p50_u)
    (1000.0 *. p50_d);
  row "  p99: unbounded %.2fms, deadline %.2fms (budget %gms), %d/%d partial\n"
    (1000.0 *. p99_u) (1000.0 *. p99_d) deadline_ms partials seeds;
  let oc = open_out resilience_json_path in
  Printf.fprintf oc "{\n  %s,\n  \"deadline_ms\": %g,\n  \"points\": [\n"
    (machine_fields ()) deadline_ms;
  output_string oc
    (String.concat ",\n" (List.map (fun (_, _, _, j) -> j) entries));
  Printf.fprintf oc
    "\n\
    \  ],\n\
    \  \"summary\": {\"p50_unbounded_s\": %g, \"p99_unbounded_s\": %g, \
     \"p50_deadline_s\": %g, \"p99_deadline_s\": %g, \"partials\": %d, \
     \"seeds\": %d}\n\
     }\n"
    p50_u p99_u p50_d p99_d partials seeds;
  close_out oc;
  row "  wrote %d points to %s\n" seeds resilience_json_path

(* ------------------------------------------------------------------ *)

(* sweep-serving: the staged serving pipeline (prepared plans, database
   epochs, per-epoch confidence caches) against the cold per-request
   path.  Three workloads: one query answered repeatedly by one
   principal, one query for 1/8/64 principals, and a re-answer after
   accepting an improvement proposal (only the dirtied lineage classes
   may be recomputed).  Every warm response must be identical to its
   cold counterpart — the panel fails hard otherwise; wall times,
   speedups and the reuse counters go to BENCH_serving.json. *)

let serving_json_path = "BENCH_serving.json"

let resp_fingerprint (r : Pcqe.Engine.response) =
  ( List.map
      (fun (rel : Pcqe.Engine.released) ->
        ( rel.Pcqe.Engine.tuple,
          rel.Pcqe.Engine.lineage,
          rel.Pcqe.Engine.confidence ))
      r.Pcqe.Engine.released,
    r.Pcqe.Engine.withheld,
    r.Pcqe.Engine.ambiguous,
    r.Pcqe.Engine.requested,
    r.Pcqe.Engine.threshold,
    (* elapsed_s is wall time and legitimately differs; everything the
       requester acts on must not *)
    Option.map
      (fun (p : Pcqe.Engine.proposal) ->
        ( p.Pcqe.Engine.increments,
          p.Pcqe.Engine.cost,
          p.Pcqe.Engine.projected_release ))
      r.Pcqe.Engine.proposal,
    r.Pcqe.Engine.infeasible,
    r.Pcqe.Engine.degraded )

let outcome_fingerprint = function
  | Ok r -> Ok (resp_fingerprint r)
  | Error m -> Error m

let serving_context ~rows ~principals ~seed () =
  let open Relational in
  let r =
    Relation.create "R" (Schema.of_list [ ("k", Value.TInt); ("n", Value.TInt) ])
  in
  let db = Database.add_relation Database.empty r in
  let rng = Prng.Splitmix.of_int seed in
  let db =
    List.fold_left
      (fun db i ->
        fst
          (Database.insert db "R"
             [ Value.Int i; Value.Int (Prng.Splitmix.int rng 100) ]
             ~conf:(Prng.Splitmix.float_in rng 0.35 0.95)))
      db (List.init rows Fun.id)
  in
  let users = List.init principals (fun i -> Printf.sprintf "u%02d" i) in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "role Analyst\n";
  List.iter
    (fun u ->
      Buffer.add_string buf (Printf.sprintf "user %s\nassign %s Analyst\n" u u))
    users;
  Buffer.add_string buf "grant Analyst select *\n";
  let rbac =
    match Rbac.Config.parse (Buffer.contents buf) with
    | Ok r -> r
    | Error m -> failwith m
  in
  let policies =
    match Rbac.Policy.parse_store "Analyst, serve, 0.6" with
    | Ok s -> s
    | Error m -> failwith m
  in
  (Pcqe.Engine.make_context ~db ~rbac ~policies (), users)

let serving_sql = "SELECT k FROM R WHERE n < 70"

let assert_identical label colds warms =
  List.iteri
    (fun i (c, w) ->
      if outcome_fingerprint c <> outcome_fingerprint w then
        failwith
          (Printf.sprintf "%s: response %d differs between cold and warm"
             label (i + 1)))
    (List.combine colds warms)

(* cold = per-request Engine.answer without caches; warm = a second
   Session.batch round over the same requests (the first round, which
   fills the caches, is also checked against cold) *)
let serving_ab label ctx requests =
  let cold, t_cold =
    time (fun () -> List.map (fun r -> Pcqe.Engine.answer ctx r) requests)
  in
  let session = Pcqe.Engine.Session.create ctx in
  let first = Pcqe.Engine.Session.batch session requests in
  let warm, t_warm =
    time (fun () -> Pcqe.Engine.Session.batch session requests)
  in
  assert_identical (label ^ " (filling round)") cold first;
  assert_identical (label ^ " (warm round)") cold warm;
  (t_cold, t_warm, t_cold /. Float.max t_warm 1e-9)

let sweep_serving ?(rows = 2000) ?(reps = 64)
    ?(principal_counts = [ 1; 8; 64 ]) ?(seed = 41) () =
  header
    "sweep-serving: prepared plans + per-epoch confidence caches vs cold path";
  row "  every warm answer is checked identical to its cold counterpart\n";
  (* (1) one principal repeats one query [reps] times *)
  let repeated_entry =
    let ctx, users = serving_context ~rows ~principals:1 ~seed () in
    let user = List.hd users in
    let requests =
      List.init reps (fun _ ->
          {
            Pcqe.Engine.query = Pcqe.Query.sql serving_sql;
            user;
            purpose = "serve";
            perc = 0.3;
          })
    in
    let t_cold, t_warm, speedup = serving_ab "repeated-query" ctx requests in
    (* warm per-answer latency distribution, read back from the serving
       path's bounded [serving.answer_s] histogram — the same fixed-memory
       sketch the CLI exports, so the panel also keeps the metrics
       plumbing honest *)
    let warm_p50, warm_p99 =
      let obs = Obs.wall () in
      let session =
        Pcqe.Engine.Session.create { ctx with Pcqe.Engine.obs = Some obs }
      in
      ignore (Pcqe.Engine.Session.batch session requests);
      List.iter
        (fun r -> ignore (Pcqe.Engine.Session.answer session r))
        requests;
      match Obs.Metrics.histogram obs.Obs.metrics "serving.answer_s" with
      | Some h -> (h.Obs.Metrics.p50, h.Obs.Metrics.p99)
      | None -> failwith "sweep-serving: serving.answer_s histogram missing"
    in
    row "  %-24s cold %8.4fs  warm %8.4fs  %7.1fx  (warm p50 %.2gs p99 %.2gs)\n"
      (Printf.sprintf "repeated query x%d" reps)
      t_cold t_warm speedup warm_p50 warm_p99;
    Printf.sprintf
      "  \"repeated_query\": \
       {\"rows\":%d,\"requests\":%d,\"cold_s\":%g,\"warm_s\":%g,\"warm_p50_s\":%g,\"warm_p99_s\":%g,\"speedup\":%g,\"identical\":true}"
      rows reps t_cold t_warm warm_p50 warm_p99 speedup
  in
  (* (2) the same query for 1, 8, 64 principals: plans are shared across
     users and identical lineage classes are computed once *)
  let principal_entries =
    List.map
      (fun n ->
        let ctx, users = serving_context ~rows ~principals:n ~seed () in
        let requests =
          List.map
            (fun user ->
              {
                Pcqe.Engine.query = Pcqe.Query.sql serving_sql;
                user;
                purpose = "serve";
                perc = 0.3;
              })
            users
        in
        let t_cold, t_warm, speedup =
          serving_ab (Printf.sprintf "%d principals" n) ctx requests
        in
        row "  %-24s cold %8.4fs  warm %8.4fs  %7.1fx\n"
          (Printf.sprintf "%d principal(s)" n)
          t_cold t_warm speedup;
        Printf.sprintf
          "    \
           {\"principals\":%d,\"rows\":%d,\"cold_s\":%g,\"warm_s\":%g,\"speedup\":%g,\"identical\":true}"
          n rows t_cold t_warm speedup)
      principal_counts
  in
  (* (3) accept_proposal then re-answer: the confidence epoch advances,
     targeted invalidation drops exactly the raised tuples' classes, and
     the warm re-answer recomputes only those (kept small so the number
     of increments stays within the database's bounded change log) *)
  let post_accept_entry =
    (* the safe-plan fast path would answer this hierarchical query
       without ever touching the confidence cache; pin it off — this
       entry asserts the cache's epoch machinery specifically *)
    with_circuits false @@ fun () ->
    let post_rows = min rows 400 in
    let ctx, users = serving_context ~rows:post_rows ~principals:1 ~seed () in
    let user = List.hd users in
    let request =
      {
        Pcqe.Engine.query = Pcqe.Query.sql serving_sql;
        user;
        purpose = "serve";
        perc = 0.8;
      }
    in
    let session = Pcqe.Engine.Session.create ctx in
    let proposal =
      match Pcqe.Engine.Session.batch session [ request ] with
      | [ Ok r ] -> (
        match r.Pcqe.Engine.proposal with
        | Some p -> p
        | None -> failwith "sweep-serving: expected an improvement proposal")
      | [ Error m ] -> failwith ("sweep-serving: post-accept setup: " ^ m)
      | _ -> assert false
    in
    let stat stats name =
      match List.assoc_opt name stats with Some v -> v | None -> 0
    in
    let before = Pcqe.Engine.Session.cache_stats session in
    Pcqe.Engine.Session.accept_proposal session proposal;
    let ctx_after = Pcqe.Engine.accept_proposal ctx proposal in
    let cold, t_cold = time (fun () -> Pcqe.Engine.answer ctx_after request) in
    let warm, t_warm =
      time (fun () -> Pcqe.Engine.Session.answer session request)
    in
    assert_identical "post-accept" [ cold ] [ warm ];
    let after = Pcqe.Engine.Session.cache_stats session in
    let d name = stat after name - stat before name in
    let reused = d "serving.reused_classes" in
    let recomputed = d "serving.recomputed_classes" in
    let invalidated = d "serving.invalidated_classes" in
    (* the whole point of the epoch machinery: untouched classes survive
       the accept and are served from cache *)
    if reused = 0 then
      failwith "sweep-serving: post-accept re-answer reused no classes";
    if invalidated = 0 then
      failwith "sweep-serving: accept_proposal invalidated no classes";
    let speedup = t_cold /. Float.max t_warm 1e-9 in
    row
      "  %-24s cold %8.4fs  warm %8.4fs  %7.1fx  (%d reused, %d recomputed, \
       %d invalidated)\n"
      "post-accept re-answer" t_cold t_warm speedup reused recomputed
      invalidated;
    Printf.sprintf
      "  \"post_accept\": \
       {\"rows\":%d,\"increments\":%d,\"reused_classes\":%d,\"recomputed_classes\":%d,\"invalidated_classes\":%d,\"cold_s\":%g,\"warm_s\":%g,\"speedup\":%g,\"identical\":true}"
      post_rows
      (List.length proposal.Pcqe.Engine.increments)
      reused recomputed invalidated t_cold t_warm speedup
  in
  let oc = open_out serving_json_path in
  output_string oc "{\n";
  output_string oc ("  " ^ machine_fields () ^ ",\n");
  output_string oc (repeated_entry ^ ",\n");
  output_string oc "  \"principals\": [\n";
  output_string oc (String.concat ",\n" principal_entries);
  output_string oc "\n  ],\n";
  output_string oc (post_accept_entry ^ "\n");
  output_string oc "}\n";
  close_out oc;
  row "  wrote %d workloads to %s\n"
    (2 + List.length principal_entries)
    serving_json_path

(* ------------------------------------------------------------------ *)

(* sweep-columnar: the columnar batch engine against the row engine on
   the storage-layer hot paths.  Four measurements per instance size:

     ingest   — streaming CSV load vs the chunked-parallel bulk path
                (MB/s); the loaded relations (tids, tuples, confidences,
                order) must be identical
     scan     — materialize-and-aggregate over every row: the row engine
                walks the tuple map and unboxes per row, the columnar
                side sums the cached Bigarray column directly
     filter   — a selective predicate (x < 0.05), end-to-end through
                Eval.run vs Col_eval.run
     project  — duplicate-eliminating projection onto a low-cardinality
                string column (dictionary codes vs boxed hashing)
     top-K    — rank released rows by confidence: bounded heap
                (Topk.by_score) vs full stable sort + take

   Every point is identity-checked (results compared row for row,
   lineage included; the panel fails hard on any mismatch) before its
   ["identical": true] is written to BENCH_columnar.json. *)

let columnar_json_path = "BENCH_columnar.json"

(* synthetic instance: unique int key, 64-value string column, uniform
   real in [0,1), per-tuple confidence — deterministic in [seed] *)
let columnar_csv ~rows ~seed =
  let rng = Prng.Splitmix.of_int seed in
  let buf = Buffer.create ((rows * 28) + 64) in
  Buffer.add_string buf "k:int,grp:string,x:real,__confidence:real\n";
  for i = 0 to rows - 1 do
    Buffer.add_string buf (string_of_int i);
    Buffer.add_string buf
      (Printf.sprintf ",g%02d,%.4f,%.4f\n"
         (Prng.Splitmix.int rng 64)
         (Prng.Splitmix.float_in rng 0.0 1.0)
         (Prng.Splitmix.float_in rng 0.3 1.0))
  done;
  Buffer.contents buf

(* best-of-[reps] wall time; the first run's result is returned so
   identity checks see exactly what was timed *)
let timed_best reps f =
  let r, dt0 = time f in
  let rec go best n =
    if n <= 0 then best
    else
      let _, dt = time f in
      go (Float.min best dt) (n - 1)
  in
  (r, go dt0 (reps - 1))

let sweep_columnar ?(sizes = [ 100_000; 1_000_000 ]) ?(reps = 3) () =
  header "sweep-columnar: columnar batch engine vs row engine";
  let open Relational in
  let jobs = Exec.resolve_jobs () in
  row "  every point identity-checked against the row engine; effective\n";
  row "  ingest jobs: %d\n" jobs;
  let mrows n dt = float_of_int n /. 1e6 /. Float.max dt 1e-9 in
  let entries =
    List.map
      (fun size ->
        row "  -- %d rows --\n" size;
        Col_eval.clear_cache ();
        let text = columnar_csv ~rows:size ~seed:51 in
        let mb = float_of_int (String.length text) /. 1048576.0 in
        let load f =
          match f () with Ok db -> db | Error m -> failwith m
        in
        (* ingest: one timed run each — parsing is deterministic and the
           bulk path re-parses the whole document per call *)
        let db_seq, t_stream =
          time (fun () ->
              load (fun () -> Csv.load_into Database.empty ~name:"r" text))
        in
        let db, t_bulk =
          time (fun () ->
              load (fun () ->
                  Csv.load_string_bulk Database.empty ~name:"r" text))
        in
        let fingerprint db =
          let r = Database.relation_exn db "r" in
          Relation.fold
            (fun acc tid tup -> (tid, tup, Database.confidence db tid) :: acc)
            [] r
        in
        let ingest_ok = fingerprint db_seq = fingerprint db in
        if not ingest_ok then
          failwith "sweep-columnar: bulk ingest differs from sequential";
        row "    ingest   stream %8.3fs (%7.1f MB/s)   bulk %8.3fs (%7.1f MB/s)\n"
          t_stream
          (mb /. Float.max t_stream 1e-9)
          t_bulk
          (mb /. Float.max t_bulk 1e-9);
        (* columnarize once (reported), then the batch serves from cache *)
        let (), t_build =
          time (fun () -> ignore (Col_eval.scan_batch db "r"))
        in
        let batch =
          match Col_eval.scan_batch db "r" with
          | Some b -> b
          | None -> failwith "sweep-columnar: relation declined columnarization"
        in
        let scan_plan = Algebra.scan "r" in
        let xi = 2 (* index of x in (k, grp, x) *) in
        (* scan: both sides touch every row of the x column and fold the
           same additions in the same order, so the sums are bit-equal *)
        let row_scan () =
          let out = Eval.run_exn db scan_plan in
          List.fold_left
            (fun acc (r : Eval.row) ->
              match Tuple.get r.Eval.tuple xi with
              | Value.Float f -> acc +. f
              | Value.Int i -> acc +. float_of_int i
              | _ -> acc)
            0.0 out.Eval.rows
        in
        let col_scan () =
          match batch.Colbatch.cols.(xi) with
          | Colbatch.FCol { data; _ } ->
            let nulls = batch.Colbatch.nulls.(xi) in
            let acc = ref 0.0 in
            for p = 0 to batch.Colbatch.nrows - 1 do
              if Bytes.get nulls p = '\000' then
                acc := !acc +. Bigarray.Array1.get data p
            done;
            !acc
          | _ -> failwith "sweep-columnar: expected a real column"
        in
        let row_sum, t_row_scan = timed_best reps row_scan in
        let col_sum, t_col_scan = timed_best reps col_scan in
        let scan_ok =
          row_sum = col_sum
          && (Eval.run_exn db scan_plan).Eval.rows = Colbatch.to_rows batch
        in
        if not scan_ok then
          failwith "sweep-columnar: scan differs between row and columnar";
        let scan_speedup = t_row_scan /. Float.max t_col_scan 1e-9 in
        row "    scan     row %8.3fs (%6.1f Mrows/s)   col %8.3fs (%6.1f \
             Mrows/s)  %6.1fx\n"
          t_row_scan (mrows size t_row_scan) t_col_scan (mrows size t_col_scan)
          scan_speedup;
        (* filter and project: end-to-end Eval.run vs Col_eval.run *)
        let ab label plan =
          if not (Col_eval.vectorizes db plan) then
            failwith ("sweep-columnar: " ^ label ^ " plan does not vectorize");
          let run_row () = Eval.run_exn db plan in
          let run_col () =
            match Col_eval.run db plan with
            | Ok a -> a
            | Error m -> failwith ("sweep-columnar: " ^ label ^ ": " ^ m)
          in
          let ra, t_row = timed_best reps run_row in
          let ca, t_col = timed_best reps run_col in
          let ok =
            ra.Eval.schema = ca.Eval.schema && ra.Eval.rows = ca.Eval.rows
          in
          if not ok then
            failwith
              ("sweep-columnar: " ^ label ^ " differs between row and columnar");
          let speedup = t_row /. Float.max t_col 1e-9 in
          row "    %-8s row %8.3fs (%6.1f Mrows/s)   col %8.3fs (%6.1f \
               Mrows/s)  %6.1fx\n"
            label t_row (mrows size t_row) t_col (mrows size t_col) speedup;
          (ra, t_row, t_col, speedup)
        in
        let fa, t_row_filter, t_col_filter, filter_speedup =
          ab "filter" (Algebra.Select (Expr.(col "x" <% float 0.05), scan_plan))
        in
        let selectivity =
          float_of_int (List.length fa.Eval.rows) /. float_of_int size
        in
        let pa, t_row_project, t_col_project, project_speedup =
          ab "project" (Algebra.Project ([ "grp" ], scan_plan))
        in
        let groups = List.length pa.Eval.rows in
        (* top-K by confidence over the full scan's released rows *)
        let k = min 100 size in
        let scored = Eval.with_confidence db (Eval.run_exn db scan_plan) in
        let take n xs = List.filteri (fun i _ -> i < n) xs in
        let full_sort () =
          take k
            (List.stable_sort
               (fun (_, a) (_, b) -> Float.compare b a)
               scored)
        in
        let heap () = Topk.by_score ~k (fun (_, c) -> c) scored in
        let sorted, t_sort = timed_best reps full_sort in
        let heaped, t_heap = timed_best reps heap in
        let topk_ok = sorted = heaped in
        if not topk_ok then
          failwith "sweep-columnar: top-K heap differs from full sort";
        let topk_speedup = t_sort /. Float.max t_heap 1e-9 in
        row "    top-%-4d sort %7.3fs               heap %8.3fs  %6.1fx\n" k
          t_sort t_heap topk_speedup;
        Printf.sprintf
          "    \
           {\"size\":%d,\"mb\":%g,\"build_s\":%g,\"ingest\":{\"stream_s\":%g,\"bulk_s\":%g,\"stream_mb_per_s\":%g,\"bulk_mb_per_s\":%g,\"speedup\":%g,\"identical\":%b},\"scan\":{\"row_s\":%g,\"col_s\":%g,\"row_mrows_per_s\":%g,\"col_mrows_per_s\":%g,\"speedup\":%g,\"identical\":%b},\"filter\":{\"selectivity\":%g,\"row_s\":%g,\"col_s\":%g,\"speedup\":%g,\"identical\":%b},\"project\":{\"groups\":%d,\"row_s\":%g,\"col_s\":%g,\"speedup\":%g,\"identical\":%b},\"topk\":{\"k\":%d,\"sort_s\":%g,\"heap_s\":%g,\"speedup\":%g,\"identical\":%b}}"
          size mb t_build t_stream t_bulk
          (mb /. Float.max t_stream 1e-9)
          (mb /. Float.max t_bulk 1e-9)
          (t_stream /. Float.max t_bulk 1e-9)
          ingest_ok t_row_scan t_col_scan (mrows size t_row_scan)
          (mrows size t_col_scan) scan_speedup scan_ok selectivity t_row_filter
          t_col_filter filter_speedup true groups t_row_project t_col_project
          project_speedup true k t_sort t_heap topk_speedup topk_ok)
      sizes
  in
  let oc = open_out columnar_json_path in
  Printf.fprintf oc "{\n  %s,\n  \"points\": [\n" (machine_fields ());
  output_string oc (String.concat ",\n" entries);
  output_string oc "\n  ]\n}\n";
  close_out oc;
  row "  wrote %d points to %s\n" (List.length entries) columnar_json_path

(* ------------------------------------------------------------------ *)

(* sweep-circuits: the safe-plan confidence fast path and d-DNNF lineage
   circuits against the degradation ladder.  Three points, each
   identity-asserted (the panel fails hard on any mismatch) before its
   ["identical": true] is written to BENCH_circuits.json:

     safe-query   — a hierarchical (safe-plan) query answered through
                    the engine with the fast path on vs forced off (the
                    PCQE_CIRCUITS=0 behaviour); responses must be
                    bit-identical, the on-run must fire the
                    [engine.safe_plan] counter and label every released
                    row with tier ["safe_plan"]
     self-join    — an unsafe (non-read-once, self-join-shaped)
                    confidence workload re-priced across E confidence
                    epochs through a Conf_cache: the ladder pays Shannon
                    expansion every epoch, the circuit pays one compile
                    plus E linear passes; values must be bitwise equal
                    (circuits are restricted to the Shannon exactness
                    domain)
     solver       — incremental strategy-finding over entangled
                    dyadic-confidence lineage: circuit-backed vs
                    OBDD/Shannon-backed compiled evaluators; solver
                    outcomes must be identical (the dyadic δ-grid makes
                    every evaluator's arithmetic exact) *)

let circuits_json_path = "BENCH_circuits.json"

(* sliding-window entangled formulas over freshly inserted base tuples:
   Or of pairwise Ands, every variable in several clauses — the lineage
   shape of a selective self-join, non-read-once but inside the Shannon
   exactness domain (asserted below) *)
let circuits_self_join ~num_bases ~num_results ~width ~seed =
  let open Relational in
  let s = Relation.create "S" (Schema.of_list [ ("k", Value.TInt) ]) in
  let db = Database.add_relation Database.empty s in
  let rng = Prng.Splitmix.of_int seed in
  let db, rev_tids =
    List.fold_left
      (fun (db, acc) i ->
        let db, tid =
          Database.insert db "S" [ Value.Int i ]
            ~conf:(Prng.Splitmix.float_in rng 0.3 0.9)
        in
        (db, tid :: acc))
      (db, []) (List.init num_bases Fun.id)
  in
  let tids = Array.of_list (List.rev rev_tids) in
  let formulas =
    List.init num_results (fun j ->
        Lineage.Formula.disj
          (List.init (width - 1) (fun i ->
               let a = tids.((j + i) mod num_bases) in
               let b = tids.((j + i + 1) mod num_bases) in
               Lineage.Formula.conj
                 [ Lineage.Formula.var a; Lineage.Formula.var b ])))
  in
  (db, tids, formulas)

(* dyadic variant of [entangled_problem]: confidences and δ are exact
   binary fractions, so circuit, OBDD and Shannon evaluators all compute
   the same float bit for bit and solver outcomes can be compared with
   [=] rather than a tolerance *)
let entangled_dyadic ~num_bases ~num_results ~width ~required ~seed () =
  let rng = Prng.Splitmix.of_int seed in
  let dyadics = [| 0.125; 0.25; 0.375; 0.5 |] in
  let bases =
    List.init num_bases (fun i ->
        {
          Problem.tid = Lineage.Tid.make "cir" i;
          p0 = dyadics.(Prng.Splitmix.int rng 4);
          cap = 1.0;
          cost = Cost.Cost_model.random rng;
        })
  in
  let tids = Array.of_list (List.map (fun b -> b.Problem.tid) bases) in
  let formulas =
    List.init num_results (fun j ->
        Lineage.Formula.disj
          (List.init (width - 1) (fun i ->
               let a = tids.((j + i) mod num_bases) in
               let b = tids.((j + i + 1) mod num_bases) in
               Lineage.Formula.conj
                 [ Lineage.Formula.var a; Lineage.Formula.var b ])))
  in
  Problem.make_exn ~delta:0.25 ~incremental:true ~beta:0.6 ~required ~bases
    ~formulas ()

let sweep_circuits ?(rows = 2000) ?(reps = 3) ?(epochs = 48) ?(seed = 17) () =
  header "sweep-circuits: safe-plan fast path + lineage circuits vs ladder";
  row "  every point is checked identical to the ladder before writing\n";
  (* (1) safe-plan fast path through the engine *)
  let safe_entry =
    let ctx, users = serving_context ~rows ~principals:1 ~seed () in
    let user = List.hd users in
    let request =
      {
        Pcqe.Engine.query = Pcqe.Query.sql serving_sql;
        user;
        purpose = "serve";
        perc = 0.3;
      }
    in
    let answer () = Pcqe.Engine.answer ctx request in
    let on, t_on = timed_best reps (fun () -> with_circuits true answer) in
    let off, t_off = timed_best reps (fun () -> with_circuits false answer) in
    if outcome_fingerprint on <> outcome_fingerprint off then
      failwith "sweep-circuits: safe-query responses differ (on vs off)";
    (* untimed verification run: the fast path must actually fire and
       label every released row *)
    let obs = Obs.wall () in
    let verified =
      with_circuits true (fun () ->
          Pcqe.Engine.answer { ctx with Pcqe.Engine.obs = Some obs } request)
    in
    let released, withheld =
      match verified with
      | Error m -> failwith ("sweep-circuits: safe-query verify: " ^ m)
      | Ok r ->
        if Obs.Metrics.counter obs.Obs.metrics "engine.safe_plan" < 1 then
          failwith "sweep-circuits: engine.safe_plan did not fire";
        List.iter
          (fun (rel : Pcqe.Engine.released) ->
            if rel.Pcqe.Engine.conf_tier <> "safe_plan" then
              failwith
                (Printf.sprintf
                   "sweep-circuits: released row priced by %S, not safe_plan"
                   rel.Pcqe.Engine.conf_tier))
          r.Pcqe.Engine.released;
        (List.length r.Pcqe.Engine.released, r.Pcqe.Engine.withheld)
    in
    let speedup = t_off /. Float.max t_on 1e-9 in
    row "  %-24s off %8.5fs  on %8.5fs  %6.2fx  (released %d)\n"
      (Printf.sprintf "safe-query rows=%d" rows)
      t_off t_on speedup released;
    Printf.sprintf
      "    \
       \"safe_query\": \
       {\"rows\":%d,\"released\":%d,\"withheld\":%d,\"ladder_s\":%g,\"fast_path_s\":%g,\"speedup\":%g,\"safe_plan_fired\":true,\"identical\":true}"
      rows released withheld t_off t_on speedup
  in
  (* (2) unsafe self-join workload across confidence epochs *)
  let self_join_entry =
    let num_bases = 20 and num_results = 16 and width = 12 in
    let db0, tids, formulas =
      circuits_self_join ~num_bases ~num_results ~width ~seed
    in
    List.iter
      (fun f ->
        if Lineage.Formula.is_read_once f then
          failwith "sweep-circuits: self-join lineage is read-once";
        if
          Lineage.Prob.shannon_cost_estimate f
          > Lineage.Approx.exact_threshold
        then failwith "sweep-circuits: self-join lineage left Shannon domain")
      formulas;
    (* one confidence bump per epoch, every formula re-priced through the
       cache; returns every value computed so the two modes can be
       compared bit for bit *)
    let workload ?obs on () =
      with_circuits on (fun () ->
          let cache = Pcqe.Conf_cache.create () in
          let db = ref db0 in
          let values = ref [] in
          for e = 1 to epochs do
            (* touch a spread of bases so most formulas re-price each
               epoch — the self-join's every-query-dirty regime *)
            List.iter
              (fun k ->
                db :=
                  Relational.Database.set_confidence !db
                    tids.(((3 * e) + k) mod num_bases)
                    (0.25 +. (0.5 *. float_of_int e /. float_of_int epochs)))
              [ 0; 7; 13 ];
            List.iter
              (fun f ->
                values :=
                  Pcqe.Conf_cache.confidence ?obs cache ~db:!db f :: !values)
              formulas
          done;
          List.rev !values)
    in
    let ladder_vals, t_ladder = timed_best reps (workload false) in
    let circuit_vals, t_circuit = timed_best reps (workload true) in
    List.iter2
      (fun a b ->
        if Int64.bits_of_float a <> Int64.bits_of_float b then
          failwith
            (Printf.sprintf
               "sweep-circuits: self-join confidence differs: %.17g vs %.17g"
               a b))
      ladder_vals circuit_vals;
    (* untimed verification run: circuits built once, re-evaluated per
       epoch thereafter *)
    let obs = Obs.wall () in
    ignore (workload ~obs true ());
    let builds = Obs.Metrics.counter obs.Obs.metrics "ladder.circuit_build" in
    let reevals =
      Obs.Metrics.counter obs.Obs.metrics "ladder.circuit_reeval"
    in
    if builds < 1 then
      failwith "sweep-circuits: no circuit was built on the self-join";
    if reevals < 1 then
      failwith "sweep-circuits: no circuit re-evaluation on the self-join";
    let speedup = t_ladder /. Float.max t_circuit 1e-9 in
    row
      "  %-24s ladder %6.4fs  circuit %6.4fs  %6.2fx  (builds %d reevals \
       %d)\n"
      (Printf.sprintf "self-join epochs=%d" epochs)
      t_ladder t_circuit speedup builds reevals;
    Printf.sprintf
      "    \
       \"self_join_epochs\": \
       {\"bases\":%d,\"results\":%d,\"width\":%d,\"epochs\":%d,\"evals\":%d,\"circuit_builds\":%d,\"circuit_reevals\":%d,\"ladder_s\":%g,\"circuit_s\":%g,\"speedup\":%g,\"identical\":true}"
      num_bases num_results width epochs
      (List.length ladder_vals)
      builds reevals t_ladder t_circuit speedup
  in
  (* (3) solver incremental re-evaluation, circuit vs ladder evaluators *)
  let solver_entry =
    let num_bases = 18 and num_results = 15 and width = 7 and required = 7 in
    let make on =
      with_circuits on (fun () ->
          entangled_dyadic ~num_bases ~num_results ~width ~required ~seed ())
    in
    let pb_circ = make true in
    let pb_ladder = make false in
    let circuit_classes pb =
      let seen = Hashtbl.create 16 in
      let n = ref 0 in
      for rid = 0 to Problem.num_results pb - 1 do
        let cid = Problem.class_of_result pb rid in
        if not (Hashtbl.mem seen cid) then begin
          Hashtbl.add seen cid ();
          if Problem.evaluator_kind pb cid = "circuit" then incr n
        end
      done;
      !n
    in
    if circuit_classes pb_circ < 1 then
      failwith "sweep-circuits: no class compiled to a circuit";
    if circuit_classes pb_ladder <> 0 then
      failwith "sweep-circuits: forced-off problem still built circuits";
    (* branch-and-bound heuristic: the probe-heaviest solver — every
       node re-prices affected classes through the compiled evaluators *)
    let algorithm =
      Optimize.Solver.Heuristic Optimize.Heuristic.default_config
    in
    let solve pb () = Optimize.Solver.solve ~algorithm pb in
    let out_circ, t_circ = timed_best reps (solve pb_circ) in
    let out_ladder, t_ladder = timed_best reps (solve pb_ladder) in
    if out_circ.Optimize.Solver.solution <> out_ladder.Optimize.Solver.solution
    then failwith "sweep-circuits: solver solutions differ";
    if
      out_circ.Optimize.Solver.satisfied
      <> out_ladder.Optimize.Solver.satisfied
    then failwith "sweep-circuits: solver satisfied sets differ";
    if out_circ.Optimize.Solver.cost <> out_ladder.Optimize.Solver.cost then
      failwith "sweep-circuits: solver costs differ";
    let speedup = t_ladder /. Float.max t_circ 1e-9 in
    row "  %-24s ladder %6.4fs  circuit %6.4fs  %6.2fx  (classes %d)\n"
      (Printf.sprintf "solver bases=%d" num_bases)
      t_ladder t_circ speedup
      (Problem.num_classes pb_circ);
    Printf.sprintf
      "    \
       \"solver_incremental\": \
       {\"solver\":\"heuristic-bb\",\"jobs\":%d,\"bases\":%d,\"results\":%d,\"required\":%d,\"classes\":%d,\"circuit_classes\":%d,\"feasible\":%b,\"cost\":%g,\"ladder_s\":%g,\"circuit_s\":%g,\"speedup\":%g,\"identical\":true}"
      (Exec.resolve_jobs ()) num_bases num_results required
      (Problem.num_classes pb_circ)
      (circuit_classes pb_circ)
      (out_circ.Optimize.Solver.solution <> None)
      out_circ.Optimize.Solver.cost t_ladder t_circ speedup
  in
  let entries = [ safe_entry; self_join_entry; solver_entry ] in
  let oc = open_out circuits_json_path in
  Printf.fprintf oc "{\n  %s,\n" (machine_fields ());
  output_string oc (String.concat ",\n" entries);
  output_string oc "\n}\n";
  close_out oc;
  row "  wrote %d points to %s\n" (List.length entries) circuits_json_path

(* ------------------------------------------------------------------ *)

(* sweep-server: the fault-tolerant serving tier end to end, over a
   real unix-domain socket.  Three points:

     identity    — every wire answer's canonical body is compared
                   byte-for-byte against a per-principal in-process
                   Engine.Session.batch over the same request streams
                   (the wire adds framing, admission and sessions, but
                   must never change an answer)
     throughput  — a closed-loop Load_gen panel drives the server with
                   concurrent principals; sustained QPS and p50/p99
                   latency come from the generator's Hdr sketch, along
                   with shed / timeout / retry counts
     chaos       — with every net.* fault site armed, every request
                   still reaches a terminal outcome (answer, shed,
                   timeout or failure — never silence), and the first
                   post-chaos answer is again bit-identical to a fresh
                   in-process session

   The identity and chaos points fail the panel hard; the numbers go
   to BENCH_server.json. *)

let server_json_path = "BENCH_server.json"

let sweep_server ?(rows = 1500) ?(principals = 4) ?(requests = 30)
    ?(chaos_requests = 8) ?(seed = 47) () =
  header "sweep-server: wire serving tier — identity, throughput, chaos";
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pcqe_bench_srv_%d.sock" (Unix.getpid ()))
  in
  let with_server ?config ctx f =
    if Sys.file_exists sock then Sys.remove sock;
    let server = Net.Server.start ?config ~ctx (Net.Server.Unix_path sock) in
    Fun.protect
      ~finally:(fun () ->
        Net.Server.stop server;
        if Sys.file_exists sock then Sys.remove sock)
      (fun () -> f server)
  in
  let purpose = "serve" in
  let queries =
    [| serving_sql; "SELECT k FROM R WHERE n < 40"; "SELECT k FROM R" |]
  in
  (* (1) identity over the wire *)
  let identity_entry =
    let reps = 4 in
    let ctx, users = serving_context ~rows ~principals ~seed () in
    let stream u =
      List.concat
        (List.init reps (fun _ ->
             List.map (fun sql -> (u, sql)) (Array.to_list queries)))
    in
    let wire_bodies, t_wire =
      time (fun () ->
          with_server ctx (fun server ->
              List.map
                (fun u ->
                  let client =
                    Net.Client.create ~seed (Net.Server.address server)
                  in
                  Fun.protect
                    ~finally:(fun () -> Net.Client.close client)
                    (fun () ->
                      List.map
                        (fun (user, sql) ->
                          match
                            Net.Client.query client ~user ~purpose ~perc:0.6
                              sql
                          with
                          | Net.Client.Answer a -> a.Net.Wire.body
                          | o ->
                              failwith
                                (Printf.sprintf
                                   "sweep-server: wire query for %s not \
                                    answered (%s)"
                                   user
                                   (Net.Client.outcome_label o)))
                        (stream u)))
                users))
    in
    let local_bodies =
      List.map
        (fun u ->
          let session = Pcqe.Engine.Session.create ctx in
          Pcqe.Engine.Session.batch session
            (List.map
               (fun (user, sql) ->
                 { Pcqe.Engine.query = Pcqe.Query.sql sql; user; purpose;
                   perc = 0.6 })
               (stream u))
          |> List.map (fun r ->
                 match r with
                 | Ok resp -> Net.Wire.body_of_response resp
                 | Error m -> failwith ("sweep-server: local error: " ^ m)))
        users
    in
    let compared = ref 0 in
    List.iter2
      (fun ws ls ->
        List.iteri
          (fun i (w, l) ->
            incr compared;
            if not (String.equal w l) then
              failwith
                (Printf.sprintf
                   "sweep-server: response %d differs between wire and \
                    Session.batch"
                   i))
          (List.combine ws ls))
      wire_bodies local_bodies;
    row "  %-24s %d principals x %d requests  %7.4fs  (all bit-identical)\n"
      "identity vs batch" principals (reps * Array.length queries) t_wire;
    Printf.sprintf
      "  \"identity\": \
       {\"rows\":%d,\"principals\":%d,\"requests\":%d,\"wire_s\":%g,\"identical\":true}"
      rows principals !compared t_wire
  in
  (* (2) closed-loop throughput *)
  let throughput_entry =
    let ctx, users = serving_context ~rows ~principals ~seed () in
    let user_arr = Array.of_list users in
    with_server ctx (fun server ->
        let clients =
          Array.init principals (fun i ->
              Net.Client.create ~seed:(seed + (i * 7919))
                (Net.Server.address server))
        in
        Fun.protect
          ~finally:(fun () -> Array.iter Net.Client.close clients)
          (fun () ->
            let report =
              Workload.Load_gen.run
                {
                  Workload.Load_gen.principals;
                  requests_per_principal = requests;
                  think_ms = 0.0;
                  zipf_s = 1.1;
                  seed;
                }
                ~queries
                ~user_of:(fun i -> user_arr.(i mod Array.length user_arr))
                ~exec:(fun ~principal ~user ~sql ->
                  match
                    Net.Client.query clients.(principal) ~user ~purpose
                      ~perc:0.6 sql
                  with
                  | Net.Client.Answer a ->
                      Workload.Load_gen.Answered
                        { degraded = a.Net.Wire.degraded <> None }
                  | Net.Client.Shed _ -> Workload.Load_gen.Shed
                  | Net.Client.Timed_out _ -> Workload.Load_gen.Timed_out
                  | Net.Client.Accepted _ ->
                      Workload.Load_gen.Failed "unexpected accept"
                  | Net.Client.Failed m -> Workload.Load_gen.Failed m)
            in
            let open Workload.Load_gen in
            if report.failed > 0 then
              failwith "sweep-server: unfaulted load run had failures";
            if report.total <> principals * requests then
              failwith "sweep-server: load run lost requests";
            let retries =
              Array.fold_left
                (fun acc c -> acc + Net.Client.retries_used c)
                0 clients
            in
            let p50 = Obs.Hdr.quantile report.latency 0.5 in
            let p99 = Obs.Hdr.quantile report.latency 0.99 in
            row
              "  %-24s %d x %d requests  %7.1f qps  p50 %.2fms  p99 %.2fms  \
               (%d shed, %d timed out)\n"
              "closed-loop throughput" principals requests report.qps
              (p50 *. 1e3) (p99 *. 1e3) report.shed report.timed_out;
            Printf.sprintf
              "  \"throughput\": \
               {\"rows\":%d,\"principals\":%d,\"requests_per_principal\":%d,\"total\":%d,\"answered\":%d,\"degraded\":%d,\"shed\":%d,\"timed_out\":%d,\"failed\":%d,\"elapsed_s\":%g,\"qps\":%g,\"p50_s\":%g,\"p99_s\":%g,\"retries\":%d}"
              rows principals requests report.total report.answered
              report.degraded report.shed report.timed_out report.failed
              report.elapsed_s report.qps p50 p99 retries))
  in
  (* (3) wire-level chaos: armed net.* faults, every request terminal *)
  let chaos_entry =
    let ctx, users = serving_context ~rows ~principals ~seed () in
    let user_arr = Array.of_list users in
    with_server ctx (fun server ->
        let clients =
          Array.init principals (fun i ->
              Net.Client.create
                ~config:
                  {
                    Net.Client.default_config with
                    Net.Client.retries = 2;
                    request_timeout_ms = 2000.0;
                  }
                ~seed:(seed + 13 + (i * 101))
                (Net.Server.address server))
        in
        Fun.protect
          ~finally:(fun () -> Array.iter Net.Client.close clients)
          (fun () ->
            let plan =
              Resilience.Fault.plan ~rate:0.2
                ~sites:
                  [
                    Resilience.Fault.site_net_accept;
                    Resilience.Fault.site_net_read;
                    Resilience.Fault.site_net_write;
                    Resilience.Fault.site_net_delay;
                  ]
                ~seed ()
            in
            let report =
              Resilience.Fault.with_plan plan (fun () ->
                  Workload.Load_gen.run
                    {
                      Workload.Load_gen.principals;
                      requests_per_principal = chaos_requests;
                      think_ms = 0.0;
                      zipf_s = 1.1;
                      seed = seed + 1;
                    }
                    ~queries
                    ~user_of:(fun i -> user_arr.(i mod Array.length user_arr))
                    ~exec:(fun ~principal ~user ~sql ->
                      match
                        Net.Client.query clients.(principal) ~user ~purpose
                          ~perc:0.6 sql
                      with
                      | Net.Client.Answer a ->
                          Workload.Load_gen.Answered
                            { degraded = a.Net.Wire.degraded <> None }
                      | Net.Client.Shed _ -> Workload.Load_gen.Shed
                      | Net.Client.Timed_out _ -> Workload.Load_gen.Timed_out
                      | Net.Client.Accepted _ ->
                          Workload.Load_gen.Failed "unexpected accept"
                      | Net.Client.Failed m -> Workload.Load_gen.Failed m))
            in
            let open Workload.Load_gen in
            (* terminality: chaos may shed, time out or fail individual
               requests, but every single one must come back *)
            if report.total <> principals * chaos_requests then
              failwith "sweep-server: chaos run lost a request";
            (* post-chaos identity: the server must still give the exact
               in-process answer once the plan is disarmed *)
            let probe =
              Net.Client.create ~seed:(seed + 997)
                (Net.Server.address server)
            in
            let wire_body =
              Fun.protect
                ~finally:(fun () -> Net.Client.close probe)
                (fun () ->
                  match
                    Net.Client.query probe ~user:user_arr.(0) ~purpose
                      ~perc:0.6 serving_sql
                  with
                  | Net.Client.Answer a -> a.Net.Wire.body
                  | o ->
                      failwith
                        (Printf.sprintf
                           "sweep-server: post-chaos probe not answered (%s)"
                           (Net.Client.outcome_label o)))
            in
            let local_body =
              let session = Pcqe.Engine.Session.create ctx in
              match
                Pcqe.Engine.Session.batch session
                  [
                    {
                      Pcqe.Engine.query = Pcqe.Query.sql serving_sql;
                      user = user_arr.(0);
                      purpose;
                      perc = 0.6;
                    };
                  ]
              with
              | [ Ok resp ] -> Net.Wire.body_of_response resp
              | _ -> failwith "sweep-server: post-chaos local answer failed"
            in
            if not (String.equal wire_body local_body) then
              failwith "sweep-server: post-chaos answer differs from batch";
            let injected = Resilience.Fault.injected plan in
            row
              "  %-24s %d requests, %d faults injected  (%d answered, %d \
               shed, %d timed out, %d failed; all terminal)\n"
              "chaos, net.* armed" report.total injected report.answered
              report.shed report.timed_out report.failed;
            Printf.sprintf
              "  \"chaos\": \
               {\"rows\":%d,\"principals\":%d,\"requests_per_principal\":%d,\"total\":%d,\"answered\":%d,\"shed\":%d,\"timed_out\":%d,\"failed\":%d,\"injected\":%d,\"rate\":0.2,\"terminal\":true,\"post_chaos_identical\":true}"
              rows principals chaos_requests report.total report.answered
              report.shed report.timed_out report.failed injected))
  in
  let entries = [ identity_entry; throughput_entry; chaos_entry ] in
  let oc = open_out server_json_path in
  Printf.fprintf oc "{\n  %s,\n" (machine_fields ());
  output_string oc (String.concat ",\n" entries);
  output_string oc "\n}\n";
  close_out oc;
  row "  wrote %d points to %s\n" (List.length entries) server_json_path

(* ------------------------------------------------------------------ *)

(* sweep-shards: the key-sharded store behind the serving tier.  Two
   entries, both identity-asserted against the cold unsharded path:

   (1) invalidation — a session warms its per-epoch confidence cache
       over a sharded store, then a flood of accepted improvement
       proposals lands entirely on one shard (enough raises to overflow
       that shard's bounded change log).  On the next answer the cache
       must flush the flooded shard's classes and nothing else: at one
       shard the flood takes the whole cache down, at 4/8 shards the
       recomputed/total ratio drops towards 1/shards.

   (2) loadgen — per-principal requests (>= 1024 principals in the full
       run) served from one session over the shared sharded store;
       QPS and p50/p99 latency per shard count, every answer checked
       against its cold counterpart.  Cores and jobs come from
       [machine_fields]. *)

let shards_json_path = "BENCH_shards.json"

let sweep_shards ?(rows = 2000) ?(principals = 1024)
    ?(requests_per_principal = 2) ?(shard_counts = [ 1; 4; 8 ]) ?(seed = 43)
    () =
  header "sweep-shards: per-shard epochs - localized invalidation + loadgen";
  let stat name stats =
    match List.assoc_opt name stats with Some v -> v | None -> 0
  in
  (* the flood set: tuples owned by shard 0 under the *largest* shard
     count.  shard_of is [hash mod n], so for n | m the shard-0-of-m
     tuples are shard-0 tuples at every n in the sweep — the same flood
     is single-shard at each point, which is what makes the ratios
     comparable *)
  let flood_mod =
    List.fold_left max 1 shard_counts
  in
  let flood_tids =
    List.filter
      (fun i ->
        Relational.Database.shard_of ~shards:flood_mod
          (Lineage.Tid.make "R" i)
        = 0)
      (List.init rows Fun.id)
    |> List.map (fun i -> Lineage.Tid.make "R" i)
  in
  if flood_tids = [] then failwith "sweep-shards: empty flood set";
  (* enough single-tuple raises to overflow the owning shard's bounded
     change log (capacity 256), forcing the wholesale-flush path rather
     than the targeted one *)
  let flood_rounds = 2 + (520 / List.length flood_tids) in
  let flood_target k = 0.955 +. (0.0001 *. float_of_int k) in
  let invalidation_points =
    with_circuits false @@ fun () ->
    (* circuits off: the var fast path would answer single-tuple classes
       straight from the base vector with no cache traffic, and this
       entry is precisely about what the cache invalidates *)
    List.map
      (fun shards ->
        let ctx, users = serving_context ~rows ~principals:1 ~seed () in
        let user = List.hd users in
        let req =
          {
            Pcqe.Engine.query = Pcqe.Query.sql serving_sql;
            user;
            purpose = "serve";
            perc = 0.3;
          }
        in
        (* a real proposal from the engine, used as the template the
           flood's accepted increments ride in on *)
        let template =
          match Pcqe.Engine.answer ctx { req with Pcqe.Engine.perc = 0.98 } with
          | Ok { Pcqe.Engine.proposal = Some p; _ } -> p
          | Ok _ -> failwith "sweep-shards: engine proposed nothing to accept"
          | Error m -> failwith ("sweep-shards: " ^ m)
        in
        let sctx =
          {
            ctx with
            Pcqe.Engine.db =
              Relational.Database.with_shards ctx.Pcqe.Engine.db shards;
          }
        in
        let session = Pcqe.Engine.Session.create sctx in
        let warm0 = Pcqe.Engine.Session.answer session req in
        assert_identical
          (Printf.sprintf "sweep-shards warm (shards=%d)" shards)
          [ Pcqe.Engine.answer ctx req ]
          [ warm0 ];
        let classes =
          stat "conf.entries" (Pcqe.Engine.Session.cache_stats session)
        in
        for k = 0 to flood_rounds - 1 do
          let incs =
            List.map (fun tid -> (tid, flood_target k)) flood_tids
          in
          Pcqe.Engine.Session.accept_proposal session
            { template with Pcqe.Engine.increments = incs }
        done;
        let before = Pcqe.Engine.Session.cache_stats session in
        let warm1 = Pcqe.Engine.Session.answer session req in
        let after = Pcqe.Engine.Session.cache_stats session in
        let flooded_db =
          Relational.Database.apply_increments ctx.Pcqe.Engine.db
            (List.map
               (fun tid -> (tid, flood_target (flood_rounds - 1)))
               flood_tids)
        in
        assert_identical
          (Printf.sprintf "sweep-shards post-flood (shards=%d)" shards)
          [ Pcqe.Engine.answer { ctx with Pcqe.Engine.db = flooded_db } req ]
          [ warm1 ];
        let delta name = stat name after - stat name before in
        let recomputed = delta "serving.recomputed_classes" in
        let reused = delta "serving.reused_classes" in
        let ratio =
          float_of_int recomputed
          /. float_of_int (max 1 (recomputed + reused))
        in
        row
          "  shards=%d  classes=%4d  flood=%d tuples x %d rounds  \
           recomputed=%4d reused=%4d  ratio=%.3f\n"
          shards classes (List.length flood_tids) flood_rounds recomputed
          reused ratio;
        Printf.sprintf
          "    \
           {\"shards\":%d,\"classes\":%d,\"flood_tuples\":%d,\"flood_rounds\":%d,\"recomputed\":%d,\"reused\":%d,\"invalidated_ratio\":%.4f,\"identical\":true}"
          shards classes (List.length flood_tids) flood_rounds recomputed
          reused ratio)
      shard_counts
  in
  let loadgen_points =
    List.map
      (fun shards ->
        let ctx, users = serving_context ~rows ~principals ~seed:(seed + 1) () in
        let user_arr = Array.of_list users in
        let sctx =
          {
            ctx with
            Pcqe.Engine.db =
              Relational.Database.with_shards ctx.Pcqe.Engine.db shards;
          }
        in
        let total = principals * requests_per_principal in
        let reqs =
          List.init total (fun i ->
              {
                Pcqe.Engine.query = Pcqe.Query.sql serving_sql;
                user = user_arr.(i mod principals);
                purpose = "serve";
                perc = 0.3;
              })
        in
        let colds = List.map (fun r -> Pcqe.Engine.answer ctx r) reqs in
        let session = Pcqe.Engine.Session.create sctx in
        let lats = Array.make total 0.0 in
        let warms, wall =
          time (fun () ->
              List.mapi
                (fun i r ->
                  let a, dt =
                    time (fun () -> Pcqe.Engine.Session.answer session r)
                  in
                  lats.(i) <- dt;
                  a)
                reqs)
        in
        assert_identical
          (Printf.sprintf "sweep-shards loadgen (shards=%d)" shards)
          colds warms;
        Array.sort compare lats;
        let pct p = lats.(int_of_float (p *. float_of_int (total - 1))) in
        let qps = float_of_int total /. Float.max wall 1e-9 in
        row
          "  shards=%d  principals=%d  requests=%d  qps=%.0f  p50=%.6fs  \
           p99=%.6fs\n"
          shards principals total qps (pct 0.50) (pct 0.99);
        Printf.sprintf
          "    \
           {\"shards\":%d,\"principals\":%d,\"requests\":%d,\"qps\":%.1f,\"p50_s\":%g,\"p99_s\":%g,\"identical\":true}"
          shards principals total qps (pct 0.50) (pct 0.99))
      shard_counts
  in
  let entries =
    [
      Printf.sprintf "  \"invalidation\": [\n%s\n  ]"
        (String.concat ",\n" invalidation_points);
      Printf.sprintf "  \"loadgen\": [\n%s\n  ]"
        (String.concat ",\n" loadgen_points);
    ]
  in
  let oc = open_out shards_json_path in
  Printf.fprintf oc "{\n  %s,\n" (machine_fields ());
  output_string oc (String.concat ",\n" entries);
  output_string oc "\n}\n";
  close_out oc;
  row "  wrote %d points to %s\n"
    (List.length invalidation_points + List.length loadgen_points)
    shards_json_path

(* ------------------------------------------------------------------ *)

(* smoke: every panel at tiny sizes, cheap enough to run under `dune
   runtest` — keeps the harness and both JSON artifact writers honest *)
let smoke () =
  table4 ();
  fig11_ad ~seeds:[ 1 ] ~max_nodes:(Some 5_000) ~seeded:false ();
  fig11_ad ~seeds:[ 1 ] ~max_nodes:(Some 5_000) ~seeded:true ();
  fig11_be ~sizes:[ 200 ] ();
  fig11_cf ~sizes:[ 10; 200 ] ~full:false ();
  sweep_bpr ~size:200 ~bprs:[ 5 ] ();
  sweep_gamma ~size:200 ();
  sweep_edge ~size:200 ();
  sweep_solvers ~size:200 ~annealing_iters:20_000 ();
  sweep_rewrite ~rows:40 ();
  sweep_jobs ~sizes:[ 500 ] ~jobs_levels:[ 1; 2 ] ~mc_samples:20_000 ();
  solvers_json ~size:200 ();
  sweep_incremental ~size:200 ~annealing_iters:5_000
    ~bb_max_nodes:(Some 5_000) ();
  sweep_resilience ~size:200 ~seeds:3 ~deadline_ms:5.0 ();
  sweep_serving ~rows:300 ~reps:16 ~principal_counts:[ 1; 8 ] ();
  sweep_server ~rows:200 ~principals:2 ~requests:6 ~chaos_requests:4 ();
  sweep_shards ~rows:240 ~principals:16 ~requests_per_principal:1
    ~shard_counts:[ 1; 4 ] ();
  sweep_columnar ~sizes:[ 2000 ] ~reps:1 ();
  sweep_circuits ~rows:300 ~reps:1 ~epochs:4 ();
  micro ~quota:0.05 ~size:200 ()

let all_panels ~full ~jobs_levels () =
  table4 ();
  fig11_ad ~seeded:false ();
  fig11_ad ~seeded:true ();
  fig11_be ();
  fig11_cf ~full ();
  sweep_bpr ();
  sweep_gamma ();
  sweep_edge ();
  sweep_solvers ();
  sweep_rewrite ();
  sweep_jobs
    ~sizes:(if full then [ 10_000; 50_000; 100_000 ] else [ 10_000 ])
    ~jobs_levels ();
  solvers_json ();
  sweep_incremental ();
  sweep_resilience ();
  sweep_serving ();
  sweep_server ();
  sweep_shards ();
  sweep_columnar ~sizes:(if full then [ 100_000; 1_000_000 ] else [ 100_000 ]) ();
  sweep_circuits ();
  micro ()

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let full = List.mem "--full" args in
  (* --jobs N restricts the sweep-jobs levels to [1; N] (N>1), e.g. to
     match the host's core count *)
  let jobs_override =
    let rec go = function
      | "--jobs" :: n :: _ -> int_of_string_opt n
      | _ :: rest -> go rest
      | [] -> None
    in
    go args
  in
  let jobs_levels =
    match jobs_override with
    | Some n when n > 1 -> [ 1; n ]
    | Some _ -> [ 1 ]
    | None -> [ 1; 2; 4; 8 ]
  in
  let rec strip = function
    | [] -> []
    | "--jobs" :: _ :: rest -> strip rest
    | "--full" :: rest -> strip rest
    | a :: rest -> a :: strip rest
  in
  let panels = strip args in
  Printf.printf
    "PCQE benchmark harness - reproduces Dai et al., SDM@VLDB 2009, Section 5\n";
  if panels = [] then all_panels ~full ~jobs_levels ()
  else
    List.iter
      (function
        | "table4" -> table4 ()
        | "fig11a" -> fig11_ad ~seeded:false ()
        | "fig11d" -> fig11_ad ~seeded:true ()
        | "fig11b" | "fig11e" -> fig11_be ()
        | "fig11c" | "fig11f" -> fig11_cf ~full ()
        | "sweep-bpr" -> sweep_bpr ()
        | "sweep-gamma" -> sweep_gamma ()
        | "sweep-edge" -> sweep_edge ()
        | "sweep-solvers" -> sweep_solvers ()
        | "sweep-rewrite" -> sweep_rewrite ()
        | "sweep-jobs" -> sweep_jobs ~jobs_levels ()
        | "solvers-json" -> solvers_json ()
        | "sweep-incremental" -> sweep_incremental ()
        | "sweep-resilience" -> sweep_resilience ()
        | "sweep-serving" -> sweep_serving ()
        | "sweep-server" -> sweep_server ()
        | "sweep-shards" -> sweep_shards ()
        | "sweep-columnar" -> sweep_columnar ()
        | "sweep-circuits" -> sweep_circuits ()
        | "smoke" -> smoke ()
        | "micro" -> micro ()
        | other -> Printf.eprintf "unknown panel %S\n" other)
      panels
