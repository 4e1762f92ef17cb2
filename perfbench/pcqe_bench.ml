(* The PCQE end-to-end benchmark: one workload, one seed, one run.

   Set-up (starting the server process, which builds its database, then
   the warm-up) runs three times and reports the median; the last server
   is the one measured.  Two closed-loop clients drive it over loopback
   TCP for an untimed ramp, then for --seconds.  The run ends with the
   correctness gate; with --trace 1 the same pass replays every request
   in process and reports per-layer numbers.  The last line of standard
   output is the result as one JSON object. *)

let clock = Unix.gettimeofday
let setups = 3

(* The server context's parallelism: one job per core. *)
let nproc = Domain.recommended_domain_count ()

let usage =
  "pcqe_bench --workload browse|adhoc|improve --seed N --seconds S --trace 0|1 [--size full|tiny]"

type args = { kind : Load.kind; size : Data.size; tiny : bool; seed : int; seconds : float; trace : bool }

let parse_args () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  let size = ref "full" and serve = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "browse, adhoc or improve");
      ("--seed", Arg.Set_int seed, "seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "length of the timed run");
      ("--trace", Arg.Set_int trace, "1: replay in process and report per-layer metrics");
      ("--size", Arg.Set_string size, "full (default) or tiny");
      ("--serve", Arg.Set serve, "(internal) be the server process");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let die m =
    prerr_endline (m ^ "\nusage: " ^ usage);
    exit 2
  in
  let tiny = !size = "tiny" in
  let size = match !size with "full" -> Data.full | "tiny" -> Data.tiny | _ -> die "--size: full or tiny" in
  if !seed < 0 then die "--seed: need a non-negative integer";
  if !serve then begin
    Server_proc.serve ~ctx:(Data.context ~jobs:nproc (Data.database size ~seed:!seed));
    exit 0
  end;
  let kind = match Load.kind_of_string !workload with Some k -> k | None -> die "--workload: unknown workload" in
  if not (!seconds > 0.0) then die "--seconds: need a positive number";
  if !trace <> 0 && !trace <> 1 then die "--trace: 0 or 1";
  { kind; size; tiny; seed = !seed; seconds = !seconds; trace = !trace = 1 }

(* Rounds per client whose counters are printed exactly: every run of a
   seed reaches them, so two runs must agree on them to the last digit. *)
let prefix_rounds kind ~tiny =
  match (kind, tiny) with
  | Load.Browse, false -> 1000
  | Load.Adhoc, false -> 60
  | Load.Improve, false -> 48
  | Load.Browse, true -> 40
  | (Load.Adhoc | Load.Improve), true -> 4

(* Three set-ups; returns their times, the last server and its warm-up. *)
let set_up a =
  let once () =
    let t0 = clock () in
    let size = if a.tiny then "tiny" else "full" in
    let server = Server_proc.start [ "--seed"; string_of_int a.seed; "--size"; size ] in
    let warm = Load.warm (Server_proc.address server) (Load.warmup a.kind a.size ~seed:a.seed) in
    (clock () -. t0, server, warm)
  in
  let rec go i times =
    let t, server, warm = once () in
    if i < setups then begin
      Server_proc.stop server;
      go (i + 1) (t :: times)
    end
    else (List.rev (t :: times), server, warm)
  in
  go 1 []

let succeeded (r : Load.record) = match r.outcome with Load.Answered _ | Load.Accepted _ -> true | _ -> false

let op_latencies records op =
  Report.op_stats
    (List.filter_map (fun r -> if Check.op_of r = op && succeeded r then Some r.Load.latency else None) records)

(* A round's latency runs from its first send to its last reply. *)
let round_latencies records =
  let spans = Hashtbl.create 1024 in
  List.iter
    (fun (r : Load.record) ->
      let key = (r.client, r.round) in
      let t0, t1 = Option.value ~default:(infinity, neg_infinity) (Hashtbl.find_opt spans key) in
      Hashtbl.replace spans key (Float.min t0 r.sent, Float.max t1 (r.sent +. r.latency)))
    records;
  Report.op_stats (Hashtbl.fold (fun _ (t0, t1) acc -> (t1 -. t0) :: acc) spans [])

let () =
  let a = parse_args () in
  Printf.printf
    "settings: workload=%s seed=%d seconds=%g trace=%b size=%s nproc=%d jobs=%d shards=1 clients=%d \
     server_in_own_process=true ocaml=%s\n%!"
    (Load.kind_name a.kind) a.seed a.seconds a.trace
    (if a.tiny then "tiny" else "full")
    nproc nproc Load.clients Sys.ocaml_version;
  let setup_times, server, warm = set_up a in
  let setup_s = Report.median setup_times in
  Printf.printf "setup: %s s (median %.3f s)\n%!"
    (String.concat " " (List.map (Printf.sprintf "%.3f") setup_times))
    setup_s;
  (* --- the timed run ------------------------------------------------- *)
  (* The clients allocate every answer body in the major heap.  A small
     heap would collect often, and those collections would show up in
     the latencies; a generous space overhead keeps them rare. *)
  Gc.set { (Gc.get ()) with space_overhead = 1000 };
  let before = Server_proc.stats server in
  let next = Array.init Load.clients (fun client -> Load.rounds a.kind a.size ~seed:a.seed ~client) in
  let run = Load.run (Server_proc.address server) ~ramp:a.size.ramp_s ~seconds:a.seconds ~next in
  let after = Server_proc.stats server in
  let peak_rss_mb = Server_proc.peak_rss_mb server in
  Server_proc.stop server;
  let delta name = Server_proc.stat after name - Server_proc.stat before name in
  (* failures and checks cover the ramp too; timings only the timed rounds *)
  let records = run.records in
  let timed = List.filter (fun (r : Load.record) -> r.timed) records in
  let elapsed = run.stop -. run.start in
  let attempted = List.length records in
  let count p = List.length (List.filter (fun (r : Load.record) -> p r.outcome) records) in
  let shed = count (function Load.Shed -> true | _ -> false) in
  let timed_out = count (function Load.Timed_out _ -> true | _ -> false) in
  let errors = count (function Load.Failed _ -> true | _ -> false) in
  let answers = count (function Load.Answered _ -> true | _ -> false) in
  let accepted = count (function Load.Accepted _ -> true | _ -> false) in
  let failed = shed + timed_out + errors in
  let answer = op_latencies timed Check.Answer in
  let propose = op_latencies timed Check.Propose in
  let accept = op_latencies timed Check.Accept in
  let rounds = round_latencies timed in
  Printf.printf "run: %d requests, %d of them timed in %.3f s after a %g s ramp (%s)\n" attempted
    (List.length timed) elapsed a.size.ramp_s
    (if run.exhausted then "a client used up its windows" else "time limit");
  (* whole seconds of the timed run: shows how steady the run was *)
  let per_second = Array.make (int_of_float elapsed + 1) 0 in
  List.iter
    (fun (r : Load.record) ->
      let i = int_of_float (r.sent +. r.latency -. run.start) in
      per_second.(i) <- per_second.(i) + 1)
    timed;
  Printf.printf "timed requests completed in each second: %s\n"
    (String.concat " " (Array.to_list (Array.map string_of_int per_second)));
  Printf.printf "failures: shed=%d timed_out=%d failed=%d of %d attempted (failed_frac %.6f)\n" shed timed_out errors
    attempted
    (Report.ratio (float_of_int failed) (float_of_int attempted));
  print_endline "latency by op:";
  List.iter
    (fun (name, (s : Report.op_stats)) ->
      if s.n > 0 then
        Printf.printf "  %-8s p50 %.3f ms  p90 %.3f ms  n=%d%s\n" name s.p50 s.p90 s.n
          (if s.n < Report.min_samples then "  (fewer than 10 samples beyond p90)" else ""))
    [ ("answer", answer); ("propose", propose); ("accept", accept); ("round", rounds) ];
  Printf.printf "server stats delta: answers=%d accepted=%d shed=%d timeouts=%d errors=%d\n%!" (delta "net.answers")
    (delta "net.accepted") (delta "net.shed") (delta "net.timeouts") (delta "net.errors");
  (* the clients' outcome counts against the server's own counters *)
  let mismatches =
    List.filter_map
      (fun (name, client) ->
        let server = delta name in
        if server = client then None else Some (Printf.sprintf "%s: server %d, clients %d" name server client))
      [
        ("net.answers", answers);
        ("net.accepted", accepted);
        ("net.shed", shed);
        ("net.timeouts", timed_out);
        ("net.errors", errors);
      ]
  in
  (* --- correctness gate (and replay) ------------------------------------ *)
  let prefix_rounds = prefix_rounds a.kind ~tiny:a.tiny in
  let t0 = clock () in
  (* the database the server started from, rebuilt from the seed *)
  let ctx = Data.context ~jobs:nproc (Data.database a.size ~seed:a.seed) in
  let check = Check.run ~kind:a.kind ~trace:a.trace ~prefix_rounds ~ctx (warm @ records) in
  Printf.printf "checked %d timed queries and %d accepts in %.1f s\n" check.queries check.accepts (clock () -. t0);
  let reached c = List.exists (fun (r : Load.record) -> r.client = c && r.round >= prefix_rounds - 1) records in
  Printf.printf "exact counters over each client's first %d rounds%s:\n" prefix_rounds
    (if List.for_all reached (List.init Load.clients Fun.id) then "" else " (NOT REACHED: do not compare)");
  List.iter
    (fun (k, v) -> Printf.printf "  %s = %s\n" k (Report.json_number v))
    (List.sort compare (Hashtbl.fold (fun k v acc -> (k, !v) :: acc) check.prefix []));
  let failures =
    check.failures
    @ List.map (fun m -> "server counters disagree with the clients: " ^ m) mismatches
    @ if a.kind = Load.Improve && accepted = 0 then [ "improve accepted no proposal" ] else []
  in
  List.iter (fun m -> Printf.printf "CHECK FAILED: %s\n" m) failures;
  let correct = failures = [] in
  (* --- metrics ----------------------------------------------------------- *)
  let m name value unit = { Report.name; value; unit } in
  let metrics =
    if not a.trace then
      [
        m "throughput_rps" (float_of_int (List.length timed) /. elapsed) "1/s";
        m "answer_p50_ms" answer.p50 "ms";
        m "round_p50_ms" rounds.p50 "ms";
        m "setup_s" setup_s "s";
        m "peak_rss_mb" peak_rss_mb "MiB";
      ]
    else
      Layers.metrics ~check ~answer ~propose ~accept ~rounds
        ~server:(delta "net.shed", delta "net.timeouts", delta "net.errors")
  in
  List.iter
    (fun (x : Report.metric) -> Printf.printf "metric %s = %s %s\n" x.name (Report.json_number x.value) x.unit)
    metrics;
  print_endline (Report.result_line ~correct ~attempted ~failed metrics);
  exit (if correct then 0 else 1)
