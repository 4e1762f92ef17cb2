(* The serving tier over a loopback socket.

   The wire-level robustness contract:

   1. framing — torn, truncated and corrupted frames are detected and
      rejected; they kill at most their own connection, never the server;
   2. identity — answers over the wire are bit-identical (body bytes) to
      in-process [Session.batch] over the same per-principal streams;
   3. admission — overload produces explicit [Overloaded] sheds and
      queue-expired [Timeout]s, never unbounded queueing or silence;
   4. chaos — with [net.*] faults armed, every request still reaches a
      terminal outcome and the server survives to answer correctly
      afterwards. *)

module Fault = Resilience.Fault
module E = Pcqe.Engine
module Db = Relational.Database
module V = Relational.Value

let ok = function Ok x -> x | Error m -> Alcotest.failf "unexpected: %s" m

(* ------------------------------------------------------------------ *)
(* framing *)

let test_frame_roundtrip () =
  List.iter
    (fun (typ, payload) ->
      let s = Net.Frame.encode ~typ payload in
      match Net.Frame.decode s with
      | Ok (t, p) ->
        Alcotest.(check int) "type" typ t;
        Alcotest.(check string) "payload" payload p
      | Error e -> Alcotest.failf "decode failed: %s" (Net.Frame.error_to_string e))
    [ (0, ""); (1, "x"); (255, String.init 1000 (fun i -> Char.chr (i mod 256))) ]

let test_frame_crc32_vector () =
  (* the standard IEEE check value *)
  Alcotest.(check int32)
    "crc32(123456789)" 0xCBF43926l
    (Net.Frame.crc32 "123456789")

let test_frame_rejects_malformed () =
  let whole = Net.Frame.encode ~typ:7 "hello world" in
  let expect name want got =
    match got with
    | Ok _ -> Alcotest.failf "%s: accepted a malformed frame" name
    | Error e -> Alcotest.(check string) name want (Net.Frame.error_to_string e)
  in
  expect "empty" "connection closed" (Net.Frame.decode "");
  expect "torn header" "torn frame: short read in header"
    (Net.Frame.decode (String.sub whole 0 5));
  expect "torn payload" "torn frame: short read in payload"
    (Net.Frame.decode (String.sub whole 0 (String.length whole - 3)));
  expect "bad magic" "bad magic"
    (Net.Frame.decode ("XX" ^ String.sub whole 2 (String.length whole - 2)));
  let bad_version = Bytes.of_string whole in
  Bytes.set bad_version 2 '\x63';
  expect "bad version" "unsupported protocol version 99"
    (Net.Frame.decode (Bytes.to_string bad_version));
  let flipped = Bytes.of_string whole in
  Bytes.set flipped (String.length whole - 1) '!';
  expect "corrupt payload" "payload checksum mismatch"
    (Net.Frame.decode (Bytes.to_string flipped));
  let huge = Bytes.of_string whole in
  (* declared length 0x7fffffff, way past max_payload *)
  Bytes.set huge 4 '\x7f';
  Bytes.set huge 5 '\xff';
  Bytes.set huge 6 '\xff';
  Bytes.set huge 7 '\xff';
  match Net.Frame.decode (Bytes.to_string huge) with
  | Error (Net.Frame.Too_large _) -> ()
  | _ -> Alcotest.fail "oversized length not rejected"

(* Bytewise, table-free CRC-32: the reference the sliced one must equal. *)
let reference_crc32 s =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 1 to 8 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done)
    s;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let test_crc32_every_short_length () =
  let st = Random.State.make [| 32 |] in
  for len = 0 to 64 do
    let s = String.init len (fun _ -> Char.chr (Random.State.int st 256)) in
    Alcotest.(check int32) (Printf.sprintf "length %d" len) (reference_crc32 s) (Net.Frame.crc32 s)
  done

let qcheck_crc32_matches_reference =
  QCheck.Test.make ~name:"crc32 = bytewise reference (up to 64 KiB)" ~count:60
    QCheck.(string_of_size (Gen.int_bound 65536))
    (fun s -> Net.Frame.crc32 s = reference_crc32 s)

let qcheck_crc32_every_offset =
  QCheck.Test.make ~name:"crc32 = reference on substrings at offsets 0..7" ~count:100
    QCheck.(string_of_size (Gen.int_range 8 300))
    (fun s ->
      List.for_all
        (fun off ->
          let sub = String.sub s off (String.length s - off) in
          Net.Frame.crc32 sub = reference_crc32 sub)
        [ 0; 1; 2; 3; 4; 5; 6; 7 ])

(* a frame built from head and tail is the frame of their concatenation,
   checksum included, wherever the split falls *)
let qcheck_frame_tail_split =
  QCheck.Test.make ~name:"encode ~tail = encode of the concatenation" ~count:200
    QCheck.(pair (string_of_size (Gen.int_bound 40)) (string_of_size (Gen.int_bound 400)))
    (fun (head, tail) -> Net.Frame.encode ~typ:10 ~tail head = Net.Frame.encode ~typ:10 (head ^ tail))

(* ------------------------------------------------------------------ *)
(* message codec *)

let sample_requests =
  [
    Net.Wire.Query
      {
        user = "u00";
        purpose = "serve";
        perc = 0.1 +. 0.2 (* not representable exactly: bits must survive *);
        sql = "SELECT k FROM R WHERE n < 70";
        deadline_ms = Some 12.5;
      };
    Net.Wire.Query
      { user = ""; purpose = ""; perc = 0.0; sql = ""; deadline_ms = None };
    Net.Wire.Accept { user = "u01"; token = 424242 };
    Net.Wire.Accept { user = "u02"; token = -1 };
    Net.Wire.Ping;
  ]

let test_wire_request_roundtrip () =
  List.iter
    (fun req ->
      let typ, payload = Net.Wire.encode_request req in
      match Net.Wire.decode_request ~typ payload with
      | Ok req' -> if req <> req' then Alcotest.fail "request changed on the wire"
      | Error m -> Alcotest.failf "decode_request: %s" m)
    sample_requests

let sample_responses =
  [
    Net.Wire.Answer
      {
        released = 3;
        withheld = 2;
        requested = 4;
        degraded = Some "deadline";
        proposal_token = Some 7;
        body = "\x00\x01binary\xffbody";
      };
    Net.Wire.Answer
      {
        released = 0;
        withheld = 0;
        requested = 0xFFFFFFFF;
        degraded = None;
        proposal_token = Some max_int;
        body = "";
      };
    Net.Wire.Accepted { applied = 2; cost = 13.25 };
    Net.Wire.Pong;
    Net.Wire.Overloaded { retry_after_ms = 50.0 };
    Net.Wire.Timeout { reason = "deadline expired in admission queue" };
    Net.Wire.Err "no such user";
  ]

let test_wire_response_roundtrip () =
  List.iter
    (fun resp ->
      let typ, payload = Net.Wire.encode_response resp in
      match Net.Wire.decode_response ~typ payload with
      | Ok resp' -> if resp <> resp' then Alcotest.fail "response changed on the wire"
      | Error m -> Alcotest.failf "decode_response: %s" m)
    sample_responses

let test_wire_rejects_truncated () =
  let typ, payload =
    Net.Wire.encode_request
      (Net.Wire.Query
         { user = "u"; purpose = "p"; perc = 1.0; sql = "SELECT"; deadline_ms = None })
  in
  (match Net.Wire.decode_request ~typ (String.sub payload 0 5) with
  | Ok _ -> Alcotest.fail "truncated request accepted"
  | Error _ -> ());
  match Net.Wire.decode_request ~typ (payload ^ "junk") with
  | Ok _ -> Alcotest.fail "trailing bytes accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* golden bytes: the body and frame format itself, pinned.  The identity
   tests run [body_of_response] on both sides, so only fixed digests can
   catch a change to the bytes. *)

let demo_ctx () =
  let dir = Filename.concat ".." (Filename.concat "data" "demo") in
  let file f = In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all in
  let db =
    List.fold_left
      (fun db name -> ok (Relational.Csv.load_file db ~name (Filename.concat dir (name ^ ".csv"))))
      Db.empty [ "CompanyInfo"; "Proposal" ]
  in
  let costs =
    String.split_on_char '\n' (file "costs.txt")
    |> List.filter_map (fun l ->
           match String.index_opt l ' ' with
           | Some i when l.[0] <> '#' ->
             let spec = ok (Cost.Cost_model.parse (String.sub l i (String.length l - i))) in
             Some (String.sub l 0 i, spec)
           | _ -> None)
  in
  let cost_of tid =
    match List.assoc_opt (Lineage.Tid.to_string tid) costs with
    | Some c -> c
    | None -> List.assoc "default" costs
  in
  E.make_context ~db ~cost_of
    ~rbac:(ok (Rbac.Config.parse (file "rbac.txt")))
    ~policies:(ok (Rbac.Policy.parse_store (file "policies.txt")))
    ()

(* (name, sql as alice/investment, perc, body md5, frame md5) *)
let golden_answers =
  let join =
    "SELECT Proposal.Company, Income FROM Proposal, CompanyInfo WHERE \
     Proposal.Company = CompanyInfo.Company"
  in
  [
    ( "select", "SELECT Company, Proposal, Funding FROM Proposal", 1.0,
      "7015b399ed00d8b972240bb799311c2b", "0bc568d671e10149f70a587df55ba511" );
    ( "join withholding rows", join, 0.25,
      "77969f80bc913d452d1902e2b9e105bb", "23e8cad6af44a9107c945977c307e726" );
    ( "theta 0.9 with proposal", join, 0.9,
      "f1968c01a8f4433761a94e62690a0636", "47e22ffcd14b20498c3de7b113e70bf4" );
  ]

let md5 s = Digest.to_hex (Digest.string s)

let test_golden_answer_digests () =
  let ctx = demo_ctx () in
  List.iter
    (fun (name, sql, perc, body_md5, frame_md5) ->
      let resp =
        ok (E.answer ctx { E.query = Pcqe.Query.sql sql; user = "alice"; purpose = "investment"; perc })
      in
      let proposal_token = Option.map (fun _ -> 1) resp.E.proposal in
      let typ, payload =
        Net.Wire.encode_response (Net.Wire.Answer (Net.Wire.answer_of_response ?proposal_token resp))
      in
      Alcotest.(check string) (name ^ ": body md5") body_md5 (md5 (Net.Wire.body_of_response resp));
      Alcotest.(check string) (name ^ ": frame md5") frame_md5 (md5 (Net.Frame.encode ~typ payload));
      Alcotest.(check string) (name ^ ": frame_response md5") frame_md5
        (md5 (Net.Wire.frame_response (Net.Wire.Answer (Net.Wire.answer_of_response ?proposal_token resp)))))
    golden_answers

(* every request and response type, framed back to back *)
let test_golden_message_digest () =
  let frame (typ, payload) = Net.Frame.encode ~typ payload in
  let all =
    List.map (fun r -> frame (Net.Wire.encode_request r)) sample_requests
    @ List.map (fun r -> frame (Net.Wire.encode_response r)) sample_responses
  in
  Alcotest.(check string) "frames md5" "628606f7a79f0ed6960e2abc3d0d106b" (md5 (String.concat "" all))

let test_golden_strings () =
  let open Lineage in
  let tid = Tid.make in
  List.iter
    (fun (want, t) -> Alcotest.(check string) want want (Tid.to_string t))
    [
      ("Proposal#2", tid "Proposal" 2);
      ("R#0", tid "R" 0);
      ("R#-7", tid "R" (-7));
      ("R#4611686018427387903", tid "R" max_int);
      ("R#-4611686018427387904", tid "R" min_int);
      ("a#b#10", tid "a#b" 10);
    ];
  List.iter
    (fun (want, t) ->
      Alcotest.(check string) want want (Relational.Tuple.to_string (Relational.Tuple.of_list t)))
    [
      ("()", []);
      ("(-42)", [ V.Int (-42) ]);
      ( "(-42, NULL, a, b, , 2.5, 3.0, -0.0, 1e+20, 1.23457e-05, nan, -inf, true, false, 0)",
        [
          V.Int (-42); V.Null; V.String "a, b"; V.String ""; V.Float 2.5; V.Float 3.0;
          V.Float (-0.0); V.Float 1e20; V.Float 0.0000123456789; V.Float nan; V.Float neg_infinity;
          V.Bool true; V.Bool false; V.Int 0;
        ] );
      ("(-4611686018427387904, 4611686018427387903)", [ V.Int min_int; V.Int max_int ]);
    ];
  let a = Formula.Var (tid "A" 1) and b = Formula.Var (tid "B" (-2)) and c = Formula.Var (tid "C" 30) in
  List.iter
    (fun (want, f) -> Alcotest.(check string) want want (Formula.to_string f))
    Formula.
      [
        ("T", True);
        ("F", False);
        ("A#1", a);
        ("!A#1", Not a);
        ("!!A#1", Not (Not a));
        ("A#1 & B#-2 & C#30", And [ a; b; c ]);
        ("A#1 | B#-2", Or [ a; b ]);
        ("A#1 & (B#-2 | !C#30)", And [ a; Or [ b; Not c ] ]);
        ("A#1 & B#-2 | C#30", Or [ And [ a; b ]; c ]);
        ("!(A#1 & B#-2)", Not (And [ a; b ]));
        ("!(A#1 | B#-2) & (T | F)", And [ Not (Or [ a; b ]); Or [ True; False ] ]);
        ("(A#1 | (B#-2 | C#30)) & !!(A#1 & !B#-2)", And [ Or [ a; Or [ b; c ] ]; Not (Not (And [ a; Not b ])) ]);
        ("", And []);
      ]

(* Encoders keep no shared scratch: connection threads encode at once.
   Four threads each encode their own answer 1 000 times; every frame
   must equal that answer's sequential encoding. *)
let test_concurrent_encoding () =
  let base =
    ok (E.answer (demo_ctx ()) { E.query = Pcqe.Query.sql "SELECT Company FROM Proposal"; user = "alice"; purpose = "investment"; perc = 1.0 })
  in
  let response seed =
    let released =
      List.init (200 + (seed * 37)) (fun k ->
          {
            E.tuple = Relational.Tuple.of_list [ V.Int ((k * 7919 * (seed + 1)) - 500_000); V.String (string_of_int seed) ];
            lineage = Lineage.Formula.(And [ Var (Lineage.Tid.make "R" (k * (seed + 3))); Not (Var (Lineage.Tid.make "S" (-k))) ]);
            confidence = float_of_int k /. 1000.0;
            conf_tier = "cached";
          })
    in
    { base with E.released }
  in
  let encode r = Net.Wire.frame_response (Net.Wire.Answer (Net.Wire.answer_of_response r)) in
  let responses = Array.init 4 response in
  let expected = Array.map encode responses in
  let mismatches = Atomic.make 0 in
  let run i () =
    for _ = 1 to 1000 do
      if not (String.equal (encode responses.(i)) expected.(i)) then Atomic.incr mismatches
    done
  in
  let threads ids = List.iter Thread.join (List.map (fun i -> Thread.create (run i) ()) ids) in
  (* two threads on a second domain as well: switches at safepoints and
     true parallelism *)
  let other = Domain.spawn (fun () -> threads [ 2; 3 ]) in
  threads [ 0; 1 ];
  Domain.join other;
  Alcotest.(check int) "frames differing from the sequential encoding" 0 (Atomic.get mismatches)

(* ------------------------------------------------------------------ *)
(* server fixtures *)

let build_ctx () =
  let open Relational in
  let r = Relation.create "T" (Schema.of_list [ ("x", V.TInt) ]) in
  let db = Db.add_relation Db.empty r in
  let db =
    List.fold_left
      (fun db (x, conf) -> fst (Db.insert db "T" [ V.Int x ] ~conf))
      db
      [ (1, 0.9); (2, 0.7); (3, 0.45); (4, 0.3); (5, 0.2); (6, 0.55) ]
  in
  let rbac =
    let open Rbac.Core_rbac in
    let m = add_role empty "analyst" in
    let m =
      List.fold_left
        (fun m u -> ok (assign_user ~user:u ~role:"analyst" (add_user m u)))
        m [ "u0"; "u1"; "u2"; "u3" ]
    in
    ok (grant m ~role:"analyst" { action = "select"; resource = "*" })
  in
  let policies =
    Rbac.Policy.of_list
      [ Rbac.Policy.make ~role:"analyst" ~purpose:"p" ~beta:0.5 ]
  in
  E.make_context ~db ~rbac ~policies ()

let sock_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pcqe_net_test_%d_%d.sock" (Unix.getpid ()) !n)

let with_server ?config ctx f =
  let server =
    Net.Server.start ?config ~ctx (Net.Server.Unix_path (sock_path ()))
  in
  Fun.protect ~finally:(fun () -> Net.Server.stop server) (fun () -> f server)

let queries =
  [|
    "SELECT x FROM T";
    "SELECT x FROM T WHERE x < 4";
    "SELECT x FROM T WHERE x > 2";
  |]

(* ------------------------------------------------------------------ *)
(* identity: wire answers == in-process Session.batch, bit for bit *)

let test_server_identity_with_batch () =
  let ctx = build_ctx () in
  let users = [ "u0"; "u1" ] in
  (* per-principal streams: each user asks every query at two percs *)
  let stream u =
    List.concat_map
      (fun sql -> [ (sql, 0.3); (sql, 1.0) ])
      (Array.to_list queries)
    |> List.map (fun (sql, perc) -> (u, sql, perc))
  in
  let wire_bodies =
    with_server ctx (fun server ->
        let client = Net.Client.create ~seed:1 (Net.Server.address server) in
        Fun.protect
          ~finally:(fun () -> Net.Client.close client)
          (fun () ->
            List.map
              (fun u ->
                List.map
                  (fun (user, sql, perc) ->
                    match Net.Client.query client ~user ~purpose:"p" ~perc sql with
                    | Net.Client.Answer a -> a.Net.Wire.body
                    | o ->
                      Alcotest.failf "wire query not answered: %s"
                        (Net.Client.outcome_label o))
                  (stream u))
              users))
  in
  (* the in-process reference: one Session per principal over the same
     base context, batching the same stream *)
  let local_bodies =
    List.map
      (fun u ->
        let session = E.Session.create ctx in
        E.Session.batch session
          (List.map
             (fun (user, sql, perc) ->
               { E.query = Pcqe.Query.sql sql; user; purpose = "p"; perc })
             (stream u))
        |> List.map (fun r -> Net.Wire.body_of_response (ok r)))
      users
  in
  List.iter2
    (fun ws ls ->
      List.iteri
        (fun i (w, l) ->
          if not (String.equal w l) then
            Alcotest.failf "response %d differs between wire and Session.batch" i)
        (List.combine ws ls))
    wire_bodies local_bodies

let test_server_accept_token () =
  let ctx = build_ctx () in
  with_server ctx (fun server ->
      let client = Net.Client.create ~seed:2 (Net.Server.address server) in
      Fun.protect
        ~finally:(fun () -> Net.Client.close client)
        (fun () ->
          (* perc=1.0 needs all 6 results; only 3 clear β=0.5, so the
             solver proposes increments and parks them under a token *)
          let a =
            match
              Net.Client.query client ~user:"u0" ~purpose:"p" ~perc:1.0
                "SELECT x FROM T"
            with
            | Net.Client.Answer a -> a
            | o -> Alcotest.failf "expected answer, got %s" (Net.Client.outcome_label o)
          in
          let token =
            match a.Net.Wire.proposal_token with
            | Some t -> t
            | None -> Alcotest.fail "expected a proposal token"
          in
          (match Net.Client.accept client ~user:"u0" ~token with
          | Net.Client.Accepted { applied; _ } ->
            Alcotest.(check bool) "applied some increments" true (applied > 0)
          | o -> Alcotest.failf "accept failed: %s" (Net.Client.outcome_label o));
          (* tokens are single-use: a replay must not re-apply *)
          (match Net.Client.accept client ~user:"u0" ~token with
          | Net.Client.Failed _ -> ()
          | o -> Alcotest.failf "replayed token not rejected: %s" (Net.Client.outcome_label o));
          (* the follow-up answer reflects the applied increments *)
          match
            Net.Client.query client ~user:"u0" ~purpose:"p" ~perc:1.0
              "SELECT x FROM T"
          with
          | Net.Client.Answer a' ->
            Alcotest.(check bool) "more released after accept" true
              (a'.Net.Wire.released > a.Net.Wire.released)
          | o -> Alcotest.failf "re-query failed: %s" (Net.Client.outcome_label o)))

(* ------------------------------------------------------------------ *)
(* signals: a client interrupted mid-round-trip (EINTR) carries on *)

(* T(x, s) with [rows] rows, all released at β = 0.5: a select answer
   of about 90 bytes per row *)
let wide_ctx rows =
  let open Relational in
  let r = Relation.create "T" (Schema.of_list [ ("x", V.TInt); ("s", V.TString) ]) in
  let pad = String.make 48 'w' in
  let db =
    Seq.fold_left
      (fun db x -> fst (Db.insert db "T" [ V.Int x; V.String pad ] ~conf:0.9))
      (Db.add_relation Db.empty r)
      (Seq.init rows Fun.id)
  in
  { (build_ctx ()) with E.db }

let test_client_survives_sigalrm () =
  let ctx = wide_ctx 14_000 in
  (* SIGALRM is blocked in the server's threads (they inherit the mask
     they are started under), so every alarm lands on this client
     thread's reads and writes *)
  let mask = Thread.sigmask Unix.SIG_BLOCK [ Sys.sigalrm ] in
  let server = Net.Server.start ~ctx (Net.Server.Unix_path (sock_path ())) in
  ignore (Thread.sigmask Unix.SIG_SETMASK mask);
  let alarms = ref 0 in
  let previous = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> incr alarms)) in
  let every_ms = { Unix.it_interval = 0.001; it_value = 0.001 } in
  let client =
    Net.Client.create
      ~config:{ Net.Client.default_config with retries = 0; request_timeout_ms = 10_000.0 }
      (Net.Server.address server)
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.0; it_value = 0.0 });
      Sys.set_signal Sys.sigalrm previous;
      Net.Client.close client;
      Net.Server.stop server)
    (fun () ->
      ignore (Unix.setitimer Unix.ITIMER_REAL every_ms);
      for i = 1 to 200 do
        match Net.Client.query client ~user:"u0" ~purpose:"p" ~perc:0.3 "SELECT x, s FROM T" with
        | Net.Client.Answer a ->
          if String.length a.Net.Wire.body < 1 lsl 20 then
            Alcotest.failf "answer of %d bytes, want >= 1 MiB" (String.length a.Net.Wire.body)
        | o -> Alcotest.failf "round trip %d: %s" i (Net.Client.outcome_label o)
      done;
      Alcotest.(check int) "no retries" 0 (Net.Client.retries_used client);
      Alcotest.(check bool) "alarms fired" true (!alarms > 200))

(* ------------------------------------------------------------------ *)
(* admission: shedding and queue-expired timeouts *)

let overload_config =
  {
    Net.Server.default_config with
    admit = 1;
    queue = 0;
    retry_after_ms = 5.0;
    fault_stall_s = 0.25;
  }

(* Arm net.delay at rate 1.0: every admitted request stalls 250 ms
   holding the only execution slot, so concurrent requests shed
   deterministically (queue = 0). *)
let test_server_sheds_under_overload () =
  let ctx = build_ctx () in
  with_server ~config:overload_config ctx (fun server ->
      let addr = Net.Server.address server in
      let plan =
        Fault.plan ~rate:1.0 ~sites:[ Fault.site_net_delay ] ~seed:5 ()
      in
      Fault.with_plan plan (fun () ->
          let outcomes = Array.make 4 None in
          let clients =
            Array.init 4 (fun i ->
                Net.Client.create
                  ~config:{ Net.Client.default_config with retries = 0 }
                  ~seed:i addr)
          in
          (* connect everyone first so the sends land near-simultaneously *)
          let threads =
            Array.init 4 (fun i ->
                Thread.create
                  (fun () ->
                    outcomes.(i) <-
                      Some
                        (Net.Client.query clients.(i) ~user:"u0" ~purpose:"p"
                           ~perc:0.3 "SELECT x FROM T"))
                  ())
          in
          Array.iter Thread.join threads;
          Array.iter (fun c -> Net.Client.close c) clients;
          let answers = ref 0 and sheds = ref 0 and other = ref 0 in
          Array.iter
            (fun o ->
              match o with
              | Some (Net.Client.Answer _) -> incr answers
              | Some (Net.Client.Shed _) -> incr sheds
              | Some _ -> incr other
              | None -> Alcotest.fail "a request never terminated")
            outcomes;
          Alcotest.(check int) "all terminal" 4 (!answers + !sheds + !other);
          Alcotest.(check bool) "at least one answered" true (!answers >= 1);
          Alcotest.(check bool) "overload shed explicitly" true (!sheds >= 1));
      (* the server survives the storm *)
      let c = Net.Client.create ~seed:9 addr in
      (match Net.Client.ping c with
      | Net.Client.Answer _ -> ()
      | o -> Alcotest.failf "server dead after overload: %s" (Net.Client.outcome_label o));
      Net.Client.close c)

let test_server_queue_deadline_timeout () =
  let ctx = build_ctx () in
  let config = { overload_config with queue = 4 } in
  with_server ~config ctx (fun server ->
      let addr = Net.Server.address server in
      let plan =
        Fault.plan ~rate:1.0 ~sites:[ Fault.site_net_delay ] ~seed:6 ()
      in
      Fault.with_plan plan (fun () ->
          (* the first request stalls 250 ms holding the slot; the
             follow-up carries a 20 ms budget and must time out in the
             queue (terminal!), not wait the full stall *)
          let holder =
            Thread.create
              (fun () ->
                let c = Net.Client.create ~seed:11 addr in
                ignore
                  (Net.Client.query c ~user:"u0" ~purpose:"p" ~perc:0.3
                     "SELECT x FROM T");
                Net.Client.close c)
              ()
          in
          Thread.delay 0.05 (* let the holder grab the slot *);
          let c =
            Net.Client.create
              ~config:{ Net.Client.default_config with retries = 0 }
              ~seed:12 addr
          in
          (match
             Net.Client.query c ~user:"u1" ~purpose:"p" ~perc:0.3
               ~deadline_ms:20.0 "SELECT x FROM T"
           with
          | Net.Client.Timed_out _ -> ()
          | o ->
            Alcotest.failf "expected queue-expired timeout, got %s"
              (Net.Client.outcome_label o));
          Net.Client.close c;
          Thread.join holder))

(* ------------------------------------------------------------------ *)
(* malformed input never kills the server *)

let raw_connect addr =
  match addr with
  | Net.Server.Unix_path p ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX p);
    fd
  | Net.Server.Tcp _ -> Alcotest.fail "test uses unix sockets"

let test_server_survives_malformed_frames () =
  let ctx = build_ctx () in
  with_server ctx (fun server ->
      let addr = Net.Server.address server in
      (* garbage bytes: bad magic *)
      let fd = raw_connect addr in
      ignore (Unix.write fd (Bytes.of_string "GARBAGE-NOT-A-FRAME") 0 19);
      (* the server replies with an Err frame (best effort) and drops
         only this connection *)
      Unix.close fd;
      (* a torn frame: valid header promising more payload than sent *)
      let fd = raw_connect addr in
      let frame = Net.Frame.encode ~typ:1 "this payload will be cut short" in
      let cut = String.length frame - 10 in
      ignore (Unix.write fd (Bytes.of_string (String.sub frame 0 cut)) 0 cut);
      Unix.close fd;
      (* a valid frame with an undecodable body *)
      let fd = raw_connect addr in
      let frame = Net.Frame.encode ~typ:1 "not a query payload" in
      ignore (Unix.write fd (Bytes.of_string frame) 0 (String.length frame));
      Thread.delay 0.05;
      Unix.close fd;
      (* after all that, a well-formed request still answers *)
      let c = Net.Client.create ~seed:3 addr in
      (match Net.Client.query c ~user:"u0" ~purpose:"p" ~perc:0.3 "SELECT x FROM T" with
      | Net.Client.Answer _ -> ()
      | o -> Alcotest.failf "server dead after malformed input: %s" (Net.Client.outcome_label o));
      Net.Client.close c;
      let stats = Net.Server.stats server in
      let malformed = try List.assoc "net.malformed" stats with Not_found -> 0 in
      Alcotest.(check bool) "malformed frames counted" true (malformed >= 2))

(* ------------------------------------------------------------------ *)
(* chaos: armed net.* faults, every request terminal, server correct after *)

let test_server_chaos_all_terminal () =
  let ctx = build_ctx () in
  let config = { Net.Server.default_config with admit = 2; queue = 2 } in
  with_server ~config ctx (fun server ->
      let addr = Net.Server.address server in
      let beta = 0.5 in
      List.iter
        (fun seed ->
          let plan =
            Fault.plan ~rate:0.2
              ~sites:
                [
                  Fault.site_net_accept;
                  Fault.site_net_read;
                  Fault.site_net_write;
                  Fault.site_net_delay;
                ]
              ~seed ()
          in
          Fault.with_plan plan (fun () ->
              let report =
                Workload.Load_gen.run
                  {
                    Workload.Load_gen.principals = 4;
                    requests_per_principal = 8;
                    think_ms = 0.0;
                    zipf_s = 1.1;
                    seed;
                  }
                  ~queries
                  ~user_of:(fun i -> Printf.sprintf "u%d" i)
                  ~exec:(fun ~principal ~user ~sql ->
                    let client =
                      Net.Client.create
                        ~config:
                          { Net.Client.default_config with retries = 2 }
                        ~seed:(principal * 1000) addr
                    in
                    Fun.protect
                      ~finally:(fun () -> Net.Client.close client)
                      (fun () ->
                        match
                          Net.Client.query client ~user ~purpose:"p" ~perc:0.3 sql
                        with
                        | Net.Client.Answer a ->
                          (* fail-closed across the wire: the answer body
                             matches the in-process answer, which never
                             releases at or below β *)
                          Workload.Load_gen.Answered
                            { degraded = a.Net.Wire.degraded <> None }
                        | Net.Client.Shed _ -> Workload.Load_gen.Shed
                        | Net.Client.Timed_out _ -> Workload.Load_gen.Timed_out
                        | Net.Client.Accepted _ -> Workload.Load_gen.Failed "accepted?"
                        | Net.Client.Failed m -> Workload.Load_gen.Failed m))
              in
              (* the terminal-outcome property: nothing hangs, nothing is
                 silently dropped *)
              Alcotest.(check int)
                "every request reached a terminal outcome" (4 * 8)
                report.Workload.Load_gen.total))
        [ 1; 2; 3 ];
      Fault.disarm ();
      (* after the chaos: the server still answers, and bit-identically
         to a fresh in-process session *)
      let c = Net.Client.create ~seed:4 addr in
      let wire_body =
        match Net.Client.query c ~user:"u3" ~purpose:"p" ~perc:0.3 "SELECT x FROM T" with
        | Net.Client.Answer a -> a.Net.Wire.body
        | o -> Alcotest.failf "server dead after chaos: %s" (Net.Client.outcome_label o)
      in
      Net.Client.close c;
      (* u3 never queried during the chaos, so its server-side session is
         fresh — comparable to a fresh local one *)
      let session = E.Session.create ctx in
      let local =
        E.Session.batch session
          [
            {
              E.query = Pcqe.Query.sql "SELECT x FROM T";
              user = "u3";
              purpose = "p";
              perc = 0.3;
            };
          ]
        |> List.map (fun r -> Net.Wire.body_of_response (ok r))
      in
      Alcotest.(check bool)
        "post-chaos answer identical to in-process" true
        (String.equal wire_body (List.hd local));
      (* no released tuple at or below β in the reference answer the wire
         bytes were just proven identical to *)
      let resp = ok (E.Session.answer session
        { E.query = Pcqe.Query.sql "SELECT x FROM T"; user = "u3"; purpose = "p"; perc = 0.3 })
      in
      List.iter
        (fun (row : E.released) ->
          Alcotest.(check bool) "released above beta" true (row.E.confidence > beta))
        resp.E.released)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "net"
    [
      ( "frame",
        [
          Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "crc32 vector" `Quick test_frame_crc32_vector;
          Alcotest.test_case "crc32 every length 0..64" `Quick test_crc32_every_short_length;
          QCheck_alcotest.to_alcotest qcheck_crc32_matches_reference;
          QCheck_alcotest.to_alcotest qcheck_crc32_every_offset;
          QCheck_alcotest.to_alcotest qcheck_frame_tail_split;
          Alcotest.test_case "rejects malformed" `Quick test_frame_rejects_malformed;
        ] );
      ( "wire",
        [
          Alcotest.test_case "request roundtrip" `Quick test_wire_request_roundtrip;
          Alcotest.test_case "response roundtrip" `Quick test_wire_response_roundtrip;
          Alcotest.test_case "rejects truncated" `Quick test_wire_rejects_truncated;
          Alcotest.test_case "golden answer digests" `Quick test_golden_answer_digests;
          Alcotest.test_case "golden message digest" `Quick test_golden_message_digest;
          Alcotest.test_case "golden strings" `Quick test_golden_strings;
          Alcotest.test_case "concurrent encoding" `Quick test_concurrent_encoding;
        ] );
      ( "server",
        [
          Alcotest.test_case "identity with Session.batch" `Quick
            test_server_identity_with_batch;
          Alcotest.test_case "accept via single-use token" `Quick
            test_server_accept_token;
          Alcotest.test_case "sheds under overload" `Quick
            test_server_sheds_under_overload;
          Alcotest.test_case "queue deadline timeout" `Quick
            test_server_queue_deadline_timeout;
          Alcotest.test_case "survives malformed frames" `Quick
            test_server_survives_malformed_frames;
          Alcotest.test_case "chaos: all requests terminal" `Quick
            test_server_chaos_all_terminal;
          Alcotest.test_case "client survives SIGALRM" `Quick test_client_survives_sigalrm;
        ] );
    ]
