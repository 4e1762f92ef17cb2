(* The three workloads and the closed-loop load generator that drives
   them over the wire.

   Closed loop, one thread and one connection per client, zero think
   time: a PCQE caller waits for the answer or proposal before deciding
   to accept and re-query.  Client retries are off, so a shed or a
   timeout is a failure and does not hide inside a latency.  No deadline
   is sent, so no answer may come back degraded.

   Client [c] only speaks for principals [c], [c+2], [c+4] and [c+6].
   Each principal's server-side caches then see one request order, the
   one its client sent, and the in-process replay can reproduce every
   answer byte for byte. *)

module Sm = Prng.Splitmix

type kind = Browse | Adhoc | Improve

let kind_name = function Browse -> "browse" | Adhoc -> "adhoc" | Improve -> "improve"
let kind_of_string = function "browse" -> Some Browse | "adhoc" -> Some Adhoc | "improve" -> Some Improve | _ -> None
let clients = 2
let improve_theta = 0.9

type request = { principal : string; sql : string; perc : float }

(* A round is what one client does before its next decision: one query,
   or in [improve] a query at theta 0.9, the accept of its proposal and
   the re-query. *)
type round = Single of request | Window of request

let principal_of ~client i = Data.principals.(client + (clients * (i mod 4)))

(* The 16 browse texts in zipf rank order, selects at even ranks and R-S
   joins at odd ones: the seed moves the windows, never the mix. *)
let browse_texts size ~seed =
  let rng = Sm.of_int (seed lxor 0x6272) in
  Array.init 16 (fun rank ->
      let shape = if rank mod 2 = 0 then Data.Select else Data.Join in
      Data.sql_of size shape ~lo:(Sm.int rng (size.Data.r_rows - size.window)))

(* Warm-up requests, issued one at a time before the timed run and
   counted in set-up: [browse] fills every principal's caches with every
   text; the others open each principal's session with one select. *)
let warmup kind size ~seed =
  let texts =
    match kind with
    | Browse -> Array.to_list (browse_texts size ~seed)
    | Adhoc | Improve -> [ Data.sql_of size Data.Select ~lo:0 ]
  in
  List.concat_map
    (fun principal -> List.map (fun sql -> { principal; sql; perc = 0.0 }) texts)
    (Array.to_list Data.principals)

(* Client [client]'s rounds, a pure function of the seed.  [improve]
   walks a seeded permutation of fresh windows in the client's own half
   of the key space, so its accepts never touch another client's
   tuples and no window is visited twice; [None] once the half is used
   up. *)
let rounds kind size ~seed ~client =
  let rng = Sm.of_int ((seed * 31) + client + 1) in
  let i = ref (-1) in
  match kind with
  | Browse ->
    let texts = browse_texts size ~seed in
    fun () ->
      incr i;
      let rank = Workload.Load_gen.zipf_pick rng ~s:1.1 ~n:(Array.length texts) in
      Some (Single { principal = principal_of ~client !i; sql = texts.(rank); perc = 0.0 })
  | Adhoc ->
    let shapes = [| Data.Select; Data.Join; Data.Band |] in
    fun () ->
      incr i;
      let shape = shapes.(!i mod Array.length shapes) in
      let span = match shape with Data.Band -> size.band_window | _ -> size.window in
      let lo = Sm.int rng (size.r_rows - span) in
      Some (Single { principal = principal_of ~client !i; sql = Data.sql_of size shape ~lo; perc = 0.0 })
  | Improve ->
    let w = size.improve_window in
    let per_client = size.r_rows / clients / w in
    let order = Array.init per_client Fun.id in
    for j = per_client - 1 downto 1 do
      let k = Sm.int rng (j + 1) in
      let t = order.(j) in
      order.(j) <- order.(k);
      order.(k) <- t
    done;
    fun () ->
      incr i;
      if !i >= per_client then None
      else
        let lo = ((client * per_client) + order.(!i)) * w in
        Some
          (Window
             { principal = principal_of ~client !i; sql = Data.improve_sql ~lo ~hi:(lo + w); perc = improve_theta })

(* --- the wire run ---------------------------------------------------- *)

type outcome =
  | Answered of {
      released : int;
      withheld : int;
      requested : int;
      degraded : string option;
      token : int option;
      body : string;
    }
  | Accepted of { applied : int; cost : float }
  | Shed
  | Timed_out of string
  | Failed of string

type record = {
  client : int;
  round : int;  (** index of the round within the client's stream *)
  req : request;
  accept : bool;  (** an Accept round trip (of [req]'s principal) *)
  timed : bool;  (** part of a round that started after the ramp *)
  sent : float;  (** absolute send time, s *)
  latency : float;  (** s *)
  outcome : outcome;
}

let client_config =
  {
    Net.Client.default_config with
    request_timeout_ms = 120_000.0;
    retries = 0;
    breaker_threshold = max_int;
  }

let outcome_of = function
  | Net.Client.Answer a ->
    Answered
      {
        released = a.Net.Wire.released;
        withheld = a.withheld;
        requested = a.requested;
        degraded = a.degraded;
        token = a.proposal_token;
        body = a.body;
      }
  | Net.Client.Accepted { applied; cost } -> Accepted { applied; cost }
  | Net.Client.Shed _ -> Shed
  | Net.Client.Timed_out r -> Timed_out r
  | Net.Client.Failed m -> Failed m

(* Identical bodies share one string, so a long browse run keeps one copy
   per distinct answer. *)
let intern seen (req : request) = function
  | Answered a ->
    let key = (req.principal, req.sql) in
    let known = Option.value ~default:[] (Hashtbl.find_opt seen key) in
    (match List.find_opt (String.equal a.body) known with
    | Some body -> Answered { a with body }
    | None ->
      Hashtbl.replace seen key (a.body :: known);
      Answered a)
  | o -> o

type conn = { client : int; net : Net.Client.t; seen : (string * string, string list) Hashtbl.t }

let connect addr ~client = { client; net = Net.Client.create ~config:client_config addr; seen = Hashtbl.create 64 }

let call conn ~round ~timed ~accept req f =
  let sent = Unix.gettimeofday () in
  let o = f conn.net in
  let latency = Unix.gettimeofday () -. sent in
  { client = conn.client; round; req; accept; timed; sent; latency; outcome = intern conn.seen req (outcome_of o) }

let query conn ~round ~timed req =
  call conn ~round ~timed ~accept:false req (fun c ->
      Net.Client.query c ~user:req.principal ~purpose:Data.purpose ~perc:req.perc req.sql)

(* One round; returns its records, oldest first. *)
let run_round conn ~round ~timed = function
  | Single req -> [ query conn ~round ~timed req ]
  | Window req -> (
    let first = query conn ~round ~timed req in
    match first.outcome with
    | Answered { token = Some token; _ } ->
      let acc =
        call conn ~round ~timed ~accept:true req (fun c -> Net.Client.accept c ~user:req.principal ~token)
      in
      [ first; acc; query conn ~round ~timed req ]
    | _ -> [ first ])

(* Warm-up: one request at a time, each on its principal's client. *)
let warm addr reqs =
  let conns = Array.init clients (fun client -> connect addr ~client) in
  let client_of p =
    let rec find i = if Data.principals.(i) = p then i mod clients else find (i + 1) in
    find 0
  in
  let records = List.map (fun req -> query conns.(client_of req.principal) ~round:(-1) ~timed:false req) reqs in
  Array.iter (fun c -> Net.Client.close c.net) conns;
  records

type run = {
  records : record list;  (** ramp and timed rounds, each client's in order *)
  start : float;  (** end of the ramp: the first timed round starts here *)
  stop : float;  (** last reply *)
  exhausted : bool;  (** a client ran out of rounds *)
}

(* Every client runs rounds for [ramp] seconds, whose rounds are not
   timed, then for [seconds] more; a round under way at the end finishes,
   so each accept has its re-query. *)
let run addr ~ramp ~seconds ~next =
  let start = Unix.gettimeofday () +. ramp in
  let deadline = start +. seconds in
  let results = Array.make clients ([], false) in
  let body client () =
    let conn = connect addr ~client in
    let rec loop round acc =
      let now = Unix.gettimeofday () in
      if now >= deadline then (acc, false)
      else
        match next.(client) () with
        | None -> (acc, true)
        | Some r -> loop (round + 1) (List.rev_append (run_round conn ~round ~timed:(now >= start) r) acc)
    in
    let acc, exhausted = loop 0 [] in
    Net.Client.close conn.net;
    results.(client) <- (List.rev acc, exhausted)
  in
  List.iter Thread.join (List.init clients (fun c -> Thread.create (body c) ()));
  let records = List.concat_map fst (Array.to_list results) in
  let stop = List.fold_left (fun m r -> Float.max m (r.sent +. r.latency)) start records in
  { records; start; stop; exhausted = Array.exists snd results }
