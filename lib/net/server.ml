module Fault = Resilience.Fault

type listen =
  | Tcp of string * int
  | Unix_path of string

let listen_to_string = function
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p
  | Unix_path p -> "unix:" ^ p

let listen_of_string s =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "bad listen address %S (want tcp:HOST:PORT or unix:PATH)" s)
  | Some i -> (
    let scheme = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    match scheme with
    | "unix" -> Ok (Unix_path rest)
    | "tcp" -> (
      match String.rindex_opt rest ':' with
      | None -> Error (Printf.sprintf "bad tcp address %S (want tcp:HOST:PORT)" s)
      | Some j -> (
        let host = String.sub rest 0 j in
        let port = String.sub rest (j + 1) (String.length rest - j - 1) in
        match int_of_string_opt port with
        | Some p when p >= 0 -> Ok (Tcp (host, p))
        | _ -> Error (Printf.sprintf "bad port %S" port)))
    | _ -> Error (Printf.sprintf "unknown scheme %S (want tcp: or unix:)" scheme))

type config = {
  admit : int;
  queue : int;
  retry_after_ms : float;
  default_deadline_ms : float option;
  poll_interval_s : float;
  fault_stall_s : float;
}

let default_config =
  {
    admit = 4;
    queue = 16;
    retry_after_ms = 50.0;
    default_deadline_ms = None;
    poll_interval_s = 0.05;
    fault_stall_s = 0.005;
  }

type session_slot = {
  sm : Mutex.t;
  session : Pcqe.Engine.Session.t;
  mutable pending : (int * Pcqe.Engine.proposal) option;
      (* latest proposal, parked under a single-use token *)
  mutable next_token : int;
}

type t = {
  ctx : Pcqe.Engine.context;
  config : config;
  obs : Obs.t option;
  lsock : Unix.file_descr;
  bound : listen;
  mutable published : Relational.Database.t;
      (* the one true database: accepted proposals are applied against
         it (serialized under [m]) and every query pulls it before
         answering, so an accept by one principal is visible to all —
         per-session caches revalidate through the epoch vectors *)
  m : Mutex.t;
  cond : Condition.t;  (* admission slots; also connection drain *)
  mutable running : bool;
  mutable in_flight : int;
  mutable queued : int;
  mutable live_conns : Unix.file_descr list;
  mutable conn_threads : int;
  sessions : (string, session_slot) Hashtbl.t;
  counters : (string, int ref) Hashtbl.t;
  mutable acceptor : Thread.t option;
}

(* Severed connection (injected fault or write failure): unwinds the
   connection loop; never escapes the connection thread. *)
exception Severed

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* Counters and gauges are updated under [t.m] only: Obs registries are
   single-writer and the server has many threads. *)
let incr_locked t name =
  (match Hashtbl.find_opt t.counters name with
  | Some r -> incr r
  | None -> Hashtbl.replace t.counters name (ref 1));
  Option.iter (fun o -> Obs.Metrics.incr o.Obs.metrics name) t.obs

let count t name = locked t (fun () -> incr_locked t name)

let refresh_gauges_locked t =
  Option.iter
    (fun o ->
      Obs.Metrics.set_gauge o.Obs.metrics "net.queue_depth" (float_of_int t.queued);
      Obs.Metrics.set_gauge o.Obs.metrics "net.in_flight" (float_of_int t.in_flight))
    t.obs

let now_ms () = Unix.gettimeofday () *. 1000.0

(* --- admission ----------------------------------------------------- *)

type admission = Admitted | Shed | Stopping

let admit t =
  locked t (fun () ->
      if not t.running then Stopping
      else if t.in_flight < t.config.admit then begin
        t.in_flight <- t.in_flight + 1;
        refresh_gauges_locked t;
        Admitted
      end
      else if t.queued >= t.config.queue then Shed
      else begin
        t.queued <- t.queued + 1;
        refresh_gauges_locked t;
        while t.in_flight >= t.config.admit && t.running do
          Condition.wait t.cond t.m
        done;
        t.queued <- t.queued - 1;
        if not t.running then begin
          refresh_gauges_locked t;
          Condition.broadcast t.cond;
          Stopping
        end
        else begin
          t.in_flight <- t.in_flight + 1;
          refresh_gauges_locked t;
          Admitted
        end
      end)

let release t =
  locked t (fun () ->
      t.in_flight <- t.in_flight - 1;
      refresh_gauges_locked t;
      Condition.signal t.cond)

(* --- socket I/O ---------------------------------------------------- *)

let rec recv_blocking fd buf off len =
  try Unix.read fd buf off len with Unix.Unix_error (EINTR, _, _) -> recv_blocking fd buf off len

(* Wait until the connection has bytes (start of a frame) or the server
   is stopping.  Between frames we poll so [stop] is prompt; once a
   frame starts, reads block — [stop] shuts the socket down, which
   unblocks them. *)
let rec wait_readable t fd =
  if not t.running then `Stopped
  else
    match Unix.select [ fd ] [] [] t.config.poll_interval_s with
    | [], _, _ -> wait_readable t fd
    | _ -> `Ready
    | exception Unix.Unix_error (EINTR, _, _) -> wait_readable t fd

(* --- responses ----------------------------------------------------- *)

let send_response t fd resp =
  (match Fault.hit Fault.site_net_write with
  | () -> ()
  | exception Fault.Injected _ ->
    count t "net.fault.write";
    raise Severed);
  match Frame.write fd (Wire.frame_response resp) with
  | () -> ()
  | exception Unix.Unix_error _ -> raise Severed

let terminal t fd resp counter =
  count t counter;
  send_response t fd resp

(* --- request execution --------------------------------------------- *)

let slot_for t user =
  locked t (fun () ->
      match Hashtbl.find_opt t.sessions user with
      | Some s -> s
      | None ->
        let s =
          {
            sm = Mutex.create ();
            session = Pcqe.Engine.Session.create t.ctx;
            pending = None;
            next_token = 1;
          }
        in
        Hashtbl.replace t.sessions user s;
        s)

let with_slot slot f =
  Mutex.lock slot.sm;
  Fun.protect ~finally:(fun () -> Mutex.unlock slot.sm) f

let run_query t fd ~user ~purpose ~perc ~sql ~deadline_ms ~queued_ms =
  let eff_deadline =
    match deadline_ms with
    | Some d -> Some d
    | None -> t.config.default_deadline_ms
  in
  let remaining = Option.map (fun d -> d -. queued_ms) eff_deadline in
  match remaining with
  | Some r when r <= 0.0 ->
    terminal t fd
      (Wire.Timeout { reason = "deadline expired in admission queue" })
      "net.timeouts"
  | _ -> (
    let slot = slot_for t user in
    let outcome =
      with_slot slot (fun () ->
          (* serve against the latest published database: another
             principal's accepted proposal must be visible here *)
          let published = locked t (fun () -> t.published) in
          let base = Pcqe.Engine.Session.context slot.session in
          let base =
            if base.Pcqe.Engine.db == published then base
            else { base with Pcqe.Engine.db = published }
          in
          let ctx =
            match remaining with
            | Some r -> { base with Pcqe.Engine.deadline = Resilience.Deadline.Wall_ms r }
            | None -> base
          in
          Pcqe.Engine.Session.set_context slot.session ctx;
          match
            Pcqe.Engine.Session.answer slot.session
              {
                Pcqe.Engine.query = Pcqe.Query.Sql sql;
                user;
                purpose;
                perc;
              }
          with
          | Ok resp ->
            let token =
              Option.map
                (fun p ->
                  let tok = slot.next_token in
                  slot.next_token <- tok + 1;
                  slot.pending <- Some (tok, p);
                  tok)
                resp.Pcqe.Engine.proposal
            in
            Ok (Wire.answer_of_response ?proposal_token:token resp)
          | Error msg -> Error msg
          | exception Fault.Injected what -> Error ("fault injected: " ^ what)
          | exception exn -> Error ("internal: " ^ Printexc.to_string exn))
    in
    match outcome with
    | Ok a -> terminal t fd (Wire.Answer a) "net.answers"
    | Error msg -> terminal t fd (Wire.Err msg) "net.errors")

let run_accept t fd ~user ~token =
  match locked t (fun () -> Hashtbl.find_opt t.sessions user) with
  | None -> terminal t fd (Wire.Err "unknown or expired proposal token") "net.errors"
  | Some slot -> (
    let outcome =
      with_slot slot (fun () ->
          match slot.pending with
          | Some (tok, p) when tok = token ->
            slot.pending <- None (* single-use: a replay cannot re-apply *);
            (* apply against the latest published database and publish
               the result, all under the server lock: concurrent accepts
               by different principals form one linear history *)
            (match
               locked t (fun () ->
                   let ctx = Pcqe.Engine.Session.context slot.session in
                   Pcqe.Engine.Session.set_context slot.session
                     { ctx with Pcqe.Engine.db = t.published };
                   Pcqe.Engine.Session.accept_proposal slot.session p;
                   t.published <-
                     (Pcqe.Engine.Session.context slot.session).Pcqe.Engine.db)
             with
            | () ->
              Ok
                (Wire.Accepted
                   {
                     applied = List.length p.Pcqe.Engine.increments;
                     cost = p.Pcqe.Engine.cost;
                   })
            | exception exn -> Error ("internal: " ^ Printexc.to_string exn))
          | _ -> Error "unknown or expired proposal token")
    in
    match outcome with
    | Ok resp -> terminal t fd resp "net.accepted"
    | Error msg -> terminal t fd (Wire.Err msg) "net.errors")

let handle_request t fd ~typ ~payload =
  match Wire.decode_request ~typ payload with
  | Error msg ->
    count t "net.malformed";
    terminal t fd (Wire.Err ("malformed request: " ^ msg)) "net.errors"
  | Ok Wire.Ping -> terminal t fd Wire.Pong "net.pings"
  | Ok req -> (
    let t0 = now_ms () in
    match admit t with
    | Stopping -> terminal t fd (Wire.Err "server stopping") "net.errors"
    | Shed ->
      terminal t fd
        (Wire.Overloaded { retry_after_ms = t.config.retry_after_ms })
        "net.shed"
    | Admitted ->
      Fun.protect
        ~finally:(fun () -> release t)
        (fun () ->
          (match Fault.hit Fault.site_net_delay with
          | () -> ()
          | exception Fault.Injected _ ->
            (* a stalled peer mid-execution: the request proceeds, late,
               while holding its admission slot — exactly the overload
               shape the shedding tests arm deterministically *)
            count t "net.fault.delay";
            Unix.sleepf t.config.fault_stall_s);
          let queued_ms = now_ms () -. t0 in
          match req with
          | Wire.Query { user; purpose; perc; sql; deadline_ms } ->
            run_query t fd ~user ~purpose ~perc ~sql ~deadline_ms ~queued_ms
          | Wire.Accept { user; token } -> run_accept t fd ~user ~token
          | Wire.Ping -> assert false))

(* --- connection loop ----------------------------------------------- *)

let serve_conn t fd =
  let rec loop () =
    match wait_readable t fd with
    | `Stopped -> ()
    | `Ready -> (
      (match Fault.hit Fault.site_net_read with
      | () -> ()
      | exception Fault.Injected _ ->
        count t "net.fault.read";
        raise Severed);
      match Frame.read (recv_blocking fd) with
      | Error Frame.Closed -> ()
      | Error e ->
        (* torn or malformed framing: sync is lost, so reject the frame,
           tell the peer (best effort) and drop only this connection *)
        count t "net.malformed";
        (try send_response t fd (Wire.Err (Frame.error_to_string e))
         with Severed -> ());
        ()
      | Ok (typ, payload) ->
        count t "net.requests";
        handle_request t fd ~typ ~payload;
        loop ())
  in
  (try loop () with
  | Severed -> ()
  | Unix.Unix_error _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  locked t (fun () ->
      t.live_conns <- List.filter (fun c -> c <> fd) t.live_conns;
      t.conn_threads <- t.conn_threads - 1;
      Condition.broadcast t.cond)

let accept_loop t =
  while t.running do
    match Unix.accept ~cloexec:true t.lsock with
    | fd, _ -> (
      match Fault.hit Fault.site_net_accept with
      | exception Fault.Injected _ ->
        (* the peer vanishes before its first byte *)
        count t "net.fault.accept";
        (try Unix.close fd with Unix.Unix_error _ -> ())
      | () ->
        count t "net.connections";
        (match t.bound with
        | Tcp _ -> ( try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ())
        | Unix_path _ -> ());
        locked t (fun () ->
            t.live_conns <- fd :: t.live_conns;
            t.conn_threads <- t.conn_threads + 1);
        ignore (Thread.create (fun () -> serve_conn t fd) ()))
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> if t.running then Thread.yield () else ()
  done

(* --- lifecycle ----------------------------------------------------- *)

let bind_listen spec =
  match spec with
  | Tcp (host, port) ->
    let addr =
      try (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with Not_found -> Unix.inet_addr_loopback
    in
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (addr, port));
    Unix.listen fd 64;
    let bound =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (a, p) -> Tcp (Unix.string_of_inet_addr a, p)
      | _ -> spec
    in
    (fd, bound)
  | Unix_path path ->
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    (fd, Unix_path path)

let start ?obs ?(config = default_config) ~ctx spec =
  (* a peer closing mid-write must surface as EPIPE, not kill the
     process: every terminal-response path handles the exception *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  if config.admit < 1 then invalid_arg "Server.start: admit must be >= 1";
  if config.queue < 0 then invalid_arg "Server.start: queue must be >= 0";
  let lsock, bound = bind_listen spec in
  (* accept must wake periodically to observe the stop flag *)
  (try Unix.setsockopt_float lsock Unix.SO_RCVTIMEO config.poll_interval_s
   with Unix.Unix_error _ -> ());
  let ctx =
    { ctx with Pcqe.Engine.obs = None; caches = None; profile = false }
  in
  let t =
    {
      ctx;
      config;
      obs;
      lsock;
      bound;
      published = ctx.Pcqe.Engine.db;
      m = Mutex.create ();
      cond = Condition.create ();
      running = true;
      in_flight = 0;
      queued = 0;
      live_conns = [];
      conn_threads = 0;
      sessions = Hashtbl.create 16;
      counters = Hashtbl.create 16;
      acceptor = None;
    }
  in
  locked t (fun () -> refresh_gauges_locked t);
  t.acceptor <- Some (Thread.create (fun () -> accept_loop t) ());
  t

let address t = t.bound

let stop ?(drain_deadline_s = 0.0) t =
  let was_running =
    locked t (fun () ->
        if not t.running then false
        else begin
          t.running <- false;
          (* wake queued admitters: they observe the stop flag and answer
             "server stopping" instead of waiting for a slot *)
          Condition.broadcast t.cond;
          true
        end)
  in
  if was_running || t.acceptor <> None then begin
    (* graceful drain: in-flight requests (already admitted) run to
       their terminal response, bounded by the deadline — new frames
       are refused the moment the flag flips, so in_flight is monotone
       non-increasing here *)
    if was_running && drain_deadline_s > 0.0 then begin
      let deadline = Unix.gettimeofday () +. drain_deadline_s in
      let rec drain () =
        let busy = locked t (fun () -> t.in_flight > 0 || t.queued > 0) in
        if busy && Unix.gettimeofday () < deadline then begin
          Unix.sleepf 0.002;
          drain ()
        end
      in
      drain ()
    end;
    let conns = locked t (fun () -> t.live_conns) in
    List.iter
      (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      conns;
    (match t.acceptor with
    | Some th ->
      t.acceptor <- None;
      (try Thread.join th with _ -> ())
    | None -> ());
    (try Unix.close t.lsock with Unix.Unix_error _ -> ());
    (match t.bound with
    | Unix_path p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
    | Tcp _ -> ());
    locked t (fun () ->
        while t.conn_threads > 0 do
          Condition.wait t.cond t.m
        done)
  end

let counter_value t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0)

let requests_served t =
  List.fold_left
    (fun acc n -> acc + counter_value t n)
    0
    [ "net.answers"; "net.shed"; "net.timeouts"; "net.errors"; "net.pings"; "net.accepted" ]

let stats t =
  locked t (fun () ->
      Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
      |> List.sort (fun (a, _) (b, _) -> compare a b))

(* shard-level serving gauges, refreshed on demand — a metrics export is
   the natural moment; a per-request refresh would cost a scan of every
   session's cache.  Epochs and owned-tuple counts come from the
   published database; conf-cache occupancy is summed across the live
   per-principal sessions, each read under its own slot mutex. *)
let refresh_shard_gauges t =
  match t.obs with
  | None -> ()
  | Some o ->
    let db, slots =
      locked t (fun () ->
          (t.published, Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions []))
    in
    let shards = Relational.Database.shard_count db in
    let epochs = Relational.Database.confidence_vector db in
    let tuples = Relational.Database.shard_tuples db in
    let sizes = Array.make shards 0 in
    List.iter
      (fun slot ->
        Mutex.lock slot.sm;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock slot.sm)
          (fun () ->
            match
              (Pcqe.Engine.Session.context slot.session).Pcqe.Engine.caches
            with
            | None -> ()
            | Some c ->
              Array.iteri
                (fun i n -> sizes.(i) <- sizes.(i) + n)
                (Pcqe.Conf_cache.shard_sizes (Pcqe.Caches.conf c) ~shards)))
      slots;
    for i = 0 to shards - 1 do
      let g name = Printf.sprintf "shard.%s{shard=\"%d\"}" name i in
      Obs.Metrics.set_gauge o.Obs.metrics (g "epoch") (float_of_int epochs.(i));
      Obs.Metrics.set_gauge o.Obs.metrics (g "tuples")
        (float_of_int tuples.(i));
      Obs.Metrics.set_gauge o.Obs.metrics (g "conf_cache_size")
        (float_of_int sizes.(i))
    done
