(* The server under test runs in a process of its own: the benchmark
   executable re-executed with [--serve], which builds the database from
   the seed and serves it.  With the server and the load generator in one
   process, the server's connection threads and the clients share one
   OCaml runtime lock, and latency then measures lock hand-offs as much
   as the server.  A fresh process image also keeps the load generator's
   heap out of the server's peak resident set.

   The child serves [Net.Server] on an ephemeral loopback TCP port and
   answers line commands on its standard input: [stats] (the server's
   counters) and [rss] (its peak resident set).  End of file, which also
   happens when the parent dies, stops the server and ends the child. *)

type t = { pid : int; port : int; cmd : out_channel; reply : in_channel }

let peak_rss_kb () =
  (* VmHWM: the process's peak resident set, in kB *)
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        | _ -> scan ()
        | exception End_of_file -> 0
      in
      scan ())

(* The child's main loop, on its standard input and output. *)
let serve ~ctx =
  let server = Net.Server.start ~ctx (Net.Server.Tcp ("127.0.0.1", 0)) in
  let port =
    match Net.Server.address server with Net.Server.Tcp (_, p) -> p | Net.Server.Unix_path _ -> 0
  in
  Printf.printf "%d\n%!" port;
  let rec loop () =
    match input_line stdin with
    | "stats" ->
      List.iter (fun (k, v) -> Printf.printf "%s %d\n" k v) (Net.Server.stats server);
      Printf.printf "end\n%!";
      loop ()
    | "rss" ->
      Printf.printf "%d\n%!" (peak_rss_kb ());
      loop ()
    | _ -> loop ()
    | exception End_of_file -> ()
  in
  loop ();
  Net.Server.stop server

(* [args] are the child's arguments after [--serve]. *)
let start args =
  let cmd_r, cmd_w = Unix.pipe ~cloexec:true () in
  let reply_r, reply_w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe (Array.of_list ((exe :: "--serve" :: args))) cmd_r reply_w Unix.stderr in
  Unix.close cmd_r;
  Unix.close reply_w;
  let cmd = Unix.out_channel_of_descr cmd_w and reply = Unix.in_channel_of_descr reply_r in
  match int_of_string (input_line reply) with
  | port -> { pid; port; cmd; reply }
  | exception e ->
    close_out_noerr cmd;
    ignore (Unix.waitpid [] pid);
    failwith ("server process did not start: " ^ Printexc.to_string e)

let address t = Net.Server.Tcp ("127.0.0.1", t.port)

let stats t =
  output_string t.cmd "stats\n";
  flush t.cmd;
  let rec read acc =
    match input_line t.reply with
    | "end" -> List.rev acc
    | line -> Scanf.sscanf line "%s %d" (fun k v -> read ((k, v) :: acc))
  in
  read []

let stat stats name = Option.value ~default:0 (List.assoc_opt name stats)

let peak_rss_mb t =
  output_string t.cmd "rss\n";
  flush t.cmd;
  float_of_string (input_line t.reply) /. 1024.0

let stop t =
  close_out t.cmd;
  close_in t.reply;
  match Unix.waitpid [] t.pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "server process did not exit cleanly"
