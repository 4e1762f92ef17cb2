(* Order statistics and the result line. *)

(* Nearest-rank quantile of an unsorted sample; [nan] when empty. *)
let quantile xs q =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else begin
    Array.sort compare a;
    a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))
  end

let median xs = quantile xs 0.5
let ratio a b = if b = 0.0 then 0.0 else a /. b

type op_stats = { p50 : float; p90 : float; n : int }

(* Latencies in seconds to p50/p90 in milliseconds. *)
let op_stats latencies =
  { p50 = median latencies *. 1000.0; p90 = quantile latencies 0.9 *. 1000.0; n = List.length latencies }

(* A timing at p90 needs ten samples beyond it. *)
let min_samples = 100

type metric = { name : string; value : float; unit : string }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let result_line ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value) m.unit)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct attempted
    failed (String.concat ", " fields)
