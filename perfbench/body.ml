(* Reader for the canonical answer body ([Net.Wire.body_of_response]).

   The checks need the released confidences, the quoted proposal and its
   increments from bodies that arrived over the wire, and a comparison
   with a cold answer that ignores the per-row tier label (a cold answer
   has no caches, so it names a different tier for the same value). *)

type row = { tuple : string; lineage : string; confidence : float; tier : string }

type proposal = {
  solver : string;
  cost : float;
  projected : int;
  resolution : string;
  increments : (string * float) list;
}

type t = {
  schema : string;
  threshold : float option;
  released : row list;
  withheld : int;
  ambiguous : int;
  requested : int;
  policies : string list;
  infeasible : bool;
  degraded : string option;
  proposal : proposal option;
}

exception Malformed of string

let parse s =
  let pos = ref 0 in
  let need n =
    if !pos + n > String.length s then raise (Malformed "truncated body")
  in
  let u8 () =
    need 1;
    let v = Char.code s.[!pos] in
    incr pos;
    v
  in
  let u32 () =
    need 4;
    let v = Int32.to_int (String.get_int32_be s !pos) land 0xffff_ffff in
    pos := !pos + 4;
    v
  in
  let float () =
    need 8;
    let v = Int64.float_of_bits (String.get_int64_be s !pos) in
    pos := !pos + 8;
    v
  in
  let str () =
    let n = u32 () in
    need n;
    let v = String.sub s !pos n in
    pos := !pos + n;
    v
  in
  let opt f =
    match u8 () with
    | 0 -> None
    | 1 -> Some (f ())
    | n -> raise (Malformed (Printf.sprintf "option tag %d" n))
  in
  let list f = List.init (u32 ()) (fun _ -> f ()) in
  let schema = str () in
  let threshold = opt float in
  let released =
    list (fun () ->
        let tuple = str () in
        let lineage = str () in
        let confidence = float () in
        let tier = str () in
        { tuple; lineage; confidence; tier })
  in
  let withheld = u32 () in
  let ambiguous = u32 () in
  let requested = u32 () in
  let policies = list str in
  let infeasible = u8 () = 1 in
  let degraded = opt str in
  let proposal =
    opt (fun () ->
        let solver = str () in
        let cost = float () in
        let projected = u32 () in
        let resolution = str () in
        let increments =
          list (fun () ->
              let tid = str () in
              (tid, float ()))
        in
        { solver; cost; projected; resolution; increments })
  in
  if !pos <> String.length s then raise (Malformed "trailing bytes");
  { schema; threshold; released; withheld; ambiguous; requested; policies; infeasible; degraded; proposal }

(* The body with every tier label blanked: what must agree between a
   warm (cached) answer and a cold one. *)
let untiered b = { b with released = List.map (fun r -> { r with tier = "" }) b.released }

(* The proposal's increments as the engine applies them. *)
let increments p =
  List.map
    (fun (tid, target) ->
      match Lineage.Tid.of_string tid with
      | Some t -> (t, target)
      | None -> raise (Malformed ("bad tuple id " ^ tid)))
    p.increments
