type t = { rel : string; row : int }

let make rel row = { rel; row }

let compare a b =
  let c = String.compare a.rel b.rel in
  if c <> 0 then c else Int.compare a.row b.row

let equal a b = a.row = b.row && String.equal a.rel b.rel

let hash a = Hashtbl.hash (a.rel, a.row)

(* Digits are taken on the non-positive side, so [min_int] needs no
   special case; no scratch state, so concurrent callers are safe. *)
let add_int b n =
  let rec go m =
    if m <= -10 then go (m / 10);
    Buffer.add_char b (Char.unsafe_chr (48 - (m mod 10)))
  in
  if n < 0 then begin
    Buffer.add_char b '-';
    go n
  end
  else go (-n)

let add_to_buffer b a =
  Buffer.add_string b a.rel;
  Buffer.add_char b '#';
  add_int b a.row

let to_string a =
  let b = Buffer.create (String.length a.rel + 8) in
  add_to_buffer b a;
  Buffer.contents b

let of_string s =
  match String.rindex_opt s '#' with
  | None -> None
  | Some i -> (
    let rel = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt rest with
    | Some row when rel <> "" -> Some { rel; row }
    | _ -> None)

let pp ppf a = Format.pp_print_string ppf (to_string a)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Hashed = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)
module Table = Hashtbl.Make (Hashed)
