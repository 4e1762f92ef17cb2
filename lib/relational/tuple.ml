type t = Value.t array

let make vs = vs
let of_list = Array.of_list
let arity = Array.length
let get t i = t.(i)
let values = Array.copy
let append = Array.append
let project t idx = Array.map (fun i -> t.(i)) idx

let conforms t s =
  arity t = Schema.arity s
  && Array.for_all
       (fun i -> Value.conforms t.(i) (Schema.column_at s i).Schema.cty)
       (Array.init (arity t) Fun.id)

let compare a b =
  let la = Array.length a and lb = Array.length b in
  let c = Int.compare la lb in
  if c <> 0 then c
  else begin
    let rec go i =
      if i = la then 0
      else
        let c = Value.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0
  end

let equal a b = compare a b = 0

let hash t = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 7 t

let add_to_buffer b t =
  Buffer.add_char b '(';
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_string b ", ";
      Value.add_to_buffer b v)
    t;
  Buffer.add_char b ')'

let to_string t =
  let b = Buffer.create 64 in
  add_to_buffer b t;
  Buffer.contents b

let pp ppf t = Format.pp_print_string ppf (to_string t)
