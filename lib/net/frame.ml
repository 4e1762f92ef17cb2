let version = 1
let header_len = 12
let max_payload = 8 * 1024 * 1024
let magic = "PQ"

(* CRC-32 (IEEE, reflected) by slicing-by-8 on native ints: entry
   [256 k + n] advances byte [n] through k further zero bytes, so one
   step folds eight input bytes with eight lookups.  Computed at load. *)
let table =
  let t = Array.make 2048 0 in
  for n = 0 to 2047 do
    if n < 256 then begin
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      t.(n) <- !c
    end
    else t.(n) <- (t.(n - 256) lsr 8) lxor t.(t.(n - 256) land 0xff)
  done;
  t

(* CRC-32 of the [len] bytes of [b] from [off] *)
let crc_bytes b off len =
  let crc = ref 0xFFFFFFFF and i = ref off in
  let stop8 = off + (len land lnot 7) in
  while !i < stop8 do
    let lo = !crc lxor (Int32.to_int (Bytes.get_int32_le b !i) land 0xFFFFFFFF) in
    let hi = Int32.to_int (Bytes.get_int32_le b (!i + 4)) land 0xFFFFFFFF in
    crc :=
      table.(0x700 lor (lo land 0xff))
      lxor table.(0x600 lor ((lo lsr 8) land 0xff))
      lxor table.(0x500 lor ((lo lsr 16) land 0xff))
      lxor table.(0x400 lor (lo lsr 24))
      lxor table.(0x300 lor (hi land 0xff))
      lxor table.(0x200 lor ((hi lsr 8) land 0xff))
      lxor table.(0x100 lor ((hi lsr 16) land 0xff))
      lxor table.(hi lsr 24);
    i := !i + 8
  done;
  for j = stop8 to off + len - 1 do
    crc := table.((!crc lxor Bytes.get_uint8 b j) land 0xff) lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

(* read-only use of the string's bytes *)
let crc32 s = Int32.of_int (crc_bytes (Bytes.unsafe_of_string s) 0 (String.length s))

type error =
  | Closed
  | Torn of string
  | Bad_magic
  | Bad_version of int
  | Too_large of int
  | Bad_checksum

let error_to_string = function
  | Closed -> "connection closed"
  | Torn what -> Printf.sprintf "torn frame: short read in %s" what
  | Bad_magic -> "bad magic"
  | Bad_version v -> Printf.sprintf "unsupported protocol version %d" v
  | Too_large n -> Printf.sprintf "frame payload too large (%d bytes)" n
  | Bad_checksum -> "payload checksum mismatch"

let encode ~typ ?(tail = "") payload =
  let len = String.length payload + String.length tail in
  if typ < 0 || typ > 255 then invalid_arg "Frame.encode: type out of range";
  if len > max_payload then invalid_arg "Frame.encode: payload too large";
  let b = Bytes.create (header_len + len) in
  Bytes.blit_string magic 0 b 0 2;
  Bytes.set_uint8 b 2 version;
  Bytes.set_uint8 b 3 typ;
  Bytes.set_int32_be b 4 (Int32.of_int len);
  Bytes.blit_string payload 0 b header_len (String.length payload);
  Bytes.blit_string tail 0 b (header_len + String.length payload) (String.length tail);
  Bytes.set_int32_be b 8 (Int32.of_int (crc_bytes b header_len len));
  Bytes.unsafe_to_string b

(* One write(2) per step: [Unix.write_substring] may raise EINTR after
   writing part of the frame, losing the count; [single_write] never
   writes anything when it raises. *)
let write fd frame =
  let rec go off =
    if off < String.length frame then
      match Unix.single_write_substring fd frame off (String.length frame - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (EINTR, _, _) -> go off
  in
  go 0

(* Read exactly [len] bytes; Ok true on success, Ok false on immediate
   clean EOF, Error on EOF mid-way. *)
let really_read recv buf len what =
  let got = ref 0 in
  let eof = ref false in
  while (not !eof) && !got < len do
    let n = recv buf !got (len - !got) in
    if n = 0 then eof := true else got := !got + n
  done;
  if !got = len then Ok true
  else if !got = 0 then Ok false
  else Error (Torn what)

let read recv =
  let hdr = Bytes.create header_len in
  match really_read recv hdr header_len "header" with
  | Error e -> Error e
  | Ok false -> Error Closed
  | Ok true ->
    if Bytes.sub_string hdr 0 2 <> magic then Error Bad_magic
    else if Bytes.get_uint8 hdr 2 <> version then Error (Bad_version (Bytes.get_uint8 hdr 2))
    else begin
      let len = Int32.to_int (Bytes.get_int32_be hdr 4) land 0xFFFFFFFF in
      if len > max_payload then Error (Too_large len)
      else
        let payload = Bytes.create len in
        match really_read recv payload len "payload" with
        | Error e -> Error e
        | Ok false when len > 0 -> Error (Torn "payload")
        | Ok _ ->
          (* [payload] is complete and never written again *)
          let payload = Bytes.unsafe_to_string payload in
          if not (Int32.equal (crc32 payload) (Bytes.get_int32_be hdr 8)) then
            Error Bad_checksum
          else Ok (Bytes.get_uint8 hdr 3, payload)
    end

let decode s =
  let pos = ref 0 in
  let recv buf off len =
    let n = min len (String.length s - !pos) in
    Bytes.blit_string s !pos buf off n;
    pos := !pos + n;
    n
  in
  read recv
