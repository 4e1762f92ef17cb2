(** Length-framed, checksummed wire frames.

    Every message on the wire is one frame:

    {v
      offset  size  field
      0       2     magic "PQ"
      2       1     protocol version (currently 1)
      3       1     frame type (opaque to this module; see Wire)
      4       4     payload length, big-endian
      8       4     CRC-32 of the payload, big-endian
      12      n     payload
    v}

    The module is pure over caller-supplied read functions so it can be
    unit-tested without sockets.  A frame is either read whole or
    rejected with a typed error: torn (short) reads, bad magic, an
    unsupported version, an oversized length, and checksum mismatches
    are all distinguished, and none of them raises. *)

val version : int
val header_len : int

val max_payload : int
(** Hard cap on payload length (8 MiB).  Larger declared lengths are
    rejected before any payload is read, so a corrupt length field
    cannot make the server buffer unbounded data. *)

val crc32 : string -> int32
(** Standard CRC-32 (IEEE 802.3, polynomial 0xEDB88320), computed eight
    bytes per step (slicing-by-8). *)

type error =
  | Closed  (** clean EOF at a frame boundary *)
  | Torn of string  (** EOF mid-frame: a short read *)
  | Bad_magic
  | Bad_version of int
  | Too_large of int
  | Bad_checksum

val error_to_string : error -> string

val encode : typ:int -> ?tail:string -> string -> string
(** [encode ~typ payload] is the complete frame as bytes on the wire,
    built in one exactly sized buffer.  With [~tail] the frame's payload
    is [payload ^ tail], without that concatenation being built.
    @raise Invalid_argument if [typ] is outside 0..255 or the payload
    exceeds {!max_payload}. *)

val write : Unix.file_descr -> string -> unit
(** [write fd frame] sends all of [frame], retrying writes interrupted
    by a signal (EINTR).  Other errors raise [Unix.Unix_error]. *)

val read :
  (bytes -> int -> int -> int) -> (int * string, error) result
(** [read recv] pulls one frame using [recv buf off len] (a
    [Unix.read]-style function returning 0 at EOF) and returns
    [(typ, payload)].  Exceptions from [recv] (e.g. timeouts) pass
    through to the caller. *)

val decode : string -> (int * string, error) result
(** [decode s] parses exactly one frame from [s] (trailing garbage is
    ignored); convenience for tests. *)
