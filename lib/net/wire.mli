(** Message codec over {!Frame} payloads.

    Requests and responses are binary-encoded with length-prefixed
    strings and big-endian integers; floats travel as their IEEE-754
    bit patterns ([Int64.bits_of_float]), so a decoded value is
    bit-identical to what was encoded — the wire never rounds a
    confidence.

    {b Idempotence.}  [Query] and [Ping] are read-only and safe to
    retry.  [Accept] applies a strategy-finding proposal to the shared
    database — it is {e not} idempotent and the client never retries it
    (see {!Client}).  The proposal itself stays server-side: an answer
    that includes a proposal carries an opaque [proposal_token], and
    [Accept] names that token, so a retried or replayed frame cannot
    re-apply increments (tokens are single-use). *)

type request =
  | Query of {
      user : string;
      purpose : string;
      perc : float;
      sql : string;
      deadline_ms : float option;
          (** client budget for this request; travels in the frame and
              becomes a [Resilience.Deadline] server-side *)
    }
  | Accept of { user : string; token : int }
  | Ping

type answer = {
  released : int;
  withheld : int;
  requested : int;
  degraded : string option;
  proposal_token : int option;
      (** present when the response carries a proposal; quote it in
          [Accept] to apply the increments *)
  body : string;
      (** the full deterministic response encoding ({!body_of_response}) *)
}

type response =
  | Answer of answer
  | Accepted of { applied : int; cost : float }
  | Pong
  | Overloaded of { retry_after_ms : float }
      (** load shed: the admission queue was full.  Terminal for this
          attempt; clients may retry after the hint. *)
  | Timeout of { reason : string }
      (** the request's deadline expired server-side (e.g. while queued)
          before any work was attempted *)
  | Err of string  (** semantic error (RBAC denial, bad SQL, bad token) *)

val encode_request : request -> int * string
(** [(frame type, payload)]. *)

val decode_request : typ:int -> string -> (request, string) result

val encode_response : response -> int * string
val frame_response : response -> string
(** [frame_response r] is [Frame.encode ~typ payload] for
    [(typ, payload) = encode_response r], framed straight from the
    answer body without building [payload] first. *)

val decode_response : typ:int -> string -> (response, string) result

val body_of_response : Pcqe.Engine.response -> string
(** Canonical deterministic encoding of an engine response: schema,
    per-tuple values + lineage + confidence bits + tier, withheld /
    ambiguous / requested counts, threshold bits, applied policies,
    proposal (increments, cost bits, projected release, solver name,
    resolution), infeasible and degraded markers.  Excludes wall-time
    telemetry ([elapsed_s], solver stats) so the same logical answer
    always encodes to the same bytes — this is what the bench asserts
    bit-identical between the wire and in-process [Session.batch]. *)

val answer_of_response :
  ?proposal_token:int -> Pcqe.Engine.response -> answer
