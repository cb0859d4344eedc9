(** The typed job API of the SOFIA serving layer, and its
    newline-delimited JSON wire form.

    A job is what a software provider's provisioning service is asked
    to do with one program: encrypt it ({!spec.Protect}), independently
    re-check a protected image ({!spec.Verify}), run it on one of the
    two processor models ({!spec.Simulate}, {!spec.Run_image}), or the
    full release gate — protect, verify and emit a keyed MAC digest of
    the ciphertext ({!spec.Attest}).

    Requests and responses each serialise to exactly one JSON line
    (the [source] field's newlines are escaped by the encoder), so the
    wire protocol works over a pipe, a Unix-domain socket, or a batch
    file without framing. Request schema:

    {v
    {"id":"r1","op":"protect","source":"start:\n  halt\n",
     "key_seed":"0x50f1a","nonce":1,"deadline_ms":500}
    v}

    [op] is one of [protect], [verify], [simulate] (optional
    ["sofia":false] for the vanilla core), [attest], [run_image]
    (with ["path"] instead of ["source"]). [key_seed], [nonce] and
    [deadline_ms] are optional. [key_seed] is a 0x-hex or decimal
    {e string} (the encoder always emits hex so all 64 bits of the
    seed round-trip — a JSON/OCaml int cannot carry bit 63); a plain
    JSON integer is also accepted for hand-written requests. Responses carry the request [id], the
    ordering metadata ([seq] = admission order, [completion] =
    completion order), the terminal [status] ([done], [rejected],
    [timed_out], [failed]) and the per-op payload fields. *)

type spec =
  | Protect of { source : string }
  | Verify of { source : string }
  | Simulate of { source : string; sofia : bool }
  | Attest of { source : string }
  | Run_image of { path : string }
  | Ping
      (** Liveness probe, answered without touching the image store —
          the fleet router's health check over the ordinary wire. *)

type request = {
  id : string;
  key_seed : int64;  (** device key seed (default [0x50F1A]) *)
  nonce : int;  (** program-version nonce ω (default 1) *)
  backend : Sofia_transform.Backend_id.t;
      (** protection backend the image-building jobs run under (default
          SOFIA). Part of the image's content identity: it joins the
          in-memory store key, the persistent envelope kind and the
          fleet routing/replay keys, so the same source under two
          backends can never alias in any cache tier. On the wire the
          ["backend"] field is omitted for SOFIA (pre-PR-8 lines are
          unchanged) and an absent field takes the serving default. *)
  deadline_ms : int option;
      (** total time budget from admission; a job still queued (or
          about to be retried) past its deadline reports [Timed_out] *)
  spec : spec;
}

val make :
  ?key_seed:int64 ->
  ?nonce:int ->
  ?backend:Sofia_transform.Backend_id.t ->
  ?deadline_ms:int ->
  id:string ->
  spec ->
  request

val op_name : spec -> string
(** Stable wire tag: [protect], [verify], [simulate], [attest],
    [run_image], [ping]. *)

type payload =
  | Protected of {
      text_bytes : int;
      expansion : float;
      blocks : int;
      digest : string;  (** fingerprint of the serialised [.sfi] bytes *)
      cached : bool;  (** image came from the content-addressed store *)
    }
  | Verified of { issues : int; cached : bool }
  | Simulated of {
      outcome : string;
      outputs : int list;
      cycles : int;
      instructions : int;
      cached : bool;
    }
  | Attested of { digest : string; mac : string; issues : int; cached : bool }
  | Ran of { outcome : string; outputs : int list; cycles : int; instructions : int }
  | Ponged of { shard : int; workers : int }
      (** Answer to {!spec.Ping}: the engine's shard id ([-1] outside a
          fleet) and live worker count. *)

type status =
  | Done of payload
  | Rejected of string  (** backpressure turned the job away at admission *)
  | Timed_out
  | Failed of string  (** structured executor failure — never a backtrace *)

type response = {
  id : string;
  op : string;
  seq : int;  (** admission order (0-based) *)
  completion : int;  (** completion order (0-based, over all terminal responses) *)
  attempts : int;  (** 1 once a worker executed the job, 0 if it never ran *)
  worker : int;  (** worker index, [-1] if never dispatched *)
  latency_ms : float;  (** admission -> terminal response (monotonic clock) *)
  ts : float;  (** wall-clock completion timestamp ([ts_unix] on the wire) —
                   reporting only, never used for deadline arithmetic *)
  status : status;
}

val status_name : status -> string
(** [done], [rejected], [timed_out] or [failed]. *)

val request_to_json : request -> Sofia_obs.Json.t

val request_of_json :
  ?default_backend:Sofia_transform.Backend_id.t ->
  Sofia_obs.Json.t ->
  (request, string) result

val request_of_line :
  ?default_backend:Sofia_transform.Backend_id.t ->
  string ->
  (request, string) result
(** Parse one NDJSON line. Never raises: malformed JSON, a missing
    field, an unknown [op] or an unknown [backend] come back as
    [Error] with a rendered diagnostic. [default_backend] (SOFIA if
    omitted) fills an absent ["backend"] field — wire mode passes the
    engine's configured backend. *)

val response_to_json : response -> Sofia_obs.Json.t

val response_to_line : response -> string

val error_line : id:string option -> string -> string
(** The wire form of a request that never became a job (unparseable
    line): [{"id":...,"status":"error","error":...}]. *)
