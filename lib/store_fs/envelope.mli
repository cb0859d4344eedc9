(** The sealed container every persistent-store entry lives in.

    Three independent guards checked in order on every load — structure
    (magic/version/kind/exact length arithmetic), integrity (CRC-32
    over the body) and authenticity (CBC-MAC under the request's k2
    over the whole file with the tag field zeroed, then a byte-for-byte
    compare of the embedded source against the request's). A failure is
    a typed {!failure}, never an exception and never partial payload
    bytes: a bad envelope is a cache miss. See the layout comment in
    [envelope.ml] and DESIGN.md §12. *)

type kind = Artifact | Table | Replay

val kind_tag : backend:Sofia_transform.Backend_id.t -> kind -> int
(** The on-disk kind tag. The protection backend is folded in (SOFIA
    artifact/table = 1/2, the pre-PR-8 values; SCFP = 3/4; fleet
    replay entries = 5/7, tag 6 unused so both backends share the +2
    offset), so a cross-backend read fails the structural check
    ([Bad_kind]) before any payload byte is believed — the
    shared-store cache-poisoning guard. *)

val version : int
val header_bytes : int

type failure =
  | Short
  | Bad_magic
  | Stale_envelope of int
  | Bad_kind
  | Stale_codec of int
  | Nonce_mismatch
  | Key_mismatch
  | Length_mismatch
  | Crc_mismatch
  | Tag_mismatch
  | Source_mismatch

val failure_name : failure -> string

val is_corrupt : failure -> bool
(** [true] for failures that mean the file does not parse as anything
    we ever wrote (torn, truncated, tampered); [false] for expected
    operational misses (stale versions, aliasing). *)

val key_fp32 : Sofia_crypto.Keys.t -> int

val encode :
  ?envelope_version:int ->
  backend:Sofia_transform.Backend_id.t ->
  kind:kind ->
  codec_version:int ->
  nonce:int ->
  keys:Sofia_crypto.Keys.t ->
  source:string ->
  meta:Bytes.t ->
  payload:Bytes.t ->
  unit ->
  Bytes.t
(** [?envelope_version] exists solely so tests can mint stale-version
    envelopes; production callers never pass it. *)

type ok = { meta : Bytes.t; payload : Bytes.t }

val decode :
  backend:Sofia_transform.Backend_id.t ->
  kind:kind ->
  codec_version:int ->
  nonce:int ->
  keys:Sofia_crypto.Keys.t ->
  source:string ->
  Bytes.t ->
  (ok, failure) result
(** Total: never raises, whatever the input bytes. *)
