(** Persistent content-addressed artifact tier (DESIGN.md §12).

    One directory of {!Envelope}-sealed files under the in-memory
    serving store: protected [.sfi] artifacts with their memoised
    verify/MAC facts, and (versioned separately) pre-decoded block
    tables. Filenames route; envelopes decide — every load re-checks
    the full identity and, for artifacts, re-derives the ciphertext
    CBC-MAC before anything is handed back. Writes are crash-safe
    (unique tmp → fsync → atomic rename); a torn, truncated, stale or
    tampered file is a cache miss, never an error and never code.

    Thread-safe; counters and GC sweeps are mutex-protected, file I/O
    runs outside the lock (racing writers both install valid envelopes,
    last rename wins). *)

type t

val open_store : ?obs:Sofia_obs.Obs.t -> dir:string -> ?budget_bytes:int -> unit -> t
(** Creates [dir] (and parents) if needed and removes [.tmp] write
    debris left by a process killed mid-write. [budget_bytes] caps the
    directory's total entry size; 0 (default) = unlimited. [obs]
    receives a [service_error] event per corrupt entry encountered. *)

val mkdir_p : ?perm:int -> string -> unit
(** Create a directory and its missing parents ([perm] default 0o755);
    an existing one is left as it is. *)

val fingerprint64 : Bytes.t -> int64
(** 64-bit FNV-1a of raw bytes — binds a table file to the exact
    artifact bytes it was derived from. *)

(* ---- raw envelope access (the tests' level) ---- *)

val get :
  t ->
  backend:Sofia_transform.Backend_id.t ->
  kind:Envelope.kind ->
  codec_version:int ->
  nonce:int ->
  keys:Sofia_crypto.Keys.t ->
  source:string ->
  Envelope.ok option
(** Zero-trust read: missing file, failed decode — all [None]; corrupt
    envelopes additionally bump {!corrupt}. A hit touches the file's
    mtime (the GC's LRU clock). *)

val put :
  t ->
  backend:Sofia_transform.Backend_id.t ->
  kind:Envelope.kind ->
  codec_version:int ->
  nonce:int ->
  keys:Sofia_crypto.Keys.t ->
  source:string ->
  meta:Bytes.t ->
  payload:Bytes.t ->
  unit
(** Crash-safe write, then a GC sweep if over budget. I/O failures
    count in {!write_errors} and never raise — the disk tier is an
    accelerator, not a dependency. *)

(* ---- the artifact codec ---- *)

val artifact_codec_version : int

type artifact = {
  sfi : Bytes.t;  (** canonical serialised [.sfi] container *)
  image : Sofia_transform.Image.t;  (** ciphertext-only reconstruction *)
  expansion : float;
  issues : int option;  (** memoised verifier issue count, if ever filled *)
  mac : string;  (** re-derived ciphertext CBC-MAC digest (16 hex digits) *)
}

val store_artifact :
  t ->
  backend:Sofia_transform.Backend_id.t ->
  keys:Sofia_crypto.Keys.t ->
  nonce:int ->
  source:string ->
  sfi:Bytes.t ->
  expansion:float ->
  issues:int option ->
  mac_tag:int64 ->
  unit

val load_artifact :
  t ->
  backend:Sofia_transform.Backend_id.t ->
  keys:Sofia_crypto.Keys.t ->
  nonce:int ->
  source:string ->
  artifact option
(** The MAC-gating boundary: beyond the envelope checks, the returned
    [mac] is {e re-derived} over the deserialised ciphertext (plus the
    patch table under SCFP) and compared against the stored tag — a
    mismatch is a corrupt miss, so no unverified bytes ever reach a
    runner. An artifact whose deserialised backend tag disagrees with
    [backend] is likewise a corrupt miss. *)

(* ---- the pre-decoded-table codec ---- *)

val store_table :
  t ->
  backend:Sofia_transform.Backend_id.t ->
  keys:Sofia_crypto.Keys.t ->
  nonce:int ->
  source:string ->
  codec_version:int ->
  artifact_fp:int64 ->
  Bytes.t ->
  unit

val load_table :
  t ->
  backend:Sofia_transform.Backend_id.t ->
  keys:Sofia_crypto.Keys.t ->
  nonce:int ->
  source:string ->
  codec_version:int ->
  artifact_fp:int64 ->
  Bytes.t option
(** [None] unless the stored binding fingerprint equals [artifact_fp]:
    a refreshed artifact silently invalidates its old table. *)

(* ---- the replay codec ---- *)

val replay_codec_version : int

val store_replay :
  t ->
  backend:Sofia_transform.Backend_id.t ->
  keys:Sofia_crypto.Keys.t ->
  nonce:int ->
  source:string ->
  payload:Bytes.t ->
  unit
(** Persist one fleet replay-cache entry. [source] is the router's
    content key; [payload] is the cached response rendered as JSON.
    meta records the 64-bit FNV-1a fingerprint of the payload bytes. *)

val load_replay :
  t ->
  backend:Sofia_transform.Backend_id.t ->
  keys:Sofia_crypto.Keys.t ->
  nonce:int ->
  source:string ->
  Bytes.t option
(** Zero-trust reload: beyond the envelope checks, the payload's
    fingerprint is {e re-derived} and compared against the stored
    meta — a mismatch is a corrupt miss, so a spliced or stale payload
    is never replayed to a client. *)

(* ---- counters ---- *)

val hits : t -> int
val misses : t -> int
val evictions : t -> int
val corrupt : t -> int
val writes : t -> int
val write_errors : t -> int
val dir : t -> string
val counters_json : t -> Sofia_obs.Json.t
