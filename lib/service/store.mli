(** Content-addressed protected-image store with an LRU cap.

    The serving-layer observation behind it: a provisioning service is
    asked for the {e same} image over and over (fleet re-provisioning,
    OTA re-delivery, the verify/attest/simulate jobs of one release all
    needing the protect result), and the SOFIA transformation is
    deterministic — same program text, same device key seed, same
    nonce ω, byte-identical image. So images are addressed purely by
    content: {!key} is the full [(text, seed, ω)] triple and the table
    compares it structurally on lookup, so a hit is only ever served to
    a request that agrees on all three — and returns the {e identical}
    serialised bytes the cold path produced (asserted by
    [test/service_tests.ml]). A folded 64-bit digest is deliberately
    {e not} the key: XOR aliasing ([seed ⊕ ω] collisions) or an FNV
    collision on chosen source text would silently serve an image built
    under the wrong keys. {!fingerprint} is display-only.

    An entry carries the serialised [.sfi] container plus the derived
    facts the job types need; the expensive derivations only an attest
    or verify job wants (independent verification, ciphertext MAC
    digest) are filled lazily by {!fill_issues} / {!fill_mac} so a
    protect-only workload never pays for them — and a verify job after
    an attest (or vice versa) reuses them.

    Beside the images sits a second LRU, of {!parsed} sources: the
    assembled program and, per backend, its layout. Those depend on
    the source text alone, so the many keys one release is provisioned
    under share one parse and one layout, and only the key schedule,
    encryption, MACs, serialisation and verification run per key. It
    is keyed by the full source text, for the reason {!key} gives, and
    holds at most {!parsed_slots} sources whatever [slots] says.

    Thread-safety: lookup/insert/touch are mutex-protected; builders
    run {e outside} the lock so a slow protect does not stall unrelated
    workers, and the first finished insert wins if two workers race on
    the same key. The lazily-memoised fields are guarded by a per-entry
    mutex ({!fill_issues}/{!fill_mac}), never the store lock. *)

type entry = {
  bytes : Bytes.t;  (** serialised [.sfi] container (canonical form) *)
  image : Sofia_transform.Image.t;
  digest : string;  (** {!fingerprint} of [bytes] *)
  text_bytes : int;
  expansion : float;
  blocks : int;
  memo_m : Mutex.t;  (** guards the two memoised fields below *)
  mutable issues : int option;  (** independent-verifier issue count, lazily filled *)
  mutable mac : string option;  (** ciphertext CBC-MAC digest, lazily filled *)
  from_disk : bool;
      (** rebuilt from the persistent tier: [image] is a
          ciphertext-only reconstruction (no plaintext block views), so
          derivations that need the source re-protect it first *)
  table : Sofia_cpu.Block_table.t option;
      (** a verified pre-decoded edge table. The engine leaves it
          [None]: it neither builds nor persists tables, because a run
          seeded from one measured slower than a cold run. Only the
          benchmark's traced layer pass ([benchmark/layers.ml]) still
          sets it. *)
}

type key
(** The full [(source, key_seed, nonce, backend)] addressing tuple.
    The backend is part of the image's content identity — the same
    source under SOFIA and SCFP are different images, and a shared
    store must never serve one for the other. *)

type t

val create : slots:int -> t
(** [slots <= 0] disables the image cache: every {!find_or_build}
    builds. The parse cache is always on. *)

val key :
  source:string ->
  key_seed:int64 ->
  nonce:int ->
  backend:Sofia_transform.Backend_id.t ->
  key

val find_or_build : t -> key:key -> build:(unit -> entry) -> entry * bool
(** The returned flag is [true] on a cache hit. A disabled store always
    builds and answers [false]. *)

val fill_issues : entry -> (unit -> int) -> int
(** Memoised read of {!entry.issues}, race-free under the entry's
    memo mutex (racing fills serialise; the winner's value is shared). *)

val fill_mac : entry -> (unit -> string) -> string

type parsed
(** One source's assembled program and its per-backend layouts. The
    program and every layout are read-only: images built from a layout
    share its arrays, and every request under every key reads them. *)

val parsed_slots : int
(** The parse cache's bound, in sources (64). An entry takes five to
    six times its source's bytes (DESIGN §9). *)

val find_or_parse : t -> source:string -> parsed
(** The cached parse of [source], assembled on a miss outside the lock
    (a racing worker's first insert wins). A failed assembly raises
    {!Sofia_asm.Assembler.Error} and caches nothing. *)

val program : parsed -> Sofia_asm.Program.t

val layout :
  t ->
  parsed ->
  backend:Sofia_transform.Backend_id.t ->
  (Sofia_transform.Layout.t, Sofia_transform.Layout.error) result
(** The program's layout under [backend], computed on first use and
    kept with the entry, a refusal included. *)

type counters = { hits : int; misses : int; evictions : int; entries : int }

val parse_counters : t -> counters
(** {!find_or_parse} lookups that hit and missed, sources evicted, and
    sources held. *)

val length : t -> int
val hits : t -> int
val misses : t -> int
val evictions : t -> int

val fingerprint : Bytes.t -> string
(** 64-bit FNV-1a of the bytes, as 16 hex digits — the image identity
    the wire protocol reports (collision-resistance is not a goal;
    equality of deterministic outputs is). *)
