(** Control-flow-dependent CTR-mode instruction encryption (paper
    §II-A, Alg. 1).

    The counter for an instruction at address [pc] reached from the
    instruction at address [prev_pc] is the 64-bit block

    {v I = ω(8) ‖ prevPC/4 (28) ‖ PC/4 (28) v}

    (word indices; the paper writes [{ω ‖ prevPC ‖ PC}] without fixing
    a packing — any injective packing preserves the argument). The
    keystream is [E_k1(I)] and the instruction word is XORed with its
    [r = 32] least-significant bits:
    [cinst = Ek1(I) ⊕ inst], [inst' = Ek1(I) ⊕ cinst]. *)

val counter : nonce:int -> prev_pc:int -> pc:int -> int64
(** Build the counter block. [nonce] is the 8-bit program nonce ω;
    addresses must be word-aligned and below 2^30.
    @raise Invalid_argument otherwise. *)

val valid_address : int -> bool
(** [valid_address a]: [a] is word-aligned and below 2^30, so a
    counter can hold it — the address check of {!counter}. *)

(** Bounded per-edge keystream cache.

    The keystream word of an edge is a pure function of
    [{ω, prevPC, PC}] and the key, so a decrypt frontend may remember
    it — the model of a small keystream memory next to the cipher
    core. The cache is direct-mapped and fixed-size: a colliding edge
    overwrites (evicts) the previous occupant, so memory is bounded
    whatever the working set.

    A cache instance memoises keystream words of exactly one [k1]; it
    must never be shared across keys (the tag does not include the key,
    as the hardware register file it models is per-device). Cached
    words may also only be as trustworthy as their consumer's
    verification: SOFIA stays sound because the cache stores the
    {e keystream}, never the decrypted plaintext — a tampered
    ciphertext word XORed with a (correct, possibly cached) keystream
    still garbles, and the block MAC still fails. *)
module Cache : sig
  type t

  val create : ?slots:int -> unit -> t
  (** [create ~slots ()] makes an empty cache with at least [slots]
      entries (rounded up to a power of two; default 1024).
      @raise Invalid_argument if [slots <= 0]. *)

  val slots : t -> int

  val hits : t -> int

  val misses : t -> int

  val evictions : t -> int
  (** Misses that displaced a live entry (bounded-capacity pressure). *)

  val reset : t -> unit
  (** Empty the cache and zero the counters. *)
end

val keystream32 :
  ?probe:(unit -> unit) ->
  ?cache:Cache.t ->
  Rectangle.key ->
  nonce:int ->
  prev_pc:int ->
  pc:int ->
  int
(** Low 32 bits of [E_k1(counter)]. [probe] (observability hook) is
    called once per keystream word {e generated} — the unit the decrypt
    pipeline's throughput is measured in; absent by default and free
    when absent. With [cache], a hit returns the remembered word
    without invoking the cipher (so [probe] does not fire); argument
    validation is identical either way. *)

val crypt_word :
  ?probe:(unit -> unit) ->
  ?cache:Cache.t ->
  Rectangle.key ->
  nonce:int ->
  prev_pc:int ->
  pc:int ->
  int ->
  int
(** XOR a 32-bit word with the keystream; its own inverse, so it both
    encrypts and decrypts. *)

val keystream_words :
  Rectangle.key -> nonce:int -> prev_pcs:int array -> pc:int -> int array
(** The keystream words of consecutive instruction words: word [i] is
    [keystream32 k ~nonce ~prev_pc:prev_pcs.(i) ~pc:(pc + 4 * i)],
    one per element of [prev_pcs]. Three words share each pass of the
    round loop ({!Rectangle.encrypt_lanes}), so a SOFIA block's eight
    words take three passes where eight {!keystream32} calls take
    eight. Every word's counter is checked as {!counter} checks it
    before any word is derived, so this refuses exactly the inputs
    for which one of those {!keystream32} calls would raise (none
    when [prev_pcs] is empty).
    @raise Invalid_argument if {!counter} would refuse any word's
    counter. *)
