(** The complete SOFIA binary transformation (paper §II-C, §III).

    For each block the plaintext pipeline is MAC-then-Encrypt:

    + compute the CBC-MAC M over the block's plaintext instruction
      words — k2 for execution blocks (6 words), k3 for multiplexor
      blocks (5 words);
    + interleave M with the instructions per the block geometry
      (M1 M2 i1…i6, or M1e1 M1e2 M2 i1…i5 with the duplicated first
      MAC word);
    + encrypt every word with the CTR keystream of the control-flow
      edge that reaches it: entry words with their predecessor's exit
      address as prevPC, interior words with the in-block chain, and a
      multiplexor block's M2 with prevPC = addr(M1e2) on both paths
      (Fig. 8). *)

val protect :
  ?backend:Backend_id.t ->
  keys:Sofia_crypto.Keys.t ->
  nonce:int ->
  Sofia_asm.Program.t ->
  (Image.t, Layout.error) result
(** Transform and encrypt an assembled program. [nonce] is ω, the
    8-bit program-version nonce stored with the binary. [backend]
    (default [Sofia]) selects the protection scheme: SOFIA's
    CTR + CBC-MAC pipeline above, or SCFP's sponge duplex with a
    patch table (see {!Scfp}). *)

val protect_exn :
  ?backend:Backend_id.t ->
  keys:Sofia_crypto.Keys.t ->
  nonce:int ->
  Sofia_asm.Program.t ->
  Image.t
(** @raise Invalid_argument on transformation errors. *)

val encrypt :
  backend:Backend_id.t -> keys:Sofia_crypto.Keys.t -> nonce:int -> Layout.t -> Image.t
(** The per-key half of {!protect}: encrypt and MAC a layout that
    {!Layout.layout} built under the same [backend]. The layout depends
    on the program alone, so a provider lays a release out once and
    calls this once per device key; {!protect} is [Layout.layout]
    followed by this. The layout is only read: every image built from
    it shares its [data], [addr_of_orig] and per-block [insns].
    @raise Invalid_argument when [nonce] is not 8-bit. *)

val encrypt_layout : keys:Sofia_crypto.Keys.t -> nonce:int -> Layout.t -> Image.t
(** Encrypt an already-computed layout with the SOFIA pipeline
    (exposed so tests can inspect the plaintext layout and its
    encryption separately). *)

val scfp_encrypt_layout : keys:Sofia_crypto.Keys.t -> nonce:int -> Layout.t -> Image.t
(** Encrypt an already-computed SCFP-profile layout with the sponge
    duplex and build its patch table. *)

val expansion_ratio : Image.t -> float
(** Transformed text bytes / original text bytes (paper §IV-B:
    16,816 / 6,976 ≈ 2.41 for ADPCM). *)
