(** An encrypted SOFIA binary image: the output of the MAC-then-Encrypt
    transformation (paper §II-C) and the input of the SOFIA frontend.

    Each 8-word block carries its CBC-MAC words interleaved with the
    instructions, and every word is encrypted with the CTR keystream of
    the control-flow edge that legitimately reaches it. *)

type block = {
  base : int;
  kind : Block.kind;
  role : Layout.role;
  insns : Sofia_isa.Insn.t array;  (** plaintext instructions (debug/tests) *)
  mac : int64;  (** the block's CBC-MAC tag *)
  plain_words : int array;  (** 8 pre-encryption words, MAC words included *)
  cipher_words : int array;  (** 8 encrypted words as stored in memory *)
  entry_prev_pcs : int list;
  orig_indices : int option array;
      (** per instruction slot, the source-instruction index it carries *)
}

type t = {
  backend : Backend_id.t;  (** protection scheme this image was built for *)
  nonce : int;  (** ω — unique per program and program version (§II-A) *)
  entry : int;  (** entry port address *)
  text_base : int;
  blocks : block array;
  cipher : int array;  (** flat encrypted text, 8 words per block *)
  patches : int array;
      (** SCFP only: sponge patch table, [Scfp.patch_words_per_block]
          words per block, laid out after the text; empty under SOFIA *)
  data : Bytes.t;
  data_base : int;
  addr_of_orig : int array;
  stats : Layout.stats;
}

val text_size_bytes : t -> int
(** Size of the transformed text in bytes (patch table included under
    SCFP) — §IV-B's 16,816 B figure for ADPCM under SOFIA. *)

val authenticated_words : t -> int array
(** The word span an artifact-level MAC must cover: [cipher] under
    SOFIA, [cipher ++ patches] under SCFP — the patch table decides
    which edges the sponge accepts, so a persistent store that left it
    out of the authenticated span would hand tampered edge bindings to
    a warm start. *)

val word_count : t -> int

val fetch : t -> int -> int option
(** [fetch t addr] reads the encrypted word at a text address; [None]
    outside the text section. *)

val with_tampered_word : t -> address:int -> value:int -> t
(** Copy of the image with one encrypted text word replaced — the basic
    code-injection primitive for the attack suite. *)

val with_nonce_relabelled : t -> nonce:int -> t
(** Copy of the image claiming a different ω without re-encrypting —
    models replaying a binary of another program version (§II-A's nonce
    uniqueness requirement). *)

val block_of_address : t -> int -> block option
