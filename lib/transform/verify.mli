(** Independent verifier for protected images — the assurance tool a
    SOFIA software provider would run before signing off a release
    binary.

    [check] re-derives everything the architecture relies on, without
    trusting the transformation pipeline that produced the image:

    - structure: 32-byte alignment, slot counts, control flow only in
      the last slot, no store in a banned slot, entry-port counts;
    - cryptography: each block's stored MAC words equal the CBC-MAC of
      its plaintext instructions under the right key, and every word
      of the text the image ships ([Image.cipher], which
      [Binary_format] writes and the core fetches) equals the block's
      own copy and decrypts to its plaintext word under the keystream
      of its declared control-flow edge (including the multiplexor
      M2-uses-addr(M1e2) rule). A word the text does not ship, a block
      of the wrong length, a missing entry port or a predecessor no
      counter can hold is reported as an issue, never raised;
    - linkage: every declared predecessor is the reset vector or the
      exit word of some block in the image;
    - coverage (with the source program): every reachable original
      instruction occupies exactly one slot, unchanged except for
      control-transfer retargeting and code-pointer rematerialisation.

    An empty issue list means the image would run exactly the source
    program and every violation the paper lists is detectable. *)

type issue =
  | Misaligned_block of { base : int }
  | Wrong_slot_count of { base : int; expected : int; got : int }
  | Mid_block_control_flow of { address : int }
  | Banned_store of { address : int }
  | Wrong_entry_count of { base : int; got : int }
  | Mac_words_wrong of { base : int }
  | Ciphertext_mismatch of { address : int }
  | Unknown_predecessor of { base : int; prev_pc : int }
  | Patch_mismatch of { base : int; slot : int }
  | Uncovered_instruction of { orig_index : int }
  | Duplicated_instruction of { orig_index : int }
  | Instruction_changed of { orig_index : int; address : int }

val pp_issue : Format.formatter -> issue -> unit

val check : ?obs:Sofia_obs.Obs.t -> keys:Sofia_crypto.Keys.t -> Image.t -> issue list
(** Structure + cryptography + linkage. [obs] counts blocks checked,
    re-derived MAC verifications and issues found, and emits a
    [Mac_verify] event per block — so a release-signing pipeline can
    expose the verifier's work the same way the simulator exposes the
    frontend's. *)

val check_against_source :
  ?obs:Sofia_obs.Obs.t ->
  keys:Sofia_crypto.Keys.t -> Sofia_asm.Program.t -> Image.t -> issue list
(** Everything in {!check} plus source coverage. *)

val semantic_shape : Sofia_isa.Insn.t -> Sofia_isa.Insn.t
(** Blank exactly the instruction fields a legitimate transformation
    may rewrite (branch/jal retarget offsets, [lui]/[or]-self
    code-pointer rematerialisation immediates), keeping everything that
    must stay identical. Two instructions are "the same work" iff their
    shapes are equal — the normalisation the differential tests use to
    compare retired-instruction streams across the two cores. *)
