(** SOFIA block geometry (paper §II-E).

    Both block types are eight 32-bit words (32 bytes):

    - {b execution block}: M1 M2 i1 i2 i3 i4 i5 i6 — one entry point
      (word 0); stores are banned from i1/i2 so that the six
      instructions still verify before the Memory-Access stage
      (Fig. 6);
    - {b multiplexor block}: M1e1 M1e2 M2 i1 i2 i3 i4 i5 — two entry
      points, realised as two independently encrypted copies of M1
      (Figs. 7–8).

    Call-site convention (§II-E): a transfer to word offset 0 announces
    an execution block; offsets 4 and 8 announce a multiplexor block's
    first and second control-flow paths. Control leaves any block only
    from its last word (offset 28). *)

type kind = Exec | Mux

val words_per_block : int
(** 8 *)

val size_bytes : int
(** 32 *)

val insn_slots : kind -> int
(** 6 for [Exec], 5 for [Mux]. *)

val mac_words : kind -> int
(** 2 for [Exec], 3 for [Mux]. *)

val first_insn_offset : kind -> int
(** Byte offset of instruction slot 0: 8 ([Exec]) or 12 ([Mux]). *)

val exit_offset : int
(** 28: the only word from which control can leave a block. *)

val port_offsets : kind -> int list
(** Entry-point byte offsets within the block: [\[0\]] or [\[4; 8\]]. *)

val store_banned_slot : kind -> int -> bool
(** [store_banned_slot k i]: instruction slot [i] may not hold a store
    (true for slots 0 and 1 of an execution block). *)

val reset_prev_pc : int
(** The synthetic "previously executed PC" of the very first fetch
    after reset — a reserved address no instruction can occupy. *)

val mac_key : Sofia_crypto.Keys.t -> kind -> Sofia_crypto.Rectangle.key
(** The block's CBC-MAC key (§II-B.1): k2 for [Exec], k3 for [Mux] —
    one key per message length. *)

val macs : Sofia_crypto.Keys.t -> kind array -> int array array -> int64 array
(** [macs keys kinds words]: the CBC-MAC tag of each block's
    instruction words [words.(i)] under [mac_key keys kinds.(i)], the
    blocks of each kind batched three chains per cipher pass
    ({!Sofia_crypto.Cbc_mac.mac_words_batch}). *)

val pp_kind : Format.formatter -> kind -> unit
