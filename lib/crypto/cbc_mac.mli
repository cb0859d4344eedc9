(** CBC-MAC with a 64-bit tag (paper §II-B: ISO/IEC 9797-1 CBC-MAC over
    RECTANGLE, 64-bit MAC split into two 32-bit words M1 and M2).

    Plain CBC-MAC is only secure for fixed-length messages; SOFIA
    therefore keys the two block types separately — k2 for execution
    blocks (always 6 instruction words) and k3 for multiplexor blocks
    (always 5 instruction words) — one key per message length
    (§II-B.1). This module is length-agnostic; the transformation layer
    enforces the fixed lengths. *)

val mac : Rectangle.key -> int64 list -> int64
(** [mac k blocks] is CBC-MAC with zero IV: [C_i = E_k(C_{i-1} ⊕ M_i)],
    tag [C_n]. The empty message MACs to [E_k(0)]. *)

val mac_words : Rectangle.key -> int array -> int64
(** MAC over 32-bit words: consecutive pairs pack into 64-bit blocks
    (first word = least-significant half); an odd trailing word is
    zero-padded. All SOFIA uses have a fixed word count per key. *)

val mac_words_batch : Rectangle.key -> int array array -> int64 array
(** [mac_words_batch k messages] is [Array.map (mac_words k)
    messages], three chains per pass of the round loop
    ({!Rectangle.encrypt_lanes}): SOFIA MACs every execution block
    under k2 and every multiplexor block under k3, and those chains
    are independent. Messages of different lengths may share a batch;
    a pass costs the longest message of its three. *)

val split_tag : int64 -> int * int
(** [(m1, m2)]: the tag's least- and most-significant 32-bit halves —
    the M1 and M2 words stored in a block. *)

val join_tag : int -> int -> int64
(** Inverse of {!split_tag}. *)

val verify_words : Rectangle.key -> int array -> m1:int -> m2:int -> bool
(** Recompute and compare (constant content, not constant time — this
    is a simulator). *)
