(** Plaintext layout of a program into SOFIA blocks.

    This is the structural half of the paper-§III transformation: it
    re-arranges the instruction stream into execution and multiplexor
    blocks, inserts the synthetic blocks the block discipline needs,
    assigns addresses and patches every control transfer. Encryption
    and MAC computation happen afterwards (see {!Transform}).

    Synthetic blocks:

    - {b trampolines} — multiplexor-tree nodes giving a join point more
      than two predecessors (paper §II-D, Fig. 9);
    - {b bridges} — a fall-through edge can only enter an execution
      block at offset 0, so a fall-through into a multiplexor-headed
      block is converted into an explicit jump block placed adjacently;
    - {b return shims} — a return lands at the call site + 4, which is
      the next block's offset 0 (an execution-block entry); when that
      return point is also a branch target (a join), the return edge is
      routed through an adjacent single-entry shim that jumps to the
      join's multiplexor port;
    - {b return funnels} — a function whose returns could reach one
      return point over several edges (multiple [ret]s, or membership
      in a multi-target indirect-call set) has its [ret]s replaced by
      jumps into one shared funnel block holding the single canonical
      [ret], so every return point keeps exactly one predecessor. This
      mildly coarsens the return CFG exactly as the paper's
      single-return-instruction presentation assumes. *)

type role = Primary | Bridge | Shim | Trampoline | Funnel

type block = {
  base : int;  (** byte address in the transformed text *)
  kind : Block.kind;
  role : role;
  insns : Sofia_isa.Insn.t array;  (** patched instructions (6 or 5) *)
  entry_prev_pcs : int list;
      (** per entry port, the address of the predecessor's exit word
          (paper: prevPC); 1 element for exec, 2 for mux *)
  orig_indices : int option array;
      (** per slot, the original instruction index it carries *)
}

type stats = {
  original_insns : int;
  original_text_bytes : int;
  transformed_text_bytes : int;
  exec_blocks : int;
  mux_blocks : int;
  bridge_blocks : int;
  shim_blocks : int;
  trampoline_blocks : int;
  funnel_blocks : int;
  pad_slots : int;
  unreachable_dropped : int;
}

type t = {
  blocks : block array;
  entry : int;  (** transformed entry address (the reset edge's port) *)
  text_base : int;
  data : Bytes.t;  (** data image with code pointers re-patched *)
  data_base : int;
  addr_of_orig : int array;
      (** original instruction index → transformed slot address (-1 if
          dropped as unreachable or replaced by a funnel jump) *)
  stats : stats;
}

type error =
  | Cfg_errors of Sofia_cfg.Cfg.error list
  | Branch_out_of_range of { from_addr : int; to_addr : int }
  | Code_pointer_unresolved of string
      (** [la]/[.word] of a text symbol that is not the target of any
          indirect jump *)
  | Code_pointer_ambiguous of string
      (** text symbol targeted by more than one indirect site: the
          pointer value cannot select a unique entry port *)
  | Indirect_fanin_unsupported of { sites : int }
      (** SCFP profile: a block would receive more than one
          jalr-flavoured (return/indirect) edge, so the
          destination-indexed link patch has no unique source *)
  | Empty_program

val pp_error : Format.formatter -> error -> unit

val layout : ?backend:Backend_id.t -> Sofia_asm.Program.t -> (t, error) result
(** [backend] (default [Sofia]) selects the layout profile. The SCFP
    profile produces only execution blocks — a single entry port at
    offset 0, arbitrary fan-in, no multiplexor heads, bridges or
    trampolines — while keeping return funnels and shims, which give
    every return point the unique jalr predecessor the sponge link
    patch requires (see {!Scfp}). *)

val layout_exn : ?backend:Backend_id.t -> Sofia_asm.Program.t -> t
(** @raise Invalid_argument with the rendered error. *)

val block_at : t -> int -> block option
(** Block whose 32-byte span contains the given address. *)
