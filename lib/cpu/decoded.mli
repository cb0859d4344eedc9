(** Pre-decoded, flattened instruction blocks: the fast engine's
    execution representation.

    The reference interpreter re-derives everything per retired
    instruction from the boxed {!Sofia_isa.Insn.t} — operands, cycle
    cost, the load-use source/destination sets. [Decoded.t] computes
    all of it once, packing each instruction into immediate ints in
    flat arrays, so the hot loop does array loads, an int-dispatch
    jump table, and nothing else: no [Option] cells, no per-step
    {!Sofia_isa.Encoding.decode}, no allocation. Cycle costs and
    intra-block load-use stalls are prefix-summed at compile time, so
    an engine accounts a block visit once, at the slot it leaves by.

    {!exec} is semantics-preserving by construction against
    {!Machine.execute}: identical u32 masking, identical division /
    shift edge cases, the same {!Memory} entry points (so
    [Memory.Bus_error] propagates from the same accesses). The engine
    differential battery ([test/engine_tests.ml]) holds the two to
    bit-identical architectural streams. *)

type t = {
  ops : int array;  (** packed op/operand/read-set words (see decoded.ml) *)
  imms : int array;  (** pre-normalised immediates (u32-masked or byte-scaled) *)
  cost_pre : int array;
      (** [n + 1] entries: [cost_pre.(c)] is the cycle cost of slots
          [0 .. c-1] — {!Timing.insn_cost} of each plus the load-use
          stalls between them (never slot 0's own stall) *)
  stall_pre : int array;  (** [n + 1] entries: the stalls counted in [cost_pre.(c)] *)
  insns : Sofia_isa.Insn.t array;
      (** original instructions — only touched by the [on_retire] slow
          path *)
}

val no_load : int
(** Value of {!loaded_dest} for a slot that is not a load; doubles as
    the "no pending load" latch value. *)

val loaded_dest : int -> int
(** Destination register if the packed word is a load, else
    {!no_load}. *)

val uses : int -> int -> bool
(** [uses w latch]: the packed word reads the register a pending load
    writes — exactly [Vanilla.reads_reg insn rd] when [latch] is [rd],
    and never true for {!no_load}. *)

val compile : timing:Timing.t -> Sofia_isa.Insn.t array -> t
(** Compile a straight-line run of instructions. The SOFIA engine
    compiles each verified block at MAC-verify time, never before; the
    vanilla engine compiles each line-bounded run on first entry. *)

val res_next : int
(** {!exec} result: fall through to the next slot. *)

val halt_code : int -> int
(** Decode the halt code out of a negative {!exec} result [<= -2]. *)

val exec : w:int -> imm:int -> regs:int array -> mem:Memory.t -> pc:int -> int
(** Execute one packed instruction against the machine's register
    file and memory. Returns {!res_next}, a non-negative redirect
    target, or [-2 - code] for [halt code].
    @raise Memory.Bus_error exactly where {!Machine.execute} would. *)
