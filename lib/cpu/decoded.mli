(** Pre-decoded, flattened instruction blocks: the fast engine's
    execution representation.

    The reference interpreter re-derives everything per retired
    instruction from the boxed {!Sofia_isa.Insn.t} — operands, cycle
    cost, the load-use source/destination sets. [Decoded.t] computes
    all of it once: each slot becomes a closure over the run's
    register file and memory with its operands, immediate and pc
    resolved, so the hot loop does one indirect call per slot and
    nothing else: no [Option] cells, no per-step
    {!Sofia_isa.Encoding.decode}, no dispatch on the opcode, no
    allocation. Cycle costs and intra-block load-use stalls are
    prefix-summed at compile time, so an engine accounts a block visit
    once, at the slot it leaves by.

    A slot's closure is semantics-preserving by construction against
    {!Machine.execute}: identical u32 masking, identical division /
    shift edge cases, the same {!Memory} entry points (so
    [Memory.Bus_error] propagates from the same accesses). The engine
    differential battery ([test/engine_tests.ml]) holds the two to
    bit-identical architectural streams. *)

type t = {
  ops : int array;  (** packed op/operand/read-set words (see decoded.ml) *)
  exec : (unit -> int) array;
      (** slot [i] run against the machine the block was compiled for:
          {!res_next}, a non-negative redirect target, or [-2 - code]
          for [halt code]; raises [Memory.Bus_error] exactly where
          {!Machine.execute} would *)
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

val compile :
  timing:Timing.t -> regs:int array -> mem:Memory.t -> first:int -> Sofia_isa.Insn.t array -> t
(** Compile a straight-line run of instructions, slot [k] at pc
    [first + 4k], for the machine whose register file ([Machine.regs])
    and memory are [regs] and [mem]. The SOFIA engine compiles each
    verified block at MAC-verify time, never before; the vanilla engine
    compiles each line-bounded run on first entry. Either way a block
    lives for one run. *)

val res_next : int
(** Slot result: fall through to the next slot. *)

val halt_code : int -> int
(** Decode the halt code out of a negative slot result [<= -2]. *)

(** {2 Superblocks} *)

type trace = private {
  t_fns : (unit -> int) array;
      (** the [exec] closure of each slot that does something; an ALU
          op or [lui] into r0 that only falls through is left out *)
  t_exp : int array;
      (** the result each slot returns on the cycle: {!res_next}, or at
          a part's last slot the redirect target the cycle leaves that
          block by *)
  t_part : int array;  (** slot → part *)
  t_local : int array;  (** slot → its index in its part's block *)
  t_insns : int;  (** instructions one iteration retires, left-out slots included *)
  t_lines : int array;  (** an address on each part's icache line *)
  mutable t_iters : int;  (** whole iterations the last {!run_trace} completed *)
  mutable t_slot : int;  (** the slot it left by *)
  mutable t_res : int;  (** that slot's result *)
  mutable t_seen : int;  (** icache misses when its lines were last all resident *)
  mutable t_entries : int;
  mutable t_wasted : int;
}
(** One iteration of a hot cycle of blocks, laid out as one flat run
    of slots over one run's registers and memory. *)

val heat_threshold : int
(** Entries after which a block tries to close a superblock (and
    waits for as many again when the cycle does not close). *)

val max_parts : int
(** The most blocks one superblock's cycle may hold; it also bounds
    the walk that looks for the cycle. *)

val trace : (t * int * int * int) array -> trace
(** [trace parts]: part [(d, line, c, res)] contributes the first [c]
    slots of [d], leaving by [res] ({!res_next} for a fall-through,
    else the redirect target); [line] is the address whose icache line
    the block's visits probe. *)

val budget : trace -> Icache.t -> room:int -> int
(** How many whole iterations an entry may run: 0 unless every line of
    the trace is resident — then each of its visits hits, and its
    fetches evict nothing — else as many as retire at most [room]
    instructions. Probes nothing while no icache miss has happened
    since the lines were last all resident. *)

val keeps_paying : trace -> bool
(** Book the exit {!run_trace} just took by a slot that left the
    cycle. [false] when most of the last 64 such entries left before
    the trace's second part: the superblock costs more than it saves,
    and the caller drops it for good. *)

val run_trace : trace -> budget:int -> unit
(** Execute whole iterations ([budget >= 1]) until a slot's result
    differs from the expected one — [t_slot] and [t_res] say where and
    what, [t_iters] how many iterations completed before — or until
    [budget] iterations complete ([t_iters = budget], [t_slot = 0]).
    Per slot: one closure call, one comparison; no accounting, no
    allocation.
    @raise Memory.Bus_error with [t_iters] and [t_slot] set to the
    faulting slot. *)
