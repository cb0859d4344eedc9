(** The unmodified ("stock LEON3") processor model: the baseline of
    every comparison in the paper's §IV.

    It fetches 32-bit words from the text image, decodes, and executes
    with the {!Timing} cost model — no decryption, no MAC verification,
    no protection whatsoever: tampered words execute if they decode,
    and control can flow anywhere. *)

val reads : Sofia_isa.Insn.t -> Sofia_isa.Reg.t list
(** Source registers (used for load-use stall detection). *)

val reads_reg : Sofia_isa.Insn.t -> Sofia_isa.Reg.t -> bool
(** [reads_reg insn rd] iff [rd] is a source register of [insn] —
    allocation-free equivalent of [List.mem rd (reads insn)] for the
    per-retire load-use check. *)

val dest : Sofia_isa.Insn.t -> Sofia_isa.Reg.t option
(** Destination register, if any. *)

val run :
  ?config:Run_config.t ->
  ?args:int list ->
  ?on_retire:(pc:int -> insn:Sofia_isa.Insn.t -> unit) ->
  ?obs:Sofia_obs.Obs.t ->
  ?on_finish:(machine:Machine.t -> mem:Memory.t -> unit) ->
  Sofia_asm.Program.t ->
  Machine.run_result
(** Assemble-and-go: runs from the program's entry point until [halt],
    a fault, or fuel exhaustion. [args] preloads [a0], [a1], …;
    [on_retire] observes every retired instruction (tracing); [obs]
    attaches the observability sinks (retire/halt/reset events, icache
    and retire counters — the vanilla core has no decrypt/MAC stages to
    observe); [on_finish] sees the final machine and memory. Every run
    borrows its domain's pooled RAM ({!Memory.acquire}); a run that
    passes [on_finish] never hands it back, so the callback may keep
    it.

    The fast engine ([Run_config.Fast], the default) runs line-bounded
    blocks compiled on first entry, and hot cycles of them as
    superblocks, as the SOFIA core does: whole iterations of slot
    closures, accounted once per iteration, left through an exact side
    exit. A superblock position's slot-0 load-use stall is fixed by the
    latch the cycle enters it with; one is entered only with no load
    pending, and never while [on_retire] or a trace sink is attached.
    Results, counters and events equal the reference engine's (modulo
    the [engine_*] counters). *)

val run_encoded :
  ?config:Run_config.t ->
  ?args:int list ->
  ?on_retire:(pc:int -> insn:Sofia_isa.Insn.t -> unit) ->
  ?obs:Sofia_obs.Obs.t ->
  ?on_finish:(machine:Machine.t -> mem:Memory.t -> unit) ->
  text:int array ->
  text_base:int ->
  entry:int ->
  data:Bytes.t ->
  data_base:int ->
  unit ->
  Machine.run_result
(** Run raw encoded words — the entry point the attack suite uses to
    execute {e tampered} vanilla binaries (a word that no longer
    decodes raises an invalid-opcode trap, exactly like a real CPU). *)
