(** Architectural state and single-instruction semantics shared by the
    vanilla and SOFIA runners, plus the common run-result types. *)

type violation =
  | Mac_mismatch of { block_base : int }
      (** SI verification failed (paper Fig. 3): tampered instructions
          or tampered control flow *)
  | Store_in_banned_slot of { address : int }
      (** a store reached inst1/inst2 of an execution block (Fig. 6) *)
  | Invalid_opcode of { address : int; word : int }
  | Bus_fault of { address : int }
  | Misaligned_entry of { address : int }
      (** control transferred to an address that is no block entry port
          (reported by the frontend model when strict) *)
  | State_divergence of { block_base : int }
      (** SCFP backend: the rolling sponge state left the canonical
          orbit — the squeezed tag did not match the stored tag words.
          Tampered code, a tampered patch, or a control transfer no
          patch was derived for all land here. *)
  | Shadow_stack_mismatch of { expected : int; got : int }
      (** baseline hardware-CFI core: a return does not match the
          hardware call stack *)
  | Landing_pad_violation of { address : int }
      (** baseline hardware-CFI core: an indirect transfer landed
          outside the coarse landing-pad set *)

type outcome =
  | Halted of int  (** the program executed [halt code] *)
  | Cpu_reset of violation
      (** the SOFIA reset line fired — the attack/tampering was caught *)
  | Out_of_fuel  (** instruction budget exhausted *)

type run_stats = {
  cycles : int;
  instructions : int;  (** instructions retired (NOPs included) *)
  mac_words_fetched : int;
  blocks_entered : int;
  redirects : int;  (** taken control transfers *)
  icache_accesses : int;
  icache_misses : int;
  load_use_stalls : int;
}

type run_result = {
  outcome : outcome;
  stats : run_stats;
  outputs : int list;
  output_text : string;
}

val pp_violation : Format.formatter -> violation -> unit
val pp_outcome : Format.formatter -> outcome -> unit

val violation_label : violation -> string
(** Stable snake_case tag for machine-readable sinks (trace events,
    metrics, bench JSON). *)

val violation_address : violation -> int
(** The address the violation reports (block base, faulting address, or
    the offending return target). *)

type t
(** Register file + PC + accounting. *)

val create : entry:int -> sp:int -> t

val pc : t -> int
val set_pc : t -> int -> unit
val read_reg : t -> Sofia_isa.Reg.t -> int
val write_reg : t -> Sofia_isa.Reg.t -> int -> unit

val regs : t -> int array
(** The raw register file, for the pre-decoded execution engine
    ({!Decoded.exec}) only. Invariants to uphold: index 0 stays 0 and
    every value stays u32-masked (what {!write_reg} enforces). *)

type action =
  | Next  (** fall through to pc + 4 *)
  | Redirect of int  (** taken control transfer to the given address *)
  | Halt of int

val execute : t -> Memory.t -> Sofia_isa.Insn.t -> action
(** Execute one instruction at the machine's current [pc] (the PC is
    {e not} advanced; the runner owns sequencing).
    @raise Memory.Bus_error on bad data accesses. *)

val cpi : run_result -> float
(** Cycles per retired instruction. *)
