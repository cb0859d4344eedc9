module Insn = Sofia_isa.Insn
module Reg = Sofia_isa.Reg
open Sofia_util

type violation =
  | Mac_mismatch of { block_base : int }
  | Store_in_banned_slot of { address : int }
  | Invalid_opcode of { address : int; word : int }
  | Bus_fault of { address : int }
  | Misaligned_entry of { address : int }
  | State_divergence of { block_base : int }
  | Shadow_stack_mismatch of { expected : int; got : int }
  | Landing_pad_violation of { address : int }

type outcome = Halted of int | Cpu_reset of violation | Out_of_fuel

type run_stats = {
  cycles : int;
  instructions : int;
  mac_words_fetched : int;
  blocks_entered : int;
  redirects : int;
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

let pp_violation fmt = function
  | Mac_mismatch { block_base } -> Format.fprintf fmt "MAC mismatch in block 0x%08x" block_base
  | Store_in_banned_slot { address } ->
    Format.fprintf fmt "store in banned slot at 0x%08x" address
  | Invalid_opcode { address; word } ->
    Format.fprintf fmt "invalid opcode 0x%08x at 0x%08x" word address
  | Bus_fault { address } -> Format.fprintf fmt "bus fault at 0x%08x" address
  | Misaligned_entry { address } ->
    Format.fprintf fmt "control transfer to non-entry address 0x%08x" address
  | State_divergence { block_base } ->
    Format.fprintf fmt "sponge state divergence in block 0x%08x" block_base
  | Shadow_stack_mismatch { expected; got } ->
    Format.fprintf fmt "shadow-stack mismatch: return to 0x%08x, expected 0x%08x" got expected
  | Landing_pad_violation { address } ->
    Format.fprintf fmt "indirect transfer to non-landing-pad 0x%08x" address

let violation_label = function
  | Mac_mismatch _ -> "mac_mismatch"
  | Store_in_banned_slot _ -> "store_in_banned_slot"
  | Invalid_opcode _ -> "invalid_opcode"
  | Bus_fault _ -> "bus_fault"
  | Misaligned_entry _ -> "misaligned_entry"
  | State_divergence _ -> "state_divergence"
  | Shadow_stack_mismatch _ -> "shadow_stack_mismatch"
  | Landing_pad_violation _ -> "landing_pad_violation"

let violation_address = function
  | Mac_mismatch { block_base } | State_divergence { block_base } -> block_base
  | Store_in_banned_slot { address }
  | Invalid_opcode { address; _ }
  | Bus_fault { address }
  | Misaligned_entry { address }
  | Landing_pad_violation { address } -> address
  | Shadow_stack_mismatch { got; _ } -> got

let pp_outcome fmt = function
  | Halted code -> Format.fprintf fmt "halted(%d)" code
  | Cpu_reset v -> Format.fprintf fmt "reset: %a" pp_violation v
  | Out_of_fuel -> Format.fprintf fmt "out of fuel"

type t = { regs : int array; mutable pc : int }

let create ~entry ~sp =
  let regs = Array.make 32 0 in
  regs.(Reg.to_int Reg.sp) <- sp;
  { regs; pc = entry }

let pc t = t.pc
let set_pc t v = t.pc <- v

let regs t = t.regs

let read_reg t r = t.regs.(Reg.to_int r)

let write_reg t r v =
  let i = Reg.to_int r in
  if i <> 0 then t.regs.(i) <- Word.u32 v

type action = Next | Redirect of int | Halt of int

let execute t mem (insn : Insn.t) =
  match insn with
  | Insn.Alu_r (op, rd, rs1, rs2) ->
    write_reg t rd (Insn.eval_alu op (read_reg t rs1) (read_reg t rs2));
    Next
  | Insn.Alu_i (op, rd, rs1, imm) ->
    write_reg t rd (Insn.eval_alu op (read_reg t rs1) (Word.u32 imm));
    Next
  | Insn.Lui (rd, imm) ->
    write_reg t rd (Word.u32 (imm lsl 16));
    Next
  | Insn.Load (w, rd, base, off) ->
    let addr = Word.u32 (read_reg t base + off) in
    let v = match w with Insn.W32 -> Memory.read32 mem addr | Insn.W8 -> Memory.read8 mem addr in
    write_reg t rd v;
    Next
  | Insn.Store (w, src, base, off) ->
    let addr = Word.u32 (read_reg t base + off) in
    (match w with
     | Insn.W32 -> Memory.write32 mem addr (read_reg t src)
     | Insn.W8 -> Memory.write8 mem addr (read_reg t src));
    Next
  | Insn.Branch (c, rs1, rs2, woff) ->
    if Insn.eval_cond c (read_reg t rs1) (read_reg t rs2) then
      Redirect (Word.u32 (t.pc + (4 * woff)))
    else Next
  | Insn.Jal (rd, woff) ->
    write_reg t rd (t.pc + 4);
    Redirect (Word.u32 (t.pc + (4 * woff)))
  | Insn.Jalr (rd, rs1, off) ->
    let target = Word.u32 (read_reg t rs1 + off) in
    write_reg t rd (t.pc + 4);
    Redirect target
  | Insn.Halt code -> Halt code

let cpi r =
  if r.stats.instructions = 0 then 0.0
  else float_of_int r.stats.cycles /. float_of_int r.stats.instructions
