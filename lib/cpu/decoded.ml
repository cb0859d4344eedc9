module Insn = Sofia_isa.Insn
module Reg = Sofia_isa.Reg
open Sofia_util

(* Pre-decoded, flattened instruction block: the fast engine's unit of
   execution. Every per-step decision the reference interpreter makes
   by matching the boxed [Insn.t] ADT — operand extraction, cycle
   cost, load-use source/destination registers — is computed once at
   compile time and packed into immediate ints, so the hot loop runs on
   flat arrays with no [Option] cells and no allocation.

   Word layout of [ops.(i)] (low to high):

     bits 0-5    micro-opcode (see the table below)
     bits 6-10   rd
     bits 11-15  rs1
     bits 16-20  rs2
     bits 21-26  first register read, or [no_read]
     bits 27-32  second register read, or [no_read]
     bits 33-38  destination register if the slot is a load, else
                 [no_load] — assigning this field to the pending-load
                 latch needs no branch

   [imms.(i)] holds the pre-normalised immediate: ALU immediates and
   LUI values are already masked to u32 (mirroring [Machine.execute]'s
   [Word.u32 imm]), branch/jal offsets are pre-scaled to bytes, and
   load/store/jalr offsets stay raw (they are added to a register
   before masking). [insns.(i)] keeps the original decoded instruction
   for the [on_retire] slow path only — never touched when no retire
   callback is attached.

   [cost_pre] and [stall_pre] hold [n + 1] prefix sums, so a block
   visit that retires its first [c] slots adds [cost_pre.(c)] cycles
   and [stall_pre.(c)] load-use stalls in one step: [Timing.insn_cost]
   of every slot before [c], plus [load_use_stall] for each slot from 1
   on that reads the register the slot before it loads. Those stalls
   depend only on the block's own code; slot 0's stall depends on the
   latch the block is entered with and is left to the engine. *)

type t = {
  ops : int array;
  imms : int array;
  cost_pre : int array;
  stall_pre : int array;
  insns : Insn.t array;
}

let no_read = 32
let no_load = 63

let loaded_dest w = (w lsr 33) land 63

(* Read fields hold 0-31 or [no_read]; the latch holds 0-31 or
   [no_load], so a slot never stalls behind an empty latch. *)
let uses w latch = (w lsr 21) land 63 = latch || (w lsr 27) land 63 = latch

(* Micro-opcodes: 0-12 register ALU (Insn.alu_op order), 13-25
   immediate ALU, then the rest. Dense from 0 so the dispatch match
   compiles to a jump table. *)
let alu_index : Insn.alu_op -> int = function
  | Insn.Add -> 0
  | Insn.Sub -> 1
  | Insn.And -> 2
  | Insn.Or -> 3
  | Insn.Xor -> 4
  | Insn.Sll -> 5
  | Insn.Srl -> 6
  | Insn.Sra -> 7
  | Insn.Mul -> 8
  | Insn.Div -> 9
  | Insn.Rem -> 10
  | Insn.Slt -> 11
  | Insn.Sltu -> 12

let cond_index : Insn.cond -> int = function
  | Insn.Eq -> 0
  | Insn.Ne -> 1
  | Insn.Lt -> 2
  | Insn.Ge -> 3
  | Insn.Ltu -> 4
  | Insn.Geu -> 5
  | Insn.Gt -> 6
  | Insn.Le -> 7
  | Insn.Gtu -> 8
  | Insn.Leu -> 9

let op_lui = 26
let op_ld32 = 27
let op_ld8 = 28
let op_st32 = 29
let op_st8 = 30
let op_branch0 = 31 (* 31-40, cond_index order *)
let op_jal = 41
let op_jalr = 42
let op_halt = 43

let pack ~op ~rd ~rs1 ~rs2 ~r1 ~r2 ~ld =
  op lor (rd lsl 6) lor (rs1 lsl 11) lor (rs2 lsl 16) lor (r1 lsl 21) lor (r2 lsl 27)
  lor (ld lsl 33)

(* (packed word, immediate) of one instruction. The read fields mirror
   [Vanilla.reads_reg], the load-dest field mirrors
   [if Insn.is_load insn then Vanilla.dest insn else None]. *)
let compile_one (insn : Insn.t) =
  let r = Reg.to_int in
  match insn with
  | Insn.Alu_r (op, rd, rs1, rs2) ->
    ( pack ~op:(alu_index op) ~rd:(r rd) ~rs1:(r rs1) ~rs2:(r rs2) ~r1:(r rs1) ~r2:(r rs2)
        ~ld:no_load,
      0 )
  | Insn.Alu_i (op, rd, rs1, imm) ->
    ( pack ~op:(13 + alu_index op) ~rd:(r rd) ~rs1:(r rs1) ~rs2:0 ~r1:(r rs1) ~r2:no_read
        ~ld:no_load,
      Word.u32 imm )
  | Insn.Lui (rd, imm) ->
    (pack ~op:op_lui ~rd:(r rd) ~rs1:0 ~rs2:0 ~r1:no_read ~r2:no_read ~ld:no_load,
     Word.u32 (imm lsl 16))
  | Insn.Load (w, rd, base, off) ->
    ( pack
        ~op:(match w with Insn.W32 -> op_ld32 | Insn.W8 -> op_ld8)
        ~rd:(r rd) ~rs1:(r base) ~rs2:0 ~r1:(r base) ~r2:no_read ~ld:(r rd),
      off )
  | Insn.Store (w, src, base, off) ->
    ( pack
        ~op:(match w with Insn.W32 -> op_st32 | Insn.W8 -> op_st8)
        ~rd:0 ~rs1:(r base) ~rs2:(r src) ~r1:(r src) ~r2:(r base) ~ld:no_load,
      off )
  | Insn.Branch (c, rs1, rs2, woff) ->
    ( pack ~op:(op_branch0 + cond_index c) ~rd:0 ~rs1:(r rs1) ~rs2:(r rs2) ~r1:(r rs1)
        ~r2:(r rs2) ~ld:no_load,
      4 * woff )
  | Insn.Jal (rd, woff) ->
    (pack ~op:op_jal ~rd:(r rd) ~rs1:0 ~rs2:0 ~r1:no_read ~r2:no_read ~ld:no_load, 4 * woff)
  | Insn.Jalr (rd, rs1, off) ->
    (pack ~op:op_jalr ~rd:(r rd) ~rs1:(r rs1) ~rs2:0 ~r1:(r rs1) ~r2:no_read ~ld:no_load, off)
  | Insn.Halt code ->
    (pack ~op:op_halt ~rd:0 ~rs1:0 ~rs2:0 ~r1:no_read ~r2:no_read ~ld:no_load, code)

let compile ~(timing : Timing.t) insns =
  let n = Array.length insns in
  let ops = Array.make n 0 in
  let imms = Array.make n 0 in
  let cost_pre = Array.make (n + 1) 0 in
  let stall_pre = Array.make (n + 1) 0 in
  Array.iteri
    (fun i insn ->
      let w, imm = compile_one insn in
      ops.(i) <- w;
      imms.(i) <- imm;
      let stall = if i > 0 && uses w (loaded_dest ops.(i - 1)) then 1 else 0 in
      cost_pre.(i + 1) <-
        cost_pre.(i) + Timing.insn_cost timing insn + (stall * timing.Timing.load_use_stall);
      stall_pre.(i + 1) <- stall_pre.(i) + stall)
    insns;
  { ops; imms; cost_pre; stall_pre; insns }

(* Execution result, encoded as an immediate int so the hot path never
   allocates a [Machine.action]: [-1] is fall-through to the next
   slot, any non-negative value is a taken redirect to that (u32)
   address, and [halt code] maps to [-2 - code] (codes are decoded
   from a 26-bit field, so they are non-negative and the ranges cannot
   collide). *)
let res_next = -1
let res_halt code = -2 - code
let halt_code res = -2 - res

let mask32 = Word.mask32

(* Register values are maintained as u32 by construction (see
   [Machine.write_reg]), so [signed] skips the re-masking
   [Word.signed32] performs. *)
let signed v = if v land 0x8000_0000 <> 0 then v - 0x1_0000_0000 else v

(* One pre-decoded instruction, bit-for-bit [Machine.execute]: same
   masking, same division edge cases, same [Memory] entry points (so
   [Memory.Bus_error] propagates identically). [regs] must be the
   machine's register file ([Machine.regs]); [pc] the slot's address.
   All array indices come from 5-bit fields, hence the unsafe
   accesses. *)
let exec ~w ~imm ~(regs : int array) ~mem ~pc =
  let op = w land 63 in
  if op < 26 then begin
    (* ALU, register (< 13) or immediate form *)
    let a = Array.unsafe_get regs ((w lsr 11) land 31) in
    let b, idx =
      if op < 13 then (Array.unsafe_get regs ((w lsr 16) land 31), op) else (imm, op - 13)
    in
    let v =
      match idx with
      | 0 -> (a + b) land mask32
      | 1 -> (a - b) land mask32
      | 2 -> a land b
      | 3 -> a lor b
      | 4 -> a lxor b
      | 5 -> (a lsl (b land 31)) land mask32
      | 6 -> a lsr (b land 31)
      | 7 -> (signed a asr (b land 31)) land mask32
      | 8 -> a * b land mask32
      | 9 ->
        let sb = signed b in
        if sb = 0 then mask32 else signed a / sb land mask32
      | 10 ->
        let sb = signed b in
        if sb = 0 then a else signed a mod sb land mask32
      | 11 -> if signed a < signed b then 1 else 0
      | _ -> if a < b then 1 else 0
    in
    let rd = (w lsr 6) land 31 in
    if rd <> 0 then Array.unsafe_set regs rd v;
    res_next
  end
  else
    match op with
    | 26 (* lui *) ->
      let rd = (w lsr 6) land 31 in
      if rd <> 0 then Array.unsafe_set regs rd imm;
      res_next
    | 27 (* ld32 *) ->
      let addr = (Array.unsafe_get regs ((w lsr 11) land 31) + imm) land mask32 in
      let v = Memory.read32 mem addr in
      let rd = (w lsr 6) land 31 in
      if rd <> 0 then Array.unsafe_set regs rd v;
      res_next
    | 28 (* ld8 *) ->
      let addr = (Array.unsafe_get regs ((w lsr 11) land 31) + imm) land mask32 in
      let v = Memory.read8 mem addr in
      let rd = (w lsr 6) land 31 in
      if rd <> 0 then Array.unsafe_set regs rd v;
      res_next
    | 29 (* st32 *) ->
      let addr = (Array.unsafe_get regs ((w lsr 11) land 31) + imm) land mask32 in
      Memory.write32 mem addr (Array.unsafe_get regs ((w lsr 16) land 31));
      res_next
    | 30 (* st8 *) ->
      let addr = (Array.unsafe_get regs ((w lsr 11) land 31) + imm) land mask32 in
      Memory.write8 mem addr (Array.unsafe_get regs ((w lsr 16) land 31));
      res_next
    | 41 (* jal *) ->
      let rd = (w lsr 6) land 31 in
      if rd <> 0 then Array.unsafe_set regs rd ((pc + 4) land mask32);
      (pc + imm) land mask32
    | 42 (* jalr *) ->
      let target = (Array.unsafe_get regs ((w lsr 11) land 31) + imm) land mask32 in
      let rd = (w lsr 6) land 31 in
      if rd <> 0 then Array.unsafe_set regs rd ((pc + 4) land mask32);
      target
    | 43 (* halt *) -> res_halt imm
    | _ ->
      (* branch, micro-ops 31-40 *)
      let a = Array.unsafe_get regs ((w lsr 11) land 31) in
      let b = Array.unsafe_get regs ((w lsr 16) land 31) in
      let taken =
        match op - op_branch0 with
        | 0 -> a = b
        | 1 -> a <> b
        | 2 -> signed a < signed b
        | 3 -> signed a >= signed b
        | 4 -> a < b
        | 5 -> a >= b
        | 6 -> signed a > signed b
        | 7 -> signed a <= signed b
        | 8 -> a > b
        | _ -> a <= b
      in
      if taken then (pc + imm) land mask32 else res_next
