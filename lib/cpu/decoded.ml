module Insn = Sofia_isa.Insn
module Reg = Sofia_isa.Reg
open Sofia_util

(* Pre-decoded, flattened instruction block: the fast engine's unit of
   execution. Every per-step decision the reference interpreter makes
   by matching the boxed [Insn.t] ADT — operand extraction, cycle
   cost, load-use source/destination registers — is computed once at
   compile time, so the hot loop neither allocates nor decodes.

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

   [exec.(i)] runs slot [i]: a closure over the run's register file and
   memory with its operand fields, its pre-normalised immediate and its
   pc resolved when the block is compiled (see [slot]). A block is
   compiled per run — after its MAC verdict on the SOFIA core, on first
   entry on the vanilla one — so the closures never outlive their
   machine. [insns.(i)] keeps the original decoded instruction for the
   [on_retire] slow path only — never touched when no retire callback
   is attached.

   [cost_pre] and [stall_pre] hold [n + 1] prefix sums, so a block
   visit that retires its first [c] slots adds [cost_pre.(c)] cycles
   and [stall_pre.(c)] load-use stalls in one step: [Timing.insn_cost]
   of every slot before [c], plus [load_use_stall] for each slot from 1
   on that reads the register the slot before it loads. Those stalls
   depend only on the block's own code; slot 0's stall depends on the
   latch the block is entered with and is left to the engine. *)

type t = {
  ops : int array;
  exec : (unit -> int) array;
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

(* One pre-decoded instruction as a closure over the machine it runs
   on, bit-for-bit [Machine.execute]: same masking, same division edge
   cases, same [Memory] entry points (so [Memory.Bus_error] propagates
   identically; a load into r0 still reads, so it still faults), r0
   never written. [regs] must be the machine's register file
   ([Machine.regs]); [pc] the slot's address. The operand fields, the
   immediate and the pc are resolved when the closure is built, so
   running a slot is one indirect call with no decoding. Register
   indices come from 5-bit fields, hence the unsafe accesses. *)
let[@inline] g regs i = Array.unsafe_get regs i

(* an ALU op or [lui] into r0: it can only fall through and changes
   nothing *)
let inert w = w land 63 <= op_lui && (w lsr 6) land 31 = 0

let slot ~(regs : int array) ~mem ~pc w imm : unit -> int =
  let rd = (w lsr 6) land 31 and a = (w lsr 11) land 31 and b = (w lsr 16) land 31 in
  let op = w land 63 in
  if inert w then fun () -> res_next
  else
    match op with
    | 0 -> fun () -> Array.unsafe_set regs rd ((g regs a + g regs b) land mask32); res_next
    | 1 -> fun () -> Array.unsafe_set regs rd ((g regs a - g regs b) land mask32); res_next
    | 2 -> fun () -> Array.unsafe_set regs rd (g regs a land g regs b); res_next
    | 3 -> fun () -> Array.unsafe_set regs rd (g regs a lor g regs b); res_next
    | 4 -> fun () -> Array.unsafe_set regs rd (g regs a lxor g regs b); res_next
    | 5 -> fun () -> Array.unsafe_set regs rd ((g regs a lsl (g regs b land 31)) land mask32); res_next
    | 6 -> fun () -> Array.unsafe_set regs rd (g regs a lsr (g regs b land 31)); res_next
    | 7 ->
      fun () ->
        Array.unsafe_set regs rd ((signed (g regs a) asr (g regs b land 31)) land mask32);
        res_next
    | 8 -> fun () -> Array.unsafe_set regs rd (g regs a * g regs b land mask32); res_next
    | 9 ->
      fun () ->
        let sb = signed (g regs b) in
        Array.unsafe_set regs rd (if sb = 0 then mask32 else signed (g regs a) / sb land mask32);
        res_next
    | 10 ->
      fun () ->
        let sb = signed (g regs b) in
        Array.unsafe_set regs rd (if sb = 0 then g regs a else signed (g regs a) mod sb land mask32);
        res_next
    | 11 ->
      fun () ->
        Array.unsafe_set regs rd (if signed (g regs a) < signed (g regs b) then 1 else 0);
        res_next
    | 12 -> fun () -> Array.unsafe_set regs rd (if g regs a < g regs b then 1 else 0); res_next
    | 13 -> fun () -> Array.unsafe_set regs rd ((g regs a + imm) land mask32); res_next
    | 14 -> fun () -> Array.unsafe_set regs rd ((g regs a - imm) land mask32); res_next
    | 15 -> fun () -> Array.unsafe_set regs rd (g regs a land imm); res_next
    | 16 -> fun () -> Array.unsafe_set regs rd (g regs a lor imm); res_next
    | 17 -> fun () -> Array.unsafe_set regs rd (g regs a lxor imm); res_next
    | 18 ->
      let sh = imm land 31 in
      fun () -> Array.unsafe_set regs rd ((g regs a lsl sh) land mask32); res_next
    | 19 ->
      let sh = imm land 31 in
      fun () -> Array.unsafe_set regs rd (g regs a lsr sh); res_next
    | 20 ->
      let sh = imm land 31 in
      fun () -> Array.unsafe_set regs rd ((signed (g regs a) asr sh) land mask32); res_next
    | 21 -> fun () -> Array.unsafe_set regs rd (g regs a * imm land mask32); res_next
    | 22 ->
      let sb = signed imm in
      if sb = 0 then fun () -> Array.unsafe_set regs rd mask32; res_next
      else fun () -> Array.unsafe_set regs rd (signed (g regs a) / sb land mask32); res_next
    | 23 ->
      let sb = signed imm in
      if sb = 0 then fun () -> Array.unsafe_set regs rd (g regs a); res_next
      else fun () -> Array.unsafe_set regs rd (signed (g regs a) mod sb land mask32); res_next
    | 24 ->
      let si = signed imm in
      fun () -> Array.unsafe_set regs rd (if signed (g regs a) < si then 1 else 0); res_next
    | 25 -> fun () -> Array.unsafe_set regs rd (if g regs a < imm then 1 else 0); res_next
    | 26 -> fun () -> Array.unsafe_set regs rd imm; res_next
    | 27 ->
      if rd = 0 then fun () -> ignore (Memory.read32 mem ((g regs a + imm) land mask32)); res_next
      else fun () -> Array.unsafe_set regs rd (Memory.read32 mem ((g regs a + imm) land mask32)); res_next
    | 28 ->
      if rd = 0 then fun () -> ignore (Memory.read8 mem ((g regs a + imm) land mask32)); res_next
      else fun () -> Array.unsafe_set regs rd (Memory.read8 mem ((g regs a + imm) land mask32)); res_next
    | 29 -> fun () -> Memory.write32 mem ((g regs a + imm) land mask32) (g regs b); res_next
    | 30 -> fun () -> Memory.write8 mem ((g regs a + imm) land mask32) (g regs b); res_next
    | 41 ->
      let t = (pc + imm) land mask32 and link = (pc + 4) land mask32 in
      if rd = 0 then fun () -> t else fun () -> Array.unsafe_set regs rd link; t
    | 42 ->
      let link = (pc + 4) land mask32 in
      fun () ->
        let t = (g regs a + imm) land mask32 in
        if rd <> 0 then Array.unsafe_set regs rd link;
        t
    | 43 ->
      let r = res_halt imm in
      fun () -> r
    | _ -> (
      let t = (pc + imm) land mask32 in
      match op - op_branch0 with
      | 0 -> fun () -> if g regs a = g regs b then t else res_next
      | 1 -> fun () -> if g regs a <> g regs b then t else res_next
      | 2 -> fun () -> if signed (g regs a) < signed (g regs b) then t else res_next
      | 3 -> fun () -> if signed (g regs a) >= signed (g regs b) then t else res_next
      | 4 -> fun () -> if g regs a < g regs b then t else res_next
      | 5 -> fun () -> if g regs a >= g regs b then t else res_next
      | 6 -> fun () -> if signed (g regs a) > signed (g regs b) then t else res_next
      | 7 -> fun () -> if signed (g regs a) <= signed (g regs b) then t else res_next
      | 8 -> fun () -> if g regs a > g regs b then t else res_next
      | _ -> fun () -> if g regs a <= g regs b then t else res_next)

let compile ~(timing : Timing.t) ~regs ~mem ~first insns =
  let n = Array.length insns in
  let ops = Array.make n 0 in
  let exec = Array.make n (fun () -> res_next) in
  let cost_pre = Array.make (n + 1) 0 in
  let stall_pre = Array.make (n + 1) 0 in
  Array.iteri
    (fun i insn ->
      let w, imm = compile_one insn in
      ops.(i) <- w;
      exec.(i) <- slot ~regs ~mem ~pc:(first + (4 * i)) w imm;
      let stall = if i > 0 && uses w (loaded_dest ops.(i - 1)) then 1 else 0 in
      cost_pre.(i + 1) <-
        cost_pre.(i) + Timing.insn_cost timing insn + (stall * timing.Timing.load_use_stall);
      stall_pre.(i + 1) <- stall_pre.(i) + stall)
    insns;
  { ops; exec; cost_pre; stall_pre; insns }

(* A superblock's code: the slots one iteration of a hot cycle of
   blocks executes, laid end to end as its blocks' slot closures. Part
   [j] is the first [c] slots of a block, and [t_exp] holds the result
   each slot must return for the iteration to stay on the cycle:
   [res_next] everywhere except at a part's last slot, whose expected
   result is the redirect target the cycle leaves that block by (or
   [res_next] for a fall-through). A slot that can only fall through
   and changes nothing (an ALU op or [lui] into r0, the SOFIA layout's
   padding NOPs among them) is left out: it retires, and is accounted,
   but costs no call. [t_lines] holds an address on each part's icache
   line, the one its block's visits probe. *)
type trace = {
  t_fns : (unit -> int) array;
  t_exp : int array;
  t_part : int array;  (* slot -> part *)
  t_local : int array;  (* slot -> its index in its part's block *)
  t_insns : int;  (* instructions one iteration retires, left-out slots included *)
  t_lines : int array;
  mutable t_iters : int;  (* whole iterations the last run completed *)
  mutable t_slot : int;  (* the slot it left by *)
  mutable t_res : int;  (* that slot's result *)
  mutable t_seen : int;  (* icache misses when its lines were last all resident *)
  mutable t_entries : int;  (* entries since the last payoff check *)
  mutable t_wasted : int;  (* of those, entries that left before the second part *)
}

(* Superblock policy, the same on both cores. A block entered
   [heat_threshold] times tries to close a cycle of at most [max_parts]
   blocks; a failed try waits for as many entries again. A superblock
   that leaves before its second part on most of [payoff_window]
   entries costs more than it saves (its cycle one path of several, or
   an outer loop's path through one pass of an inner loop): it is
   dropped for good. Short branchy runs set the threshold: a build
   costs about a microsecond, and at 8 entries a codec whose every
   sample takes another path builds a cycle for path after path
   (DESIGN §11 has the ablation). *)
let heat_threshold = 32
let max_parts = 32
let payoff_window = 64

let trace parts =
  let kept (d, _, c, res) i = (not (inert d.ops.(i))) || (i = c - 1 && res <> res_next) in
  let len = ref 0 and insns = ref 0 in
  Array.iter
    (fun ((_, _, c, _) as p) ->
      insns := !insns + c;
      for i = 0 to c - 1 do
        if kept p i then incr len
      done)
    parts;
  let t =
    {
      t_fns = Array.make !len (fun () -> res_next);
      t_exp = Array.make !len res_next;
      t_part = Array.make !len 0;
      t_local = Array.make !len 0;
      t_insns = !insns;
      t_lines = Array.map (fun (_, line, _, _) -> line) parts;
      t_iters = 0;
      t_slot = 0;
      t_res = res_next;
      t_seen = -1;
      t_entries = 0;
      t_wasted = 0;
    }
  in
  let s = ref 0 in
  Array.iteri
    (fun j ((d, _, c, res) as p) ->
      for i = 0 to c - 1 do
        if kept p i then begin
          t.t_fns.(!s) <- d.exec.(i);
          if i = c - 1 then t.t_exp.(!s) <- res;
          t.t_part.(!s) <- j;
          t.t_local.(!s) <- i;
          incr s
        end
      done)
    parts;
  t

(* Whole iterations that fit [room] retires, or 0 when one of the
   trace's lines is not resident. With no icache miss since its lines
   were last all resident, none can have been evicted. *)
let budget t icache ~room =
  let misses = Icache.misses icache in
  let resident = t.t_seen = misses || Icache.all_resident icache t.t_lines in
  if not resident then 0
  else begin
    t.t_seen <- misses;
    room / t.t_insns
  end

let keeps_paying t =
  if t.t_iters = 0 && t.t_part.(t.t_slot) < 2 then t.t_wasted <- t.t_wasted + 1;
  t.t_entries <- t.t_entries + 1;
  if t.t_entries < payoff_window then true
  else begin
    let paid = 2 * t.t_wasted <= payoff_window in
    t.t_entries <- 0;
    t.t_wasted <- 0;
    paid
  end

(* Whole iterations until a slot leaves the cycle or [budget]
   iterations are done; [t_iters = budget] tells the two apart. A
   [Memory.Bus_error] propagates with [t_iters] and [t_slot] set. *)
let run_trace t ~budget =
  let fns = t.t_fns and exp = t.t_exp in
  let len = Array.length fns in
  let s = ref 0 and it = ref 0 and res = ref res_next in
  match
    while
      res := (Array.unsafe_get fns !s) ();
      !res = Array.unsafe_get exp !s
      && begin
        incr s;
        !s < len
        || begin
          s := 0;
          incr it;
          !it < budget
        end
      end
    do
      ()
    done
  with
  | () ->
    t.t_iters <- !it;
    t.t_slot <- !s;
    t.t_res <- !res
  | exception (Memory.Bus_error _ as e) ->
    t.t_iters <- !it;
    t.t_slot <- !s;
    raise e
