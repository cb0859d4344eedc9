(* Tests for memory, icache, machine semantics, and the two runners. *)

module Memory = Sofia.Cpu.Memory
module Icache = Sofia.Cpu.Icache
module Machine = Sofia.Cpu.Machine
module Timing = Sofia.Cpu.Timing
module Run_config = Sofia.Cpu.Run_config
module Vanilla = Sofia.Cpu.Vanilla
module Sofia_runner = Sofia.Cpu.Sofia_runner
module Assembler = Sofia.Asm.Assembler
module Program = Sofia.Asm.Program
module Insn = Sofia.Isa.Insn
module Reg = Sofia.Isa.Reg
module Encoding = Sofia.Isa.Encoding
module Keys = Sofia.Crypto.Keys
module Ctr = Sofia.Crypto.Ctr
module Cbc_mac = Sofia.Crypto.Cbc_mac
module Transform = Sofia.Transform.Transform
module Image = Sofia.Transform.Image
module Block = Sofia.Transform.Block

let keys = Keys.generate ~seed:0xCAFEL
let check_int = Alcotest.(check int)

(* ---------------- memory ---------------- *)

let test_memory_rw () =
  let m = Memory.create ~size_bytes:4096 () in
  Memory.write32 m 0 0xDEAD_BEEF;
  check_int "read32" 0xDEAD_BEEF (Memory.read32 m 0);
  Memory.write8 m 100 0xAB;
  check_int "read8" 0xAB (Memory.read8 m 100);
  Memory.write32 m 4092 42;
  check_int "last word" 42 (Memory.read32 m 4092)

let test_memory_faults () =
  let m = Memory.create ~size_bytes:4096 () in
  let faults f = match f () with exception Memory.Bus_error _ -> () | _ -> Alcotest.fail "no fault" in
  faults (fun () -> Memory.read32 m 2);
  faults (fun () -> Memory.read32 m 4096);
  faults (fun () -> Memory.write32 m (-4) 0);
  faults (fun () -> Memory.read8 m 5000)

let test_mmio () =
  let m = Memory.create () in
  let base = Sofia.Asm.Program.mmio_base in
  Memory.write32 m base 7;
  Memory.write32 m base 8;
  Memory.write32 m (base + 4) (Char.code 'h');
  Memory.write8 m (base + 4) (Char.code 'i');
  Alcotest.(check (list int)) "outputs in order" [ 7; 8 ] (Memory.outputs m);
  Alcotest.(check string) "chars" "hi" (Memory.output_text m);
  check_int "mmio reads zero" 0 (Memory.read32 m base);
  Memory.clear_outputs m;
  Alcotest.(check (list int)) "cleared" [] (Memory.outputs m)

let test_load_bytes () =
  let m = Memory.create ~size_bytes:4096 () in
  Memory.load_bytes m ~addr:16 (Bytes.of_string "\x01\x02\x03\x04");
  check_int "loaded" 0x04030201 (Memory.read32 m 16)

(* ---------------- icache ---------------- *)

let test_icache_behaviour () =
  let c = Icache.create { Icache.size_bytes = 128; line_bytes = 32 } in
  Alcotest.(check bool) "cold miss" false (Icache.access c 0);
  Alcotest.(check bool) "hit same line" true (Icache.access c 28);
  Alcotest.(check bool) "miss next line" false (Icache.access c 32);
  (* 4 sets: address 128 conflicts with 0 *)
  Alcotest.(check bool) "conflict miss" false (Icache.access c 128);
  Alcotest.(check bool) "evicted" false (Icache.access c 0);
  check_int "accesses" 5 (Icache.accesses c);
  check_int "misses" 4 (Icache.misses c);
  Icache.reset_stats c;
  check_int "reset" 0 (Icache.accesses c)

let test_icache_geometry () =
  List.iter
    (fun (size_bytes, line_bytes) ->
      match Icache.create { Icache.size_bytes; line_bytes } with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%d-byte cache of %d-byte lines accepted" size_bytes line_bytes)
    [ (96, 32); (128, 24); (0, 32); (16, 32) ];
  (* a probe plus a counted run of same-line hits: one access per
     fetch, one miss *)
  let c = Icache.create Icache.default in
  Alcotest.(check bool) "probe misses" false (Icache.access c 0x40);
  Icache.count_hits c 7;
  Alcotest.(check bool) "line stays resident" true (Icache.access c 0x5C);
  check_int "accesses" 9 (Icache.accesses c);
  check_int "misses" 1 (Icache.misses c)

(* ---------------- machine semantics ---------------- *)

let exec_one insn =
  let m = Machine.create ~entry:0x100 ~sp:0x1000 in
  let mem = Memory.create ~size_bytes:8192 () in
  (m, mem, Machine.execute m mem insn)

let test_linkage () =
  let m, _, action = exec_one (Insn.Jal (Reg.ra, 10)) in
  check_int "ra = pc+4" 0x104 (Machine.read_reg m Reg.ra);
  (match action with
   | Machine.Redirect t -> check_int "target" (0x100 + 40) t
   | _ -> Alcotest.fail "expected redirect");
  let m2 = Machine.create ~entry:0x200 ~sp:0 in
  Machine.write_reg m2 (Reg.t 0) 0x500;
  let mem = Memory.create () in
  (match Machine.execute m2 mem (Insn.Jalr (Reg.ra, Reg.t 0, 8)) with
   | Machine.Redirect t ->
     check_int "jalr target" 0x508 t;
     check_int "jalr link" 0x204 (Machine.read_reg m2 Reg.ra)
   | _ -> Alcotest.fail "expected redirect")

let test_r0_is_zero () =
  let m = Machine.create ~entry:0 ~sp:0 in
  Machine.write_reg m Reg.zero 123;
  check_int "r0 stays zero" 0 (Machine.read_reg m Reg.zero)

let test_branch_resolution () =
  let m = Machine.create ~entry:0x40 ~sp:0 in
  Machine.write_reg m (Reg.a 0) 5;
  let mem = Memory.create () in
  (match Machine.execute m mem (Insn.Branch (Eq, Reg.a 0, Reg.a 0, -4)) with
   | Machine.Redirect t -> check_int "taken backwards" (0x40 - 16) t
   | _ -> Alcotest.fail "taken expected");
  match Machine.execute m mem (Insn.Branch (Ne, Reg.a 0, Reg.a 0, -4)) with
  | Machine.Next -> ()
  | _ -> Alcotest.fail "not-taken expected"

let test_load_store_semantics () =
  let m = Machine.create ~entry:0 ~sp:0 in
  let mem = Memory.create ~size_bytes:4096 () in
  Machine.write_reg m (Reg.a 0) 0x80;
  Machine.write_reg m (Reg.a 1) 0xFEED_F00D;
  ignore (Machine.execute m mem (Insn.Store (W32, Reg.a 1, Reg.a 0, 4)));
  check_int "stored" 0xFEED_F00D (Memory.read32 mem 0x84);
  ignore (Machine.execute m mem (Insn.Load (W32, Reg.a 2, Reg.a 0, 4)));
  check_int "loaded" 0xFEED_F00D (Machine.read_reg m (Reg.a 2));
  ignore (Machine.execute m mem (Insn.Load (W8, Reg.a 3, Reg.a 0, 4)));
  check_int "byte load" 0x0D (Machine.read_reg m (Reg.a 3))

(* ---------------- vanilla runner ---------------- *)

let run src = Vanilla.run (Assembler.assemble src)

let test_vanilla_halt_and_outputs () =
  let r = run "start:\n  li a0, 41\n  addi a0, a0, 1\n  li a1, 0xFFFF0000\n  st a0, 0(a1)\n  halt 9\n" in
  (match r.Machine.outcome with
   | Machine.Halted 9 -> ()
   | o -> Alcotest.fail (Format.asprintf "unexpected outcome %a" Machine.pp_outcome o));
  Alcotest.(check (list int)) "outputs" [ 42 ] r.Machine.outputs

let test_vanilla_args () =
  let r = Vanilla.run ~args:[ 10; 32 ] (Assembler.assemble
    "start:\n  add a0, a0, a1\n  li a1, 0xFFFF0000\n  st a0, 0(a1)\n  halt\n") in
  Alcotest.(check (list int)) "a0+a1" [ 42 ] r.Machine.outputs

let test_vanilla_fuel () =
  let config = { Run_config.default with Run_config.fuel = 100 } in
  let r = Vanilla.run ~config (Assembler.assemble "start:\n  j start\n") in
  Alcotest.(check bool) "out of fuel" true (r.Machine.outcome = Machine.Out_of_fuel)

let test_vanilla_invalid_opcode () =
  let r =
    Vanilla.run_encoded ~text:[| 0xFFFF_FFFF |] ~text_base:0 ~entry:0
      ~data:(Bytes.create 0) ~data_base:0x10000 ()
  in
  match r.Machine.outcome with
  | Machine.Cpu_reset (Machine.Invalid_opcode _) -> ()
  | o -> Alcotest.fail (Format.asprintf "unexpected %a" Machine.pp_outcome o)

let test_vanilla_pc_out_of_text () =
  let r = run "start:\n  nop\n" in
  match r.Machine.outcome with
  | Machine.Cpu_reset (Machine.Bus_fault _) -> ()
  | o -> Alcotest.fail (Format.asprintf "unexpected %a" Machine.pp_outcome o)

let test_vanilla_data_bus_fault () =
  let r = run "start:\n  li a0, 0x00F00000\n  ld a1, 0(a0)\n  halt\n" in
  match r.Machine.outcome with
  | Machine.Cpu_reset (Machine.Bus_fault _) -> ()
  | o -> Alcotest.fail (Format.asprintf "unexpected %a" Machine.pp_outcome o)

let test_load_use_stall_counted () =
  let dependent =
    run "start:\n  li a0, 0x10000\n  ld a1, 0(a0)\n  add a2, a1, a1\n  halt\n"
  in
  let independent =
    run "start:\n  li a0, 0x10000\n  ld a1, 0(a0)\n  add a2, a0, a0\n  halt\n"
  in
  check_int "dependent stalls once" 1 dependent.Machine.stats.Machine.load_use_stalls;
  check_int "independent does not" 0 independent.Machine.stats.Machine.load_use_stalls;
  Alcotest.(check bool) "stall costs a cycle" true
    (dependent.Machine.stats.Machine.cycles > independent.Machine.stats.Machine.cycles)

let test_taken_branch_penalty () =
  let taken = run "start:\n  li a0, 1\n  beqz zero, t\nt:\n  halt\n" in
  let not_taken = run "start:\n  li a0, 1\n  bnez zero, t\nt:\n  halt\n" in
  check_int "penalty difference"
    Timing.leon3_default.Timing.taken_branch_penalty
    (taken.Machine.stats.Machine.cycles - not_taken.Machine.stats.Machine.cycles)

let test_insn_cost_model () =
  let t = Timing.leon3_default in
  check_int "alu" t.Timing.base (Timing.insn_cost t Insn.nop);
  check_int "load" (t.Timing.base + t.Timing.load_extra)
    (Timing.insn_cost t (Insn.Load (W32, Reg.a 0, Reg.sp, 0)));
  check_int "store" (t.Timing.base + t.Timing.store_extra)
    (Timing.insn_cost t (Insn.Store (W8, Reg.a 0, Reg.sp, 0)));
  check_int "mul" (t.Timing.base + t.Timing.mul_extra)
    (Timing.insn_cost t (Insn.Alu_r (Mul, Reg.a 0, Reg.a 0, Reg.a 0)));
  check_int "div" (t.Timing.base + t.Timing.div_extra)
    (Timing.insn_cost t (Insn.Alu_r (Div, Reg.a 0, Reg.a 0, Reg.a 0)));
  check_int "fetch floor 8 words at 2/cycle" 4 (Timing.block_fetch_floor t ~words_fetched:8);
  check_int "fetch floor odd" 4 (Timing.block_fetch_floor t ~words_fetched:7)

(* ---------------- SOFIA runner ---------------- *)

let protect src =
  let program = Assembler.assemble src in
  (program, Transform.protect_exn ~keys ~nonce:5 program)

let test_sofia_runs_clean_program () =
  let src = "start:\n  li a0, 6\n  call f\n  li a1, 0xFFFF0000\n  st a0, 0(a1)\n  halt 2\nf:\n  mul a0, a0, a0\n  ret\n" in
  let program, image = protect src in
  let rv = Vanilla.run program in
  let rs = Sofia_runner.run ~keys image in
  Alcotest.(check bool) "same outcome" true (rv.Machine.outcome = rs.Machine.outcome);
  Alcotest.(check (list int)) "same outputs" rv.Machine.outputs rs.Machine.outputs;
  Alcotest.(check bool) "mac words counted" true (rs.Machine.stats.Machine.mac_words_fetched > 0);
  Alcotest.(check bool) "blocks counted" true (rs.Machine.stats.Machine.blocks_entered > 0)

let test_fetch_block_classification () =
  let _, image = protect "start:\n  li a0, 2\nloop:\n  addi a0, a0, -1\n  bnez a0, loop\n  halt\n" in
  (* every legitimate edge fetches *)
  let accepted, total = Sofia.Attack.Diversion.legitimate_edges_accepted ~keys ~image in
  check_int "all legitimate edges verify" total accepted

let test_sofia_wrong_key_resets () =
  let _, image = protect "start:\n  nop\n  halt\n" in
  let wrong = Keys.generate ~seed:0xBADL in
  let r = Sofia_runner.run ~keys:wrong image in
  match r.Machine.outcome with
  | Machine.Cpu_reset (Machine.Mac_mismatch _) -> ()
  | o -> Alcotest.fail (Format.asprintf "unexpected %a" Machine.pp_outcome o)

let test_sofia_wrong_nonce_resets () =
  (* replaying a binary under a different claimed version nonce *)
  let _, image = protect "start:\n  nop\n  halt\n" in
  let relabelled = Image.with_nonce_relabelled image ~nonce:((image.Image.nonce + 1) land 0xFF) in
  let r = Sofia_runner.run ~keys relabelled in
  match r.Machine.outcome with
  | Machine.Cpu_reset (Machine.Mac_mismatch _) -> ()
  | o -> Alcotest.fail (Format.asprintf "unexpected %a" Machine.pp_outcome o)

let test_sofia_tamper_resets () =
  let _, image = protect "start:\n  li a0, 1\n  li a0, 2\n  li a0, 3\n  halt\n" in
  let addr = image.Image.text_base + 12 in
  let old = Option.get (Image.fetch image addr) in
  let tampered = Image.with_tampered_word image ~address:addr ~value:(old lxor 0x8000) in
  let r = Sofia_runner.run ~keys tampered in
  match r.Machine.outcome with
  | Machine.Cpu_reset (Machine.Mac_mismatch { block_base }) ->
    check_int "violation localised to the block" image.Image.text_base block_base
  | o -> Alcotest.fail (Format.asprintf "unexpected %a" Machine.pp_outcome o)

(* Forge a block with the real keys but a store in a banned slot: the
   MAC verifies, so the dedicated inst1/inst2 store check must fire
   (paper §III: reset "when a store instruction is detected on inst1 or
   inst2"). *)
let forge_exec_block ~base ~prev_pc ~nonce insns =
  assert (Array.length insns = 6);
  let words = Array.map Encoding.encode insns in
  let m1, m2 = Cbc_mac.split_tag (Cbc_mac.mac_words keys.Keys.k2 words) in
  let plain = Array.append [| m1; m2 |] words in
  Array.mapi
    (fun i w ->
      let prev = if i = 0 then prev_pc else base + (4 * (i - 1)) in
      Ctr.crypt_word keys.Keys.k1 ~nonce ~prev_pc:prev ~pc:(base + (4 * i)) w)
    plain

let splice_forged_block image ~block_index forged =
  Array.to_list forged
  |> List.mapi (fun i w -> (image.Image.text_base + (32 * block_index) + (4 * i), w))
  |> List.fold_left (fun img (address, value) -> Image.with_tampered_word img ~address ~value) image

let test_store_in_banned_slot_resets () =
  let _, image = protect "start:\n  nop\n  halt\n" in
  let forged =
    forge_exec_block ~base:image.Image.text_base ~prev_pc:Block.reset_prev_pc
      ~nonce:image.Image.nonce
      [| Insn.Store (W32, Reg.a 0, Reg.sp, 0); Insn.nop; Insn.nop; Insn.nop; Insn.nop; Insn.Halt 0 |]
  in
  let img = splice_forged_block image ~block_index:0 forged in
  let r = Sofia_runner.run ~keys img in
  match r.Machine.outcome with
  | Machine.Cpu_reset (Machine.Store_in_banned_slot _) -> ()
  | o -> Alcotest.fail (Format.asprintf "unexpected %a" Machine.pp_outcome o)

let test_store_in_slot3_allowed () =
  let _, image = protect "start:\n  nop\n  halt\n" in
  let forged =
    forge_exec_block ~base:image.Image.text_base ~prev_pc:Block.reset_prev_pc
      ~nonce:image.Image.nonce
      [| Insn.nop; Insn.nop; Insn.Store (W32, Reg.zero, Reg.sp, 0); Insn.nop; Insn.nop;
         Insn.Halt 5 |]
  in
  let img = splice_forged_block image ~block_index:0 forged in
  let r = Sofia_runner.run ~keys img in
  match r.Machine.outcome with
  | Machine.Halted 5 -> ()
  | o -> Alcotest.fail (Format.asprintf "unexpected %a" Machine.pp_outcome o)

let test_invalid_opcode_in_verified_block_resets () =
  (* craft a block whose MAC covers a word that is not a valid
     instruction: the decode stage must still refuse it *)
  let _, image = protect "start:\n  nop\n  halt\n" in
  let bad_word = 0xFFFF_FFFF in
  let words = [| bad_word; 0; 0; 0; 0; Encoding.encode (Insn.Halt 0) |] in
  let m1, m2 = Cbc_mac.split_tag (Cbc_mac.mac_words keys.Keys.k2 words) in
  let plain = Array.append [| m1; m2 |] words in
  let base = image.Image.text_base in
  let forged =
    Array.mapi
      (fun i w ->
        let prev = if i = 0 then Block.reset_prev_pc else base + (4 * (i - 1)) in
        Ctr.crypt_word keys.Keys.k1 ~nonce:image.Image.nonce ~prev_pc:prev ~pc:(base + (4 * i)) w)
      plain
  in
  let img = splice_forged_block image ~block_index:0 forged in
  let r = Sofia_runner.run ~keys img in
  match r.Machine.outcome with
  | Machine.Cpu_reset (Machine.Invalid_opcode _) -> ()
  | o -> Alcotest.fail (Format.asprintf "unexpected %a" Machine.pp_outcome o)

let test_sofia_misaligned_entry () =
  let _, image = protect "start:\n  nop\n  halt\n" in
  match
    Sofia_runner.fetch_block ~keys ~image ~target:(image.Image.text_base + 2)
      ~prev_pc:Block.reset_prev_pc
  with
  | Sofia_runner.Fetch_violation (Machine.Misaligned_entry _) -> ()
  | _ -> Alcotest.fail "expected misaligned entry violation"

let test_sofia_fetch_off_image () =
  let _, image = protect "start:\n  nop\n  halt\n" in
  match
    Sofia_runner.fetch_block ~keys ~image ~target:(image.Image.text_base + 0x100000)
      ~prev_pc:Block.reset_prev_pc
  with
  | Sofia_runner.Fetch_violation (Machine.Bus_fault _) -> ()
  | _ -> Alcotest.fail "expected bus fault"

let test_decoupled_frontend_cycles () =
  (* a block of cheap ALU work is fetch-bound: its cost is the fetch
     floor, not 8 pipeline slots *)
  let src = "start:\n  li a0, 1\n  li a1, 2\n  li a2, 3\n  li a3, 4\n  li a4, 5\n  halt\n" in
  let _, image = protect src in
  let r = Sofia_runner.run ~keys image in
  (match r.Machine.outcome with
   | Machine.Halted 0 -> ()
   | o -> Alcotest.fail (Format.asprintf "unexpected %a" Machine.pp_outcome o));
  (* 1 block visit: max(6 alu cycles, floor 4) + miss + initial redirect *)
  let t = Timing.leon3_default in
  check_int "cycle model"
    (6 + t.Timing.icache_miss_penalty + t.Timing.decrypt_redirect_extra)
    r.Machine.stats.Machine.cycles

let suite =
  [
    Alcotest.test_case "memory read/write" `Quick test_memory_rw;
    Alcotest.test_case "memory faults" `Quick test_memory_faults;
    Alcotest.test_case "MMIO output device" `Quick test_mmio;
    Alcotest.test_case "section loading" `Quick test_load_bytes;
    Alcotest.test_case "icache behaviour" `Quick test_icache_behaviour;
    Alcotest.test_case "icache geometry and batched hits" `Quick test_icache_geometry;
    Alcotest.test_case "call linkage" `Quick test_linkage;
    Alcotest.test_case "r0 hardwired to zero" `Quick test_r0_is_zero;
    Alcotest.test_case "branch resolution" `Quick test_branch_resolution;
    Alcotest.test_case "load/store semantics" `Quick test_load_store_semantics;
    Alcotest.test_case "vanilla halt and outputs" `Quick test_vanilla_halt_and_outputs;
    Alcotest.test_case "vanilla argument passing" `Quick test_vanilla_args;
    Alcotest.test_case "vanilla fuel" `Quick test_vanilla_fuel;
    Alcotest.test_case "vanilla invalid opcode" `Quick test_vanilla_invalid_opcode;
    Alcotest.test_case "vanilla PC escape" `Quick test_vanilla_pc_out_of_text;
    Alcotest.test_case "vanilla data bus fault" `Quick test_vanilla_data_bus_fault;
    Alcotest.test_case "load-use stall" `Quick test_load_use_stall_counted;
    Alcotest.test_case "taken-branch penalty" `Quick test_taken_branch_penalty;
    Alcotest.test_case "instruction cost model" `Quick test_insn_cost_model;
    Alcotest.test_case "sofia runs clean program" `Quick test_sofia_runs_clean_program;
    Alcotest.test_case "all legitimate edges verify" `Quick test_fetch_block_classification;
    Alcotest.test_case "wrong keys reset" `Quick test_sofia_wrong_key_resets;
    Alcotest.test_case "wrong nonce resets" `Quick test_sofia_wrong_nonce_resets;
    Alcotest.test_case "tampered word resets" `Quick test_sofia_tamper_resets;
    Alcotest.test_case "store in inst1 resets (Fig. 6)" `Quick test_store_in_banned_slot_resets;
    Alcotest.test_case "store in inst3 allowed" `Quick test_store_in_slot3_allowed;
    Alcotest.test_case "undecodable verified word resets" `Quick
      test_invalid_opcode_in_verified_block_resets;
    Alcotest.test_case "misaligned entry" `Quick test_sofia_misaligned_entry;
    Alcotest.test_case "fetch outside image" `Quick test_sofia_fetch_off_image;
    Alcotest.test_case "decoupled frontend cycle model" `Quick test_decoupled_frontend_cycles;
  ]
