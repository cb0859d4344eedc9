(* Tests for block geometry, layout and MAC-then-Encrypt. *)

module Block = Sofia.Transform.Block
module Layout = Sofia.Transform.Layout
module Image = Sofia.Transform.Image
module Transform = Sofia.Transform.Transform
module Assembler = Sofia.Asm.Assembler
module Program = Sofia.Asm.Program
module Insn = Sofia.Isa.Insn
module Encoding = Sofia.Isa.Encoding
module Keys = Sofia.Crypto.Keys
module Ctr = Sofia.Crypto.Ctr
module Cbc_mac = Sofia.Crypto.Cbc_mac

let keys = Keys.generate ~seed:0xABCL
let check_int = Alcotest.(check int)

let layout src = Layout.layout_exn (Assembler.assemble src)
let protect ?(nonce = 1) src = Transform.protect_exn ~keys ~nonce (Assembler.assemble src)

let test_geometry () =
  check_int "words" 8 Block.words_per_block;
  check_int "bytes" 32 Block.size_bytes;
  check_int "exec slots" 6 (Block.insn_slots Block.Exec);
  check_int "mux slots" 5 (Block.insn_slots Block.Mux);
  check_int "exec macs" 2 (Block.mac_words Block.Exec);
  check_int "mux macs" 3 (Block.mac_words Block.Mux);
  check_int "exec first insn" 8 (Block.first_insn_offset Block.Exec);
  check_int "mux first insn" 12 (Block.first_insn_offset Block.Mux);
  check_int "exit" 28 Block.exit_offset;
  Alcotest.(check (list int)) "exec ports" [ 0 ] (Block.port_offsets Block.Exec);
  Alcotest.(check (list int)) "mux ports" [ 4; 8 ] (Block.port_offsets Block.Mux);
  Alcotest.(check bool) "exec slot 0 banned" true (Block.store_banned_slot Block.Exec 0);
  Alcotest.(check bool) "exec slot 1 banned" true (Block.store_banned_slot Block.Exec 1);
  Alcotest.(check bool) "exec slot 2 allowed" false (Block.store_banned_slot Block.Exec 2);
  Alcotest.(check bool) "mux unrestricted" false (Block.store_banned_slot Block.Mux 0)

let test_straight_line_layout () =
  let l = layout "nop\nadd a0, a0, a0\nhalt\n" in
  check_int "one block" 1 (Array.length l.Layout.blocks);
  let b = l.Layout.blocks.(0) in
  Alcotest.(check bool) "exec" true (b.Layout.kind = Block.Exec);
  check_int "base aligned" 0 (b.Layout.base mod 32);
  check_int "entry is block base" b.Layout.base l.Layout.entry;
  (* halt is placed in the last slot, pads in between *)
  Alcotest.(check bool) "halt last" true (Insn.equal b.Layout.insns.(5) (Insn.Halt 0));
  Alcotest.(check bool) "pad nops" true (Insn.equal b.Layout.insns.(2) Insn.nop);
  Alcotest.(check (list int)) "reset prev pc" [ Block.reset_prev_pc ] b.Layout.entry_prev_pcs

let test_invariants src =
  let l = layout src in
  Array.iteri
    (fun bi (b : Layout.block) ->
      check_int "aligned" 0 (b.Layout.base mod 32);
      check_int "sequential" (l.Layout.text_base + (32 * bi)) b.Layout.base;
      let n = Array.length b.Layout.insns in
      check_int "slot count" (Block.insn_slots b.Layout.kind) n;
      check_int "entry count"
        (match b.Layout.kind with Block.Exec -> 1 | Block.Mux -> 2)
        (List.length b.Layout.entry_prev_pcs);
      Array.iteri
        (fun i insn ->
          (* control flow only in the last slot *)
          if i < n - 1 then
            Alcotest.(check bool) "no mid-block control flow" false (Insn.is_control_flow insn);
          (* no store in banned slots *)
          if Block.store_banned_slot b.Layout.kind i then
            Alcotest.(check bool) "no banned store" false (Insn.is_store insn))
        b.Layout.insns)
    l.Layout.blocks

let structured_source =
  {|
start:
  li   a0, 5
  call f
  call f
  beqz a0, end
loop:
  st   a0, 0(sp)
  addi a0, a0, -1
  bnez a0, loop
end:
  halt
f:
  addi a0, a0, 3
  ret
|}

let test_structural_invariants () = test_invariants structured_source

let test_single_pred_is_exec_join_is_mux () =
  let l = layout "start:\n  li a0, 2\nloop:\n  addi a0, a0, -1\n  bnez a0, loop\n  halt\n" in
  let muxes =
    Array.to_list l.Layout.blocks |> List.filter (fun b -> b.Layout.kind = Block.Mux)
  in
  check_int "exactly one mux (the loop head)" 1 (List.length muxes)

let test_trampolines_for_many_callers () =
  let src =
    "start:\n  call f\n  call f\n  call f\n  call f\n  halt\nf:\n  ret\n"
  in
  let l = layout src in
  let st = l.Layout.stats in
  (* 4 call edges into f: a tree with 2 trampolines (paper Fig. 9) *)
  check_int "trampolines" 2 st.Layout.trampoline_blocks;
  Alcotest.(check bool) "has mux blocks" true (st.Layout.mux_blocks >= 3);
  test_invariants src

let test_funnel_for_multi_ret () =
  let src = "start:\n  call g\n  halt\ng:\n  beqz a0, g1\n  ret\ng1:\n  ret\n" in
  let l = layout src in
  check_int "one funnel" 1 l.Layout.stats.Layout.funnel_blocks;
  test_invariants src

let test_shim_for_branch_target_return_point () =
  let src =
    "start:\n  li a3, 0\n  call f\nrp:\n  addi a3, a3, 1\n  beqz a3, rp\n  halt\nf:\n  ret\n"
  in
  let l = layout src in
  check_int "one shim" 1 l.Layout.stats.Layout.shim_blocks;
  test_invariants src

let test_bridge_for_fallthrough_to_join () =
  (* the branch falls through to rp, which is also the branch target of
     the loop: fall-through into a mux head needs a bridge or in-slot
     jump *)
  let src =
    "start:\n  li a0, 3\nhead:\n  addi a0, a0, -1\n  beqz a0, out\n  j head\nout:\n  halt\n"
  in
  test_invariants src;
  let l = layout src in
  Alcotest.(check bool) "layout has blocks" true (Array.length l.Layout.blocks >= 2)

let test_addr_of_orig () =
  let src = "start:\n  li a0, 1\n  addi a0, a0, 1\n  halt\n" in
  let p = Assembler.assemble src in
  let l = Layout.layout_exn p in
  Array.iteri
    (fun i addr ->
      if addr >= 0 then begin
        match Layout.block_at l addr with
        | Some b ->
          let slot = (addr - b.Layout.base - Block.first_insn_offset b.Layout.kind) / 4 in
          (match b.Layout.orig_indices.(slot) with
           | Some j -> check_int "slot carries the original" i j
           | None -> Alcotest.fail "slot should carry an original instruction")
        | None -> Alcotest.fail "address outside any block"
      end)
    l.Layout.addr_of_orig

let test_unreachable_dropped () =
  let l = layout "start:\n  j skip\ndead1:\n  nop\n  nop\nskip:\n  halt\n" in
  check_int "dropped" 2 l.Layout.stats.Layout.unreachable_dropped;
  check_int "dead addr is -1" (-1) l.Layout.addr_of_orig.(1)

let test_empty_program_error () =
  match Layout.layout (Assembler.assemble "\n") with
  | Error Layout.Empty_program -> ()
  | Error _ | Ok _ -> Alcotest.fail "expected Empty_program"

let test_code_pointer_errors () =
  (* la of a function never used as an indirect target *)
  let p = Assembler.assemble "start:\n  la a0, f\n  halt\nf:\n  ret\n" in
  (match Layout.layout p with
   | Error (Layout.Code_pointer_unresolved "f") -> ()
   | Error e -> Alcotest.fail (Format.asprintf "wrong error %a" Layout.pp_error e)
   | Ok _ -> Alcotest.fail "expected Code_pointer_unresolved");
  (* two indirect sites targeting the same function: ambiguous pointer *)
  let p2 =
    Assembler.assemble
      "start:\n  la a0, f\n.targets f\n  jalr a0\n.targets f\n  jalr a0\n  halt\nf:\n  ret\n"
  in
  match Layout.layout p2 with
  | Error (Layout.Code_pointer_ambiguous "f") -> ()
  | Error e -> Alcotest.fail (Format.asprintf "wrong error %a" Layout.pp_error e)
  | Ok _ -> Alcotest.fail "expected Code_pointer_ambiguous"

let test_branch_out_of_range_error () =
  (* 2040 words of straight-line filler transform to > 2048 words, so a
     branch across them no longer fits its 12-bit field *)
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "start:\n  beq a0, zero, far\n";
  for _ = 1 to 2040 do
    Buffer.add_string buf "  add a1, a1, a1\n"
  done;
  Buffer.add_string buf "far:\n  halt\n";
  match Layout.layout (Assembler.assemble (Buffer.contents buf)) with
  | Error (Layout.Branch_out_of_range _) -> ()
  | Error e -> Alcotest.fail (Format.asprintf "wrong error %a" Layout.pp_error e)
  | Ok _ -> Alcotest.fail "expected Branch_out_of_range"

(* ---------------- layout corner cases ---------------- *)

let run_both_agree src =
  let program = Assembler.assemble src in
  let image = Transform.protect_exn ~keys ~nonce:0x61 program in
  let v = Sofia.Cpu.Vanilla.run program in
  let s = Sofia.Cpu.Sofia_runner.run ~keys image in
  Alcotest.(check bool) "same outcome" true (v.Sofia.Cpu.Machine.outcome = s.Sofia.Cpu.Machine.outcome);
  Alcotest.(check (list int)) "same outputs" v.Sofia.Cpu.Machine.outputs s.Sofia.Cpu.Machine.outputs

let test_branch_to_next_instruction () =
  (* taken target = fall-through: the degenerate two-edges-to-one-block
     case *)
  test_invariants "start:\n  beq a0, a0, next\nnext:\n  halt\n";
  run_both_agree "start:\n  li a0, 1\n  beq a0, a0, next\nnext:\n  li a1, 0xFFFF0000\n  st a0, 0(a1)\n  halt\n"

let test_entry_is_loop_head () =
  (* the reset edge plus a back edge make the entry block a mux *)
  let src = "start:\n  addi a0, a0, 1\n  li a1, 5\n  blt a0, a1, start\n  halt\n" in
  test_invariants src;
  let l = layout src in
  let first = l.Layout.blocks.(0) in
  Alcotest.(check bool) "entry block is a mux" true (first.Layout.kind = Block.Mux);
  Alcotest.(check bool) "entry is one of its ports" true
    (List.exists (fun off -> l.Layout.entry = first.Layout.base + off) (Block.port_offsets Block.Mux));
  run_both_agree "start:\n  addi a0, a0, 1\n  li a1, 5\n  blt a0, a1, start\n  li a1, 0xFFFF0000\n  st a0, 0(a1)\n  halt\n"

let test_store_leading_block () =
  (* a basic block beginning with stores: the transformer must pad them
     out of the banned slots *)
  let src =
    "start:\n  li a0, 7\n  li a1, 0x10000\n  j w\nw:\n  st a0, 0(a1)\n  st a0, 4(a1)\n  st a0, 8(a1)\n  halt\n"
  in
  test_invariants src;
  run_both_agree src

let test_back_to_back_calls () =
  let src =
    "start:\n  call f\n  call f\n  call f\n  li a1, 0xFFFF0000\n  st a0, 0(a1)\n  halt\nf:\n  addi a0, a0, 5\n  ret\n"
  in
  test_invariants src;
  run_both_agree src

let test_call_chain_deep () =
  (* nested calls: a -> b -> c with work at each level *)
  let src =
    "start:\n  li a0, 1\n  call fa\n  li a1, 0xFFFF0000\n  st a0, 0(a1)\n  halt\n\
     fa:\n  addi sp, sp, -8\n  st ra, 0(sp)\n  addi a0, a0, 10\n  call fb\n  ld ra, 0(sp)\n  addi sp, sp, 8\n  ret\n\
     fb:\n  addi sp, sp, -8\n  st ra, 0(sp)\n  addi a0, a0, 100\n  call fc\n  ld ra, 0(sp)\n  addi sp, sp, 8\n  ret\n\
     fc:\n  addi a0, a0, 1000\n  ret\n"
  in
  test_invariants src;
  run_both_agree src

let test_six_instruction_block_exact_fit () =
  (* exactly six instructions ending in halt: one block, no pads *)
  let l = layout "start:\n  li a0, 1\n  li a1, 2\n  li a2, 3\n  li a3, 4\n  li a4, 5\n  halt\n" in
  Alcotest.(check int) "one block" 1 (Array.length l.Layout.blocks);
  let pads =
    Array.fold_left
      (fun acc o -> match o with None -> acc + 1 | Some _ -> acc)
      0 l.Layout.blocks.(0).Layout.orig_indices
  in
  Alcotest.(check int) "no pads" 0 pads

let test_seven_instruction_block_splits () =
  let l =
    layout "start:\n  li a0, 1\n  li a1, 2\n  li a2, 3\n  li a3, 4\n  li a4, 5\n  li a5, 6\n  halt\n"
  in
  Alcotest.(check int) "two blocks" 2 (Array.length l.Layout.blocks)

let test_entry_classification_offsets () =
  (* frontend classification of the three entry offsets *)
  let program = Assembler.assemble "start:\n  li a0, 2\nloop:\n  addi a0, a0, -1\n  bnez a0, loop\n  halt\n" in
  let image = Transform.protect_exn ~keys ~nonce:0x62 program in
  let mux =
    Array.to_list image.Image.blocks |> List.find (fun b -> b.Image.kind = Block.Mux)
  in
  (* offset 0 of a mux block is not a port: entering there must fail *)
  (match
     Sofia.Cpu.Sofia_runner.fetch_block ~keys ~image ~target:mux.Image.base
       ~prev_pc:(List.nth mux.Image.entry_prev_pcs 0)
   with
   | Sofia.Cpu.Sofia_runner.Fetch_violation _ -> ()
   | Sofia.Cpu.Sofia_runner.Block_ok _ -> Alcotest.fail "mux offset 0 must not verify");
  (* offset 12 is no entry at all *)
  match
    Sofia.Cpu.Sofia_runner.fetch_block ~keys ~image ~target:(mux.Image.base + 12)
      ~prev_pc:(List.nth mux.Image.entry_prev_pcs 0)
  with
  | Sofia.Cpu.Sofia_runner.Fetch_violation _ -> ()
  | Sofia.Cpu.Sofia_runner.Block_ok _ -> Alcotest.fail "mid-block entry must not verify"

(* ---------------- encryption ---------------- *)

let test_mac_then_encrypt_structure () =
  let image = protect structured_source in
  Array.iter
    (fun (b : Image.block) ->
      let insn_words = Array.map Encoding.encode b.Image.insns in
      let mac_key =
        match b.Image.kind with Block.Exec -> keys.Keys.k2 | Block.Mux -> keys.Keys.k3
      in
      Alcotest.(check int64) "stored MAC is the CBC-MAC of the plaintext instructions"
        (Cbc_mac.mac_words mac_key insn_words)
        b.Image.mac;
      let m1, m2 = Cbc_mac.split_tag b.Image.mac in
      check_int "plain word 0 is M1" m1 b.Image.plain_words.(0);
      (match b.Image.kind with
       | Block.Exec -> check_int "plain word 1 is M2" m2 b.Image.plain_words.(1)
       | Block.Mux ->
         check_int "plain word 1 is the M1 copy" m1 b.Image.plain_words.(1);
         check_int "plain word 2 is M2" m2 b.Image.plain_words.(2));
      Array.iteri
        (fun i c ->
          Alcotest.(check bool) "ciphertext differs from plaintext" true
            (c <> b.Image.plain_words.(i)))
        b.Image.cipher_words)
    image.Image.blocks

let test_ctr_chain_matches_spec () =
  let image = protect structured_source in
  let b = image.Image.blocks.(0) in
  (* word 0 decrypts with (reset_prev_pc -> base) *)
  let w0 =
    Ctr.crypt_word keys.Keys.k1 ~nonce:image.Image.nonce ~prev_pc:Block.reset_prev_pc
      ~pc:b.Image.base b.Image.cipher_words.(0)
  in
  check_int "entry word keystream" b.Image.plain_words.(0) w0;
  (* interior word i decrypts with (base+4(i-1) -> base+4i) *)
  for i = 1 to 7 do
    let w =
      Ctr.crypt_word keys.Keys.k1 ~nonce:image.Image.nonce
        ~prev_pc:(b.Image.base + (4 * (i - 1)))
        ~pc:(b.Image.base + (4 * i))
        b.Image.cipher_words.(i)
    in
    check_int "interior keystream" b.Image.plain_words.(i) w
  done

let test_mux_dual_entry_encryption () =
  let image = protect "start:\n  li a0, 2\nloop:\n  addi a0, a0, -1\n  bnez a0, loop\n  halt\n" in
  let mux =
    Array.to_list image.Image.blocks |> List.find (fun b -> b.Image.kind = Block.Mux)
  in
  (match mux.Image.entry_prev_pcs with
   | [ p1; p2 ] ->
     Alcotest.(check bool) "two distinct predecessors" true (p1 <> p2);
     (* M1e1 decrypts with (p1 -> base); M1e2 with (p2 -> base+4) *)
     let d1 =
       Ctr.crypt_word keys.Keys.k1 ~nonce:image.Image.nonce ~prev_pc:p1 ~pc:mux.Image.base
         mux.Image.cipher_words.(0)
     in
     let d2 =
       Ctr.crypt_word keys.Keys.k1 ~nonce:image.Image.nonce ~prev_pc:p2 ~pc:(mux.Image.base + 4)
         mux.Image.cipher_words.(1)
     in
     check_int "entry 1 yields M1" mux.Image.plain_words.(0) d1;
     check_int "entry 2 yields M1" mux.Image.plain_words.(1) d2;
     check_int "both are the same M1" d1 d2
   | _ -> Alcotest.fail "mux must have two entries")

let test_expansion_and_stats () =
  let image = protect structured_source in
  let st = image.Image.stats in
  Alcotest.(check bool) "expansion > 1" true (Transform.expansion_ratio image > 1.0);
  check_int "text bytes" (32 * Array.length image.Image.blocks) (Image.text_size_bytes image);
  check_int "blocks add up"
    (Array.length image.Image.blocks)
    (st.Layout.exec_blocks + st.Layout.mux_blocks)

let test_image_accessors () =
  let image = protect "start:\n  nop\n  halt\n" in
  Alcotest.(check (option int)) "fetch first word" (Some image.Image.cipher.(0))
    (Image.fetch image image.Image.text_base);
  Alcotest.(check (option int)) "fetch out of range" None
    (Image.fetch image (image.Image.text_base + Image.text_size_bytes image));
  let tampered = Image.with_tampered_word image ~address:image.Image.text_base ~value:0 in
  Alcotest.(check (option int)) "tampered word" (Some 0)
    (Image.fetch tampered image.Image.text_base);
  Alcotest.(check (option int)) "original untouched" (Some image.Image.cipher.(0))
    (Image.fetch image image.Image.text_base);
  let relabelled = Image.with_nonce_relabelled image ~nonce:99 in
  check_int "nonce relabelled" 99 relabelled.Image.nonce

let test_nonce_changes_ciphertext () =
  let src = "start:\n  nop\n  halt\n" in
  let a = protect ~nonce:1 src and b = protect ~nonce:2 src in
  Alcotest.(check bool) "different nonce, different ciphertext" true
    (a.Image.cipher <> b.Image.cipher)

(* The per-key work of a protect allocates only the image it builds:
   keystream words come three per cipher pass and MAC chains three per
   pass, and no pass allocates. Minor words are exact for one binary
   and input (4,205 and 28,726 for the 256-sample ADPCM with OCaml
   5.1, where one cipher call per keystream word reads 8,575 and
   33,096, and an S-box returning a tuple 27,455 and 51,976). *)
let test_protect_allocation () =
  let program =
    Sofia.Workloads.Workload.assemble (Sofia.Workloads.Adpcm.workload ~samples:256 ())
  in
  let layout = Layout.layout_exn ~backend:Sofia.Transform.Backend_id.Sofia program in
  let minor_words f =
    ignore (f ());
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. before
  in
  let encrypt =
    minor_words (fun () ->
        Transform.encrypt ~backend:Sofia.Transform.Backend_id.Sofia ~keys ~nonce:6 layout)
  in
  let protect = minor_words (fun () -> Transform.protect_exn ~keys ~nonce:6 program) in
  Printf.printf "encrypt %.0f minor words, protect %.0f\n" encrypt protect;
  Alcotest.(check bool) (Printf.sprintf "encrypt: %.0f minor words <= 4,400" encrypt) true
    (encrypt <= 4_400.0);
  Alcotest.(check bool) (Printf.sprintf "protect: %.0f minor words <= 29,500" protect) true
    (protect <= 29_500.0)

let suite =
  [
    Alcotest.test_case "block geometry" `Quick test_geometry;
    Alcotest.test_case "straight-line layout" `Quick test_straight_line_layout;
    Alcotest.test_case "structural invariants" `Quick test_structural_invariants;
    Alcotest.test_case "exec vs mux heads" `Quick test_single_pred_is_exec_join_is_mux;
    Alcotest.test_case "multiplexor trees (Fig. 9)" `Quick test_trampolines_for_many_callers;
    Alcotest.test_case "return funnel for multi-ret" `Quick test_funnel_for_multi_ret;
    Alcotest.test_case "return shim at branch-target RP" `Quick
      test_shim_for_branch_target_return_point;
    Alcotest.test_case "bridge for fall-through to join" `Quick
      test_bridge_for_fallthrough_to_join;
    Alcotest.test_case "addr_of_orig mapping" `Quick test_addr_of_orig;
    Alcotest.test_case "unreachable code dropped" `Quick test_unreachable_dropped;
    Alcotest.test_case "empty program error" `Quick test_empty_program_error;
    Alcotest.test_case "code-pointer errors" `Quick test_code_pointer_errors;
    Alcotest.test_case "branch range error" `Quick test_branch_out_of_range_error;
    Alcotest.test_case "branch to next instruction" `Quick test_branch_to_next_instruction;
    Alcotest.test_case "entry is a loop head" `Quick test_entry_is_loop_head;
    Alcotest.test_case "store-leading block" `Quick test_store_leading_block;
    Alcotest.test_case "back-to-back calls" `Quick test_back_to_back_calls;
    Alcotest.test_case "deep call chain" `Quick test_call_chain_deep;
    Alcotest.test_case "exact six-instruction fit" `Quick test_six_instruction_block_exact_fit;
    Alcotest.test_case "seven instructions split" `Quick test_seven_instruction_block_splits;
    Alcotest.test_case "entry-offset classification" `Quick test_entry_classification_offsets;
    Alcotest.test_case "MAC-then-Encrypt structure" `Quick test_mac_then_encrypt_structure;
    Alcotest.test_case "CTR chain per Alg. 1" `Quick test_ctr_chain_matches_spec;
    Alcotest.test_case "mux dual-entry encryption (Fig. 8)" `Quick
      test_mux_dual_entry_encryption;
    Alcotest.test_case "expansion and stats" `Quick test_expansion_and_stats;
    Alcotest.test_case "image accessors" `Quick test_image_accessors;
    Alcotest.test_case "nonce affects ciphertext" `Quick test_nonce_changes_ciphertext;
    Alcotest.test_case "encrypt-adpcm and protect-adpcm minor words pinned" `Quick
      test_protect_allocation;
  ]
