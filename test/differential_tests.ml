(* SOFIA-vs-vanilla differential battery.

   The architecture's contract is that protection is semantically
   invisible: for every workload the SOFIA core must do the same
   computation as the stock core, not merely print the same outputs.
   Each workload in the registry is run on both models and compared on
   four axes:

   - the retired-instruction streams, normalised down to the source
     instructions (transformation glue dropped, retargeted offsets
     blanked via [Verify.semantic_shape]) — same source instructions,
     in the same order;
   - the final register file, modulo code pointers (text addresses
     differ between the two layouts by design);
   - the final data memory, word-for-word, excluding the stack (frames
     hold return addresses, which are code pointers) and the patched
     code-pointer words the assembler declared in [data_word_relocs];
   - outcome, outputs and output text, against the workload's OCaml
     reference.

   A final pass re-runs the SOFIA core with tracing and metrics
   attached and asserts the run_result is bit-identical — the
   observability layer must be purely observational. *)

module Machine = Sofia.Cpu.Machine
module Memory = Sofia.Cpu.Memory
module Image = Sofia.Transform.Image
module Block = Sofia.Transform.Block
module Verify = Sofia.Transform.Verify
module Insn = Sofia.Isa.Insn
module Reg = Sofia.Isa.Reg
module Program = Sofia.Asm.Program
module Workload = Sofia.Workloads.Workload
module Keys = Sofia.Crypto.Keys
module Obs = Sofia.Obs.Obs
module Trace = Sofia.Obs.Trace
module Metrics = Sofia.Obs.Metrics

let keys = Keys.generate ~seed:0xD1FF_2026L

(* The top of RAM is the stack; workloads here never grow it past a
   few KiB, so excluding the top 64 KiB from the memory comparison
   removes every frame (and the differing return addresses they hold)
   with a wide margin. *)
let stack_reserve = 64 * 1024

(* Glue the transformation may insert, remove or reshape: NOPs (block
   padding, MAC-slot substitution) and rd=zero unconditional transfers
   (block chaining, trampolines, funnelled returns). Dropping them from
   *both* streams keeps the remaining entries aligned: an original
   [j]/[ret] disappears from the vanilla stream exactly when its
   replacement disappears from the SOFIA stream. *)
let is_glue (i : Insn.t) =
  Insn.equal i Insn.nop
  || (match i with
     | Insn.Jal (rd, _) | Insn.Jalr (rd, _, _) -> Reg.equal rd Reg.zero
     | _ -> false)

let orig_index_of_addr (image : Image.t) =
  let tbl = Hashtbl.create 1024 in
  Array.iter
    (fun (b : Image.block) ->
      let first = Block.first_insn_offset b.Image.kind in
      Array.iteri
        (fun s -> function
          | Some i -> Hashtbl.replace tbl (b.Image.base + first + (4 * s)) i
          | None -> ())
        b.Image.orig_indices)
    image.Image.blocks;
  tbl

let normalize_vanilla program stream =
  List.filter_map
    (fun (pc, insn) ->
      if is_glue insn then None
      else
        match Program.index_of_address program pc with
        | Some i -> Some (i, Verify.semantic_shape insn)
        | None -> Alcotest.failf "vanilla retired pc 0x%08x outside the text section" pc)
    stream

let normalize_sofia tbl stream =
  List.filter_map
    (fun (pc, insn) ->
      if is_glue insn then None
      else
        match Hashtbl.find_opt tbl pc with
        | Some i -> Some (i, Verify.semantic_shape insn)
        | None ->
          Alcotest.failf "SOFIA retired non-glue %s at 0x%08x carrying no source index"
            (Insn.to_string insn) pc)
    stream

let check_streams name va sa =
  let nv = List.length va and ns = List.length sa in
  if nv <> ns then
    Alcotest.failf "%s: normalised stream lengths differ: vanilla %d, SOFIA %d" name nv ns;
  List.iteri
    (fun pos ((vi, vshape), (si, sshape)) ->
      if vi <> si || not (Insn.equal vshape sshape) then
        Alcotest.failf "%s: streams diverge at position %d: vanilla #%d %s, SOFIA #%d %s" name pos
          vi (Insn.to_string vshape) si (Insn.to_string sshape))
    (List.combine va sa)

let check_registers name program (image : Image.t) vm sm =
  let in_text (lo, hi) v = v >= lo && v < hi && v land 3 = 0 in
  let vrange = (program.Program.text_base, program.Program.text_base + Program.text_size_bytes program) in
  let srange = (image.Image.text_base, image.Image.text_base + Image.text_size_bytes image) in
  for r = 0 to 31 do
    let reg = Reg.of_int r in
    let vv = Machine.read_reg vm reg and sv = Machine.read_reg sm reg in
    (* code pointers legitimately differ: the two layouts place the
       same instruction at different addresses *)
    if vv <> sv && not (in_text vrange vv && in_text srange sv) then
      Alcotest.failf "%s: register %s differs: vanilla 0x%08x, SOFIA 0x%08x" name (Reg.name reg)
        vv sv
  done

let check_memory name (program : Program.t) vmem smem =
  Alcotest.(check int)
    (name ^ ": RAM sizes")
    (Memory.size_bytes vmem) (Memory.size_bytes smem);
  let lo = program.Program.data_base in
  let len = Memory.size_bytes vmem - stack_reserve - lo in
  let bv = Memory.read_range vmem ~addr:lo ~len in
  let bs = Memory.read_range smem ~addr:lo ~len in
  (* .word textsym entries are patched to image addresses by the
     transformation — exclude those words, they are code pointers *)
  let reloc_byte i =
    List.exists (fun (off, _) -> i >= off && i < off + 4) program.Program.data_word_relocs
  in
  for i = 0 to len - 1 do
    if Bytes.get bv i <> Bytes.get bs i && not (reloc_byte i) then
      Alcotest.failf "%s: data memory differs at 0x%08x: vanilla %02x, SOFIA %02x" name (lo + i)
        (Char.code (Bytes.get bv i))
        (Char.code (Bytes.get bs i))
  done

let outcome_t = Alcotest.testable Machine.pp_outcome ( = )

let check_obs_invariance name image (plain : Machine.run_result) =
  let trace = Trace.create ~capacity:512 () in
  let metrics = Metrics.create () in
  let obs = Obs.create ~trace ~metrics () in
  let traced = Sofia.Cpu.Sofia_runner.run ~obs ~keys image in
  Alcotest.(check bool) (name ^ ": run_result identical under tracing") true (plain = traced);
  Alcotest.(check int)
    (name ^ ": metric retires = architectural instructions")
    traced.Machine.stats.Machine.instructions metrics.Metrics.retires;
  Alcotest.(check int)
    (name ^ ": metric blocks = architectural blocks")
    traced.Machine.stats.Machine.blocks_entered metrics.Metrics.blocks_entered;
  Alcotest.(check int)
    (name ^ ": metric icache misses = architectural")
    traced.Machine.stats.Machine.icache_misses metrics.Metrics.icache_misses;
  Alcotest.(check int) (name ^ ": no MAC failures on a clean image") 0 metrics.Metrics.mac_failures;
  Alcotest.(check bool) (name ^ ": trace captured events") true (Trace.total trace > 0)

let test_workload (w : Workload.t) () =
  let name = w.Workload.name in
  let program = Workload.assemble w in
  let image = Sofia.Transform.Transform.protect_exn ~keys ~nonce:0x2A program in
  let v_stream = ref [] and s_stream = ref [] in
  let v_state = ref None and s_state = ref None in
  let rv =
    Sofia.Cpu.Vanilla.run
      ~on_retire:(fun ~pc ~insn -> v_stream := (pc, insn) :: !v_stream)
      ~on_finish:(fun ~machine ~mem -> v_state := Some (machine, mem))
      program
  in
  let rs =
    Sofia.Cpu.Sofia_runner.run
      ~on_retire:(fun ~pc ~insn -> s_stream := (pc, insn) :: !s_stream)
      ~on_finish:(fun ~machine ~mem -> s_state := Some (machine, mem))
      ~keys image
  in
  (* outputs and outcome, against each other and the OCaml reference *)
  Alcotest.check outcome_t (name ^ ": same outcome") rv.Machine.outcome rs.Machine.outcome;
  Alcotest.(check (list int))
    (name ^ ": vanilla outputs = reference")
    w.Workload.expected_outputs rv.Machine.outputs;
  Alcotest.(check (list int))
    (name ^ ": SOFIA outputs = reference")
    w.Workload.expected_outputs rs.Machine.outputs;
  Alcotest.(check string)
    (name ^ ": same output text")
    rv.Machine.output_text rs.Machine.output_text;
  (* the retired-instruction streams carry the same source computation *)
  let tbl = orig_index_of_addr image in
  check_streams name
    (normalize_vanilla program (List.rev !v_stream))
    (normalize_sofia tbl (List.rev !s_stream));
  (* final architectural state *)
  let vm, vmem = Option.get !v_state and sm, smem = Option.get !s_state in
  (* a RAM that [on_finish] saw never goes back to the pool *)
  Alcotest.(check bool) (name ^ ": the two runs' RAMs are distinct") true (vmem != smem);
  check_registers name program image vm sm;
  check_memory name program vmem smem;
  (* observability is free: re-run traced, require a bit-identical result *)
  check_obs_invariance name image rs

let suite =
  List.map
    (fun (w : Workload.t) ->
      Alcotest.test_case ("sofia=vanilla: " ^ w.Workload.name) `Quick (test_workload w))
    (Sofia.Workloads.Registry.benchmark_suite ())
