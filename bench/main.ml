(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation plus the extension studies listed in DESIGN.md.

     dune exec bench/main.exe                  run everything
     dune exec bench/main.exe -- ID ...        run selected experiments
     dune exec bench/main.exe -- --json FILE   also write the machine-readable
                                               report (micro, e2-cycles,
                                               x1-workloads, fault, backends;
                                               bench/bench_report.ml)

   Experiment ids: table1 e1-codesize e2-cycles e3-exectime s1-forgery
   s2-cfi fig1-pipeline fig2-cfi fig3-6-si fig7-8-mux fig9-tree
   x1-workloads x2-unroll x3-attacks x4-frontend x5-faults x6-toolchain
   x7-gadgets backends micro fault *)

module H = Sofia.Hwmodel.Hwmodel
module Machine = Sofia.Cpu.Machine
module Image = Sofia.Transform.Image
module Block = Sofia.Transform.Block
module Layout = Sofia.Transform.Layout
module Transform = Sofia.Transform.Transform
module Keys = Sofia.Crypto.Keys
module Workload = Sofia.Workloads.Workload
module Adpcm = Sofia.Workloads.Adpcm

let keys = Keys.generate ~seed:0xBE9C4L

let section id title =
  Format.printf "@.==============================================================@.";
  Format.printf "%s — %s@." id title;
  Format.printf "==============================================================@."

let pct x = Printf.sprintf "%+.1f%%" x

(* ------------------------------------------------------------------ *)
(* T1: Table I                                                         *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "table1" "hardware comparison of SOFIA and LEON3 (paper Table I)";
  let v = H.synthesize_vanilla () and s = H.synthesize_sofia () in
  Format.printf "Design    %-22s %-22s@." "Slices (model/paper)" "Clock (model/paper)";
  Format.printf "Vanilla   %5d / %-5d          %5.1f / %-5.1f MHz@." v.H.slices
    H.vanilla_reference_slices v.H.fmax_mhz H.vanilla_reference_fmax_mhz;
  Format.printf "SOFIA     %5d / %-5d          %5.1f / %-5.1f MHz@." s.H.slices
    H.sofia_reference_slices s.H.fmax_mhz H.sofia_reference_fmax_mhz;
  Format.printf "@.area overhead: model %s, paper +28.2%%@." (pct (H.area_overhead_pct ()));
  Format.printf "clock ratio:   model %.3fx, paper %.3fx (\"84.6%% slower\")@." (H.clock_ratio ())
    (H.vanilla_reference_fmax_mhz /. H.sofia_reference_fmax_mhz)

(* ------------------------------------------------------------------ *)
(* E1-E3: the ADPCM software benchmark                                 *)
(* ------------------------------------------------------------------ *)

let adpcm_rows () =
  List.map
    (fun (label, variant) ->
      (label, Sofia.Report.overhead_of_workload (Adpcm.workload ~samples:4096 ~variant ())))
    [ ("compiled (default)", Adpcm.Compiled); ("if-converted", Adpcm.Scheduled);
      ("naive branchy", Adpcm.Branchy) ]

let e1_codesize rows =
  section "e1-codesize" "ADPCM text-section growth (paper: 6,976 B -> 16,816 B = x2.41)";
  List.iter
    (fun (label, o) ->
      Format.printf "  %-20s %6d B -> %6d B   x%.2f@." label o.Sofia.Report.text_bytes_vanilla
        o.Sofia.Report.text_bytes_sofia o.Sofia.Report.expansion)
    rows;
  Format.printf "  %-20s %6d B -> %6d B   x2.41@." "paper (SPARC, BCC)" 6976 16816

let e2_cycles rows =
  section "e2-cycles" "ADPCM cycle overhead (paper: 114,188,673 -> 130,840,013 = +13.7%)";
  List.iter
    (fun (label, o) ->
      Format.printf "  %-20s %9d -> %9d cycles   %s@." label o.Sofia.Report.vanilla_cycles
        o.Sofia.Report.sofia_cycles (pct o.Sofia.Report.cycle_overhead_pct))
    rows;
  Format.printf "  %-20s %9d -> %9d cycles   +13.7%%@." "paper" 114188673 130840013;
  Format.printf
    "@.  The paper's compiled SPARC binary sits inside our kernel bracket:@.\
    \  block utilisation (padding per basic block) is the dominant factor,@.\
    \  which is why the paper lists toolchain optimisation as future work.@."

let e3_exectime rows =
  section "e3-exectime" "ADPCM total execution-time overhead (paper: +110%)";
  List.iter
    (fun (label, o) ->
      Format.printf "  %-20s cycles %s x clock %.2fx  =>  total %s@." label
        (pct o.Sofia.Report.cycle_overhead_pct) o.Sofia.Report.clock_ratio
        (pct o.Sofia.Report.total_time_overhead_pct))
    rows;
  Format.printf "  %-20s cycles +13.7%% x clock 1.84x  =>  total +110%%@." "paper"

(* ------------------------------------------------------------------ *)
(* S1/S2: security evaluation                                          *)
(* ------------------------------------------------------------------ *)

let s1_forgery () =
  section "s1-forgery" "SI: online MAC forgery (paper: 46,795 years at 50 MHz)";
  let module F = Sofia.Attack.Forgery in
  let years = F.years_to_forge ~mac_bits:64 ~cycles_per_attempt:8 ~clock_hz:50e6 in
  Format.printf "analytic, 64-bit MAC, 8 cycles/attempt, 50 MHz: %.0f years (paper 46,795)@.@."
    years;
  Format.printf "Monte-Carlo check of the 2^(n-1) law at reduced MAC widths:@.";
  let stats =
    List.map
      (fun bits -> F.monte_carlo ~keys ~mac_bits:bits ~runs:120 ~seed:0x5EC1L)
      [ 6; 8; 10; 12; 14 ]
  in
  List.iter
    (fun (s : F.trial_stats) ->
      Format.printf "  n = %2d bits: mean %10.0f attempts (expected %10.0f)@." s.F.mac_bits
        s.F.mean_attempts
        (F.expected_attempts ~mac_bits:s.F.mac_bits))
    stats;
  Format.printf "  fitted scaling exponent: %.3f (law predicts 1.0)@."
    (F.scaling_exponent stats)

let s2_cfi () =
  section "s2-cfi" "CFI: control-flow attack cost (paper: 93,590 years)";
  let module F = Sofia.Attack.Forgery in
  let years = F.years_to_forge ~mac_bits:64 ~cycles_per_attempt:16 ~clock_hz:50e6 in
  Format.printf
    "diversion (8 cycles) + MAC forgery (8 cycles) per attempt: %.0f years (paper 93,590)@."
    years

(* ------------------------------------------------------------------ *)
(* F1-F9: behavioural reproduction of the figures                      *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  section "fig1-pipeline" "Fig. 1: decrypt -> IF, SI verify, reset line";
  let w = Sofia.Workloads.Kernels.fibonacci ~n:30 () in
  let p = Sofia.Protect.protect_source_exn ~key_seed:1L w.Workload.source in
  let clean = Sofia.Run.sofia p in
  Format.printf "clean image: %a, %d blocks decrypted+verified, %d MAC words handled@."
    Machine.pp_outcome clean.Machine.outcome clean.Machine.stats.Machine.blocks_entered
    clean.Machine.stats.Machine.mac_words_fetched;
  let image = p.Sofia.Protect.image in
  let addr = image.Image.text_base + 8 in
  let old = Option.get (Image.fetch image addr) in
  let t = Image.with_tampered_word image ~address:addr ~value:(old lxor 4) in
  let r = Sofia.Cpu.Sofia_runner.run ~keys:p.Sofia.Protect.keys t in
  Format.printf "tampered image: %a after %d instructions (reset before any output)@."
    Machine.pp_outcome r.Machine.outcome r.Machine.stats.Machine.instructions

let fig2 () =
  section "fig2-cfi" "Fig. 2: valid vs invalid control-flow path decryption";
  (* the paper's 3-node example: 1: mov; 2: jmp 5; 5: mov *)
  let src = "start:\n  mv a0, a1\n  j target\ntarget:\n  mv a1, a2\n  halt\n" in
  let p = Sofia.Protect.protect_source_exn ~key_seed:2L src in
  let image = p.Sofia.Protect.image in
  let dkeys = p.Sofia.Protect.keys in
  (* block 0 holds "mv; j", block 1 holds "target:" *)
  let b0 = image.Image.blocks.(0) and b1 = image.Image.blocks.(1) in
  let valid_prev = b0.Image.base + Block.exit_offset in
  (match
     Sofia.Cpu.Sofia_runner.fetch_block ~keys:dkeys ~image ~target:b1.Image.base
       ~prev_pc:valid_prev
   with
   | Sofia.Cpu.Sofia_runner.Block_ok { insns; _ } ->
     Format.printf "valid edge   (jmp -> target): decrypts + verifies; i1 = %a@."
       Sofia.Isa.Insn.pp insns.(0)
   | Sofia.Cpu.Sofia_runner.Fetch_violation v ->
     Format.printf "valid edge UNEXPECTEDLY rejected: %a@." Machine.pp_violation v);
  (* invalid edge: pretend control came from node 1 (inside block 0) *)
  let invalid_prev = b0.Image.base + 8 in
  (match
     Sofia.Cpu.Sofia_runner.fetch_block ~keys:dkeys ~image ~target:b1.Image.base
       ~prev_pc:invalid_prev
   with
   | Sofia.Cpu.Sofia_runner.Block_ok _ -> Format.printf "invalid edge UNEXPECTEDLY accepted!@."
   | Sofia.Cpu.Sofia_runner.Fetch_violation v ->
     Format.printf "invalid edge (1 -> target):   %a@." Machine.pp_violation v);
  (* show the garbling itself *)
  let ks_ok =
    Sofia.Crypto.Ctr.keystream32 dkeys.Keys.k1 ~nonce:image.Image.nonce ~prev_pc:valid_prev
      ~pc:b1.Image.base
  in
  let ks_bad =
    Sofia.Crypto.Ctr.keystream32 dkeys.Keys.k1 ~nonce:image.Image.nonce ~prev_pc:invalid_prev
      ~pc:b1.Image.base
  in
  let c = b1.Image.cipher_words.(0) in
  Format.printf "stored word 0x%08x: valid-edge decrypt 0x%08x, invalid-edge decrypt 0x%08x@." c
    (c lxor ks_ok) (c lxor ks_bad)

let fig3_6 () =
  section "fig3-6-si" "Figs. 3-6: block MAC verification and the MA-stage store guard";
  let src =
    ".equ OUT, 0xFFFF0000\nstart:\n  li t0, OUT\n  li a0, 1\n  st a0, 0(t0)\n  li a0, 2\n  st a0, 0(t0)\n  halt\n"
  in
  let p = Sofia.Protect.protect_source_exn ~key_seed:3L src in
  let image = p.Sofia.Protect.image in
  let clean = Sofia.Run.sofia p in
  Format.printf "clean run emits %d stores@." (List.length clean.Machine.outputs);
  (* tamper the block containing the second store: no store of that
     block may reach memory *)
  let addr = image.Image.text_base + 32 + 12 in
  let old = Option.get (Image.fetch image addr) in
  let t = Image.with_tampered_word image ~address:addr ~value:(old lxor 2) in
  let r = Sofia.Cpu.Sofia_runner.run ~keys:p.Sofia.Protect.keys t in
  Format.printf "second block tampered: %a, outputs emitted before reset = [%s]@."
    Machine.pp_outcome r.Machine.outcome
    (String.concat ";" (List.map string_of_int r.Machine.outputs));
  (* the transformer itself never places stores in inst1/inst2 *)
  let violations = ref 0 in
  Array.iter
    (fun (b : Image.block) ->
      Array.iteri
        (fun i insn ->
          if Block.store_banned_slot b.Image.kind i && Sofia.Isa.Insn.is_store insn then
            incr violations)
        b.Image.insns)
    image.Image.blocks;
  Format.printf "store-in-inst1/inst2 slots across the image: %d (Fig. 6 restriction)@."
    !violations

let fig7_8 () =
  section "fig7-8-mux" "Figs. 7-8: multiplexor block with two entry points";
  let src = "start:\n  call f\n  call f\n  halt\nf:\n  addi a0, a0, 1\n  ret\n" in
  let p = Sofia.Protect.protect_source_exn ~key_seed:4L src in
  let image = p.Sofia.Protect.image in
  let mux =
    Array.to_list image.Image.blocks |> List.find (fun b -> b.Image.kind = Block.Mux)
  in
  Format.printf "f's entry block at 0x%08x is a multiplexor block@." mux.Image.base;
  Format.printf "  M1e1 = 0x%08x, M1e2 = 0x%08x (two encryptions of the same M1)@."
    mux.Image.cipher_words.(0) mux.Image.cipher_words.(1);
  List.iteri
    (fun i prev ->
      let port = mux.Image.base + List.nth (Block.port_offsets Block.Mux) i in
      match
        Sofia.Cpu.Sofia_runner.fetch_block ~keys:p.Sofia.Protect.keys ~image ~target:port
          ~prev_pc:prev
      with
      | Sofia.Cpu.Sofia_runner.Block_ok _ ->
        Format.printf "  control-flow path %d (prevPC 0x%08x -> port 0x%08x): verifies@." (i + 1)
          prev port
      | Sofia.Cpu.Sofia_runner.Fetch_violation v ->
        Format.printf "  path %d UNEXPECTEDLY fails: %a@." (i + 1) Machine.pp_violation v)
    mux.Image.entry_prev_pcs;
  (* crossing the entries fails *)
  match mux.Image.entry_prev_pcs with
  | [ p1; _ ] ->
    (match
       Sofia.Cpu.Sofia_runner.fetch_block ~keys:p.Sofia.Protect.keys ~image
         ~target:(mux.Image.base + 8) ~prev_pc:p1
     with
     | Sofia.Cpu.Sofia_runner.Fetch_violation v ->
       Format.printf "  caller 1 entering through port 2: %a@." Machine.pp_violation v
     | Sofia.Cpu.Sofia_runner.Block_ok _ -> Format.printf "  port crossing UNEXPECTEDLY ok@.")
  | _ -> ()

let fig9 () =
  section "fig9-tree" "Fig. 9: multiplexor tree for four callers";
  let src =
    "start:\n  call f\n  call f\n  call f\n  call f\n  halt\nf:\n  addi a0, a0, 1\n  ret\n"
  in
  let p = Sofia.Protect.protect_source_exn ~key_seed:5L src in
  let st = p.Sofia.Protect.image.Image.stats in
  Format.printf "4 call sites -> %d trampoline blocks + the callee's multiplexor block@."
    st.Layout.trampoline_blocks;
  Format.printf "blocks: %d exec, %d mux (of which %d trampolines)@." st.Layout.exec_blocks
    st.Layout.mux_blocks st.Layout.trampoline_blocks;
  let accepted, total =
    Sofia.Attack.Diversion.legitimate_edges_accepted ~keys:p.Sofia.Protect.keys
      ~image:p.Sofia.Protect.image
  in
  Format.printf "all %d legitimate edges through the tree verify (%d accepted)@." total accepted;
  let v, s = Sofia.Run.both p in
  Format.printf "program result identical on both cores: %b@."
    (v.Machine.outputs = s.Machine.outputs && v.Machine.outcome = s.Machine.outcome)

(* ------------------------------------------------------------------ *)
(* X1: cross-workload overhead                                         *)
(* ------------------------------------------------------------------ *)

let x1_workloads () =
  section "x1-workloads" "software overhead across the workload suite (extension)";
  let rows =
    List.map
      (fun w -> Sofia.Report.overhead_of_workload w)
      (Sofia.Workloads.Registry.benchmark_suite ())
  in
  List.iter (fun o -> Format.printf "  %a@." Sofia.Report.pp_overhead o) rows;
  let geomean =
    Sofia.Util.Stats.geomean
      (List.map (fun o -> 1.0 +. (o.Sofia.Report.cycle_overhead_pct /. 100.0)) rows)
  in
  Format.printf "@.  geometric-mean cycle ratio: %.2fx@." geomean

(* ------------------------------------------------------------------ *)
(* X2: cipher unrolling ablation                                       *)
(* ------------------------------------------------------------------ *)

let x2_unroll () =
  section "x2-unroll" "cipher unrolling: area vs clock vs ADPCM execution time (ablation)";
  let w = Adpcm.workload ~samples:2048 () in
  let program = Workload.assemble w in
  let image = Transform.protect_exn ~keys ~nonce:3 program in
  let vanilla = Sofia.Cpu.Vanilla.run program in
  let v_time_ms =
    float_of_int vanilla.Machine.stats.Machine.cycles /. H.vanilla_reference_fmax_mhz /. 1000.0
  in
  Format.printf "  vanilla: %d cycles at %.1f MHz = %.2f ms@.@."
    vanilla.Machine.stats.Machine.cycles H.vanilla_reference_fmax_mhz v_time_ms;
  Format.printf "  unroll  slices   fmax   cyc/op  cycles      time     vs vanilla@.";
  List.iter
    (fun u ->
      let syn = H.synthesize_sofia ~unroll:u () in
      let cyc_op = H.cycles_per_cipher_op ~unroll:u in
      (* iterative below the 13x pipelined design point, pipelined at
         and above it *)
      let num, den = if u >= 13 then (2, 1) else (u, 13) in
      let timing =
        {
          Sofia.Cpu.Timing.leon3_default with
          Sofia.Cpu.Timing.decrypt_redirect_extra = cyc_op;
          fetch_words_num = num;
          fetch_words_den = den;
        }
      in
      let config = { Sofia.Cpu.Run_config.default with Sofia.Cpu.Run_config.timing } in
      let r = Sofia.Cpu.Sofia_runner.run ~config ~keys image in
      let time_ms = float_of_int r.Machine.stats.Machine.cycles /. syn.H.fmax_mhz /. 1000.0 in
      Format.printf "  %5d   %5d   %5.1f  %5d   %9d   %6.2f ms   %.2fx%s@." u syn.H.slices
        syn.H.fmax_mhz cyc_op r.Machine.stats.Machine.cycles time_ms (time_ms /. v_time_ms)
        (if u = 13 then "  <- paper's design point" else ""))
    [ 1; 2; 4; 8; 13; 26 ]

(* ------------------------------------------------------------------ *)
(* X3: attack campaigns                                                *)
(* ------------------------------------------------------------------ *)

let x3_attacks () =
  section "x3-attacks" "attack-detection campaigns vs baselines (extension)";
  let module T = Sofia.Attack.Tamper in
  let module D = Sofia.Attack.Diversion in
  let module S = Sofia.Attack.Scenario in
  let w = Sofia.Workloads.Kernels.dispatch ~commands:64 () in
  let program = Workload.assemble w in
  let image = Transform.protect_exn ~keys ~nonce:4 program in
  let sofia, vanilla = T.random_word_campaign ~keys ~program ~image ~trials:150 ~seed:7L () in
  Format.printf "code injection (150 random word overwrites, hot workload):@.";
  Format.printf "  SOFIA:   %d detected, %d in never-fetched code, 0 executed@." sofia.T.detected
    sofia.T.executed_same_output;
  Format.printf
    "  vanilla: %d executed then crashed, %d corrupted the output, %d survived by luck@."
    vanilla.T.detected vanilla.T.executed_with_changed_output vanilla.T.executed_same_output;
  let sb, _ = T.random_bitflip_campaign ~keys ~program ~image ~trials:150 ~seed:8L () in
  Format.printf "single bit flips: SOFIA detected %d/%d (rest never fetched)@." sb.T.detected
    sb.T.trials;
  let c = D.random_campaign ~keys ~program ~image ~trials:400 ~seed:9L in
  Format.printf "@.control-flow diversion (%d off-CFG edges):@." c.D.trials;
  Format.printf "  vanilla accepts %d, coarse label-CFI accepts %d, SOFIA accepts %d@."
    c.D.vanilla_accepted c.D.coarse_accepted c.D.sofia_accepted;
  let rop = S.rop ~keys () and jop = S.jop ~keys () in
  Format.printf "@.end-to-end exploits (three cores):@.";
  List.iter
    (fun t ->
      Format.printf "  %-22s vanilla %s | shadow-stack CFI %s | SOFIA %s@." t.S.name
        (if S.vanilla_compromised t then "COMPROMISED" else "survived")
        (if S.shadow_compromised t then "COMPROMISED"
         else if S.shadow_prevented t then "prevented" else "survived")
        (if S.sofia_prevented t then "prevented" else "COMPROMISED"))
    [ rop; jop ];
  Format.printf
    "  (ROP is caught by the shadow-stack baseline too; JOP bypasses its coarse@.\
    \   landing pads but not SOFIA's instruction-level edges)@."

(* ------------------------------------------------------------------ *)
(* X4: frontend model ablation                                         *)
(* ------------------------------------------------------------------ *)

let x4_frontend () =
  section "x4-frontend" "frontend timing-model ablation: decoupled vs strict in-order";
  let w = Adpcm.workload ~samples:2048 () in
  let program = Workload.assemble w in
  let image = Transform.protect_exn ~keys ~nonce:5 program in
  let vanilla = Sofia.Cpu.Vanilla.run program in
  Format.printf "  vanilla: %d cycles@." vanilla.Machine.stats.Machine.cycles;
  List.iter
    (fun (label, frontend) ->
      let timing = { Sofia.Cpu.Timing.leon3_default with Sofia.Cpu.Timing.frontend } in
      let config = { Sofia.Cpu.Run_config.default with Sofia.Cpu.Run_config.timing } in
      let r = Sofia.Cpu.Sofia_runner.run ~config ~keys image in
      Format.printf "  %-22s %9d cycles  (%+.1f%% vs vanilla)@." label
        r.Machine.stats.Machine.cycles
        ((float_of_int r.Machine.stats.Machine.cycles
          /. float_of_int vanilla.Machine.stats.Machine.cycles
          -. 1.0)
         *. 100.0))
    [ ("decoupled (default)", Sofia.Cpu.Timing.Decoupled);
      ("strict in-order", Sofia.Cpu.Timing.In_order) ];
  Format.printf
    "  The strict model charges every MAC/pad word a pipeline slot; the paper's@.\
    \   own +13.7%% is only consistent with substantial overlap (see EXPERIMENTS.md).@."

(* ------------------------------------------------------------------ *)
(* X5: transient fault injection (paper future work)                  *)
(* ------------------------------------------------------------------ *)

let x5_faults () =
  section "x5-faults" "transient fetch-path fault injection (paper's stated future work)";
  let module F = Sofia.Fault.Campaign in
  List.iter
    (fun (label, w) ->
      let program = Workload.assemble w in
      let image = Transform.protect_exn ~keys ~nonce:6 program in
      let c = F.random_campaign ~keys ~image ~trials:150 ~seed:0xFA17L () in
      Format.printf "  %-10s %3d faults: %3d detected, %2d masked, %d corrupted, %d hung@." label
        c.F.trials c.F.detected c.F.masked c.F.corrupted c.F.hung)
    [ ("sieve", Sofia.Workloads.Kernels.sieve ~limit:300 ());
      ("dispatch", Sofia.Workloads.Kernels.dispatch ~commands:32 ());
      ("adpcm", Adpcm.workload ~samples:64 ()) ];
  Format.printf
    "  masked = the flipped bit sat in the multiplexor word the taken path skips@.\
    \   (never consumed); corrupted = silent failure, which must stay 0.@." 

(* ------------------------------------------------------------------ *)
(* X7: gadget-surface analysis                                         *)
(* ------------------------------------------------------------------ *)

let x7_gadgets () =
  section "x7-gadgets" "code-reuse gadget surface under the three cores (extension)";
  let module G = Sofia.Attack.Gadget in
  Format.printf "  %-14s %8s %10s %14s %8s@." "program" "gadgets" "vanilla" "shadow-CFI" "SOFIA";
  List.iter
    (fun (name, source) ->
      let program = Sofia.Asm.Assembler.assemble source in
      let image = Transform.protect_exn ~keys ~nonce:7 program in
      let r = G.analyze ~keys ~program ~image () in
      Format.printf "  %-14s %8d %10d %14d %8d@." name r.G.total r.G.vanilla_usable
        r.G.shadow_usable r.G.sofia_usable)
    [ ("dispatch", (Sofia.Workloads.Kernels.dispatch ~commands:16 ()).Workload.source);
      ("rop-victim", Sofia.Attack.Scenario.rop_source);
      ("jop-victim", Sofia.Attack.Scenario.jop_source);
      ("fib-rec (C)", (Sofia.Workloads.Compiled.fibonacci_recursive ~n:10 ()).Workload.source);
      ("controller (C)",
       Result.get_ok
         (Sofia.Minic.Compile.to_assembly
            "int f(int a, int b) { return a * b + 3; }\nint g(int x) { return f(x, x) - 1; }\nint main() { out(g(7)); return 0; }")) ];
  Format.printf
    "@.  shadow-CFI leaves the landing-pad gadgets usable (the coarse-CFI residue@.\
    \   the S&P/USENIX attacks cited in the paper's intro exploit); SOFIA's@.\
    \   keystream binding leaves none, checked against every block exit.@."

(* ------------------------------------------------------------------ *)
(* X6: compiled vs hand-written code under SOFIA                       *)
(* ------------------------------------------------------------------ *)

let x6_toolchain () =
  section "x6-toolchain" "MiniC-compiled vs hand-written kernels under SOFIA (extension)";
  let pairs =
    [ ("sieve", Sofia.Workloads.Kernels.sieve (), Sofia.Workloads.Compiled.sieve ());
      ("matmul", Sofia.Workloads.Kernels.matmul (), Sofia.Workloads.Compiled.matmul ());
      ("crc32", Sofia.Workloads.Kernels.crc32 (), Sofia.Workloads.Compiled.crc32 ()) ]
  in
  Format.printf "  %-8s %28s %28s@." "" "hand-written asm" "MiniC-compiled";
  List.iter
    (fun (name, hand, compiled) ->
      let oh = Sofia.Report.overhead_of_workload hand in
      let oc = Sofia.Report.overhead_of_workload compiled in
      Format.printf "  %-8s  text x%.2f cycles %+6.1f%%        text x%.2f cycles %+6.1f%%@." name
        oh.Sofia.Report.expansion oh.Sofia.Report.cycle_overhead_pct oc.Sofia.Report.expansion
        oc.Sofia.Report.cycle_overhead_pct)
    pairs;
  List.iter
    (fun (name, note, w) ->
      let oc = Sofia.Report.overhead_of_workload w in
      Format.printf "  %-8s  %28s  text x%.2f cycles %+6.1f%%@." name note
        oc.Sofia.Report.expansion oc.Sofia.Report.cycle_overhead_pct)
    [ ("fib-rec", "(call-heavy, no asm twin)", Sofia.Workloads.Compiled.fibonacci_recursive ());
      ("synth", "(Dhrystone-style mix)", Sofia.Workloads.Compiled.synthetic ()) ];
  Format.printf
    "@.  Compiled code spends more instructions per branch (frame and stack@.\
    \   traffic), so SOFIA's per-block padding amortises better — the same@.\
    \   utilisation effect as the ADPCM kernel variants in E2.@."

(* ------------------------------------------------------------------ *)
(* backends: the protection-backend comparison (PR 8)                  *)
(* ------------------------------------------------------------------ *)

let backends_exp () =
  section "backends"
    "protection backends: detection coverage / cycle overhead / area per workload";
  let rows = Sofia_benchlib.Bench_backend.rows () in
  Format.printf "%a" Sofia_benchlib.Bench_backend.pp rows

(* ------------------------------------------------------------------ *)
(* micro: Bechamel microbenchmarks (X4)                                *)
(* ------------------------------------------------------------------ *)

let micro () =
  section "micro" "microbenchmarks of the implementation itself (Bechamel)";
  List.iter
    (fun (name, est) -> Format.printf "  %-34s %14.1f ns/run@." name est)
    (Sofia_benchlib.Bench_micro.rows ())

(* ------------------------------------------------------------------ *)
(* fault: the lib/fault campaign (the paper's fault matrix)           *)
(* ------------------------------------------------------------------ *)

let fault () =
  section "fault" "fault-injection campaign: the fault matrix (detection coverage, latency)";
  Format.printf "%a" Sofia.Fault.Campaign.pp
    (Sofia.Fault.Campaign.run ~backends:Sofia.Transform.Backend_id.all
       ~trials:Sofia_benchlib.Bench_report.fault_trials
       ~seed:Sofia_benchlib.Bench_report.fault_seed ())

(* ------------------------------------------------------------------ *)
(* --json: machine-readable benchmark report (bench/bench_report.ml)   *)
(* ------------------------------------------------------------------ *)

let write_json path =
  section "json" (Printf.sprintf "machine-readable benchmark report -> %s" path);
  let report = Sofia_benchlib.Bench_report.build () in
  let oc = open_out path in
  Sofia.Obs.Json.output oc report;
  output_char oc '\n';
  close_out oc;
  Format.printf "  wrote %s@." path

(* ------------------------------------------------------------------ *)

let all_experiments =
  [
    ("table1", table1);
    ("e1-codesize", fun () -> e1_codesize (adpcm_rows ()));
    ("e2-cycles", fun () -> e2_cycles (adpcm_rows ()));
    ("e3-exectime", fun () -> e3_exectime (adpcm_rows ()));
    ("s1-forgery", s1_forgery);
    ("s2-cfi", s2_cfi);
    ("fig1-pipeline", fig1);
    ("fig2-cfi", fig2);
    ("fig3-6-si", fig3_6);
    ("fig7-8-mux", fig7_8);
    ("fig9-tree", fig9);
    ("x1-workloads", x1_workloads);
    ("x2-unroll", x2_unroll);
    ("x3-attacks", x3_attacks);
    ("x4-frontend", x4_frontend);
    ("x5-faults", x5_faults);
    ("x6-toolchain", x6_toolchain);
    ("x7-gadgets", x7_gadgets);
    ("backends", backends_exp);
    ("micro", micro);
    ("fault", fault);
  ]

let () =
  let rec parse ids json = function
    | [] -> (List.rev ids, json)
    | "--json" :: file :: rest -> parse ids (Some file) rest
    | [ "--json" ] ->
      Format.eprintf "--json requires a file argument@.";
      exit 1
    | id :: rest -> parse (id :: ids) json rest
  in
  let args, json_path = parse [] None (Array.to_list Sys.argv |> List.tl) in
  (* with --json, ids covered by the report are not re-run on the
     console — the report run already prints a summary line for each *)
  let args =
    match json_path with
    | None -> args
    | Some _ -> List.filter
        (fun id -> not (List.mem_assoc id Sofia_benchlib.Bench_report.experiments))
        args
  in
  (match args with
  | [] when json_path <> None -> ()
  | [] ->
    (* compute the ADPCM rows once and share them across E1-E3 *)
    let rows = adpcm_rows () in
    table1 ();
    e1_codesize rows;
    e2_cycles rows;
    e3_exectime rows;
    List.iter
      (fun (id, f) ->
        match id with
        | "table1" | "e1-codesize" | "e2-cycles" | "e3-exectime" -> ()
        | _ -> f ())
      all_experiments
  | ids ->
    List.iter
      (fun id ->
        match List.assoc_opt id all_experiments with
        | Some f -> f ()
        | None ->
          Format.eprintf "unknown experiment %S; known: %s@." id
            (String.concat " " (List.map fst all_experiments));
          exit 1)
      ids);
  match json_path with None -> () | Some path -> write_json path
