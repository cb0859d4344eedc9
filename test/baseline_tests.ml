(* Tests for the shadow-stack CFI baseline core, the transient-fault
   campaigns, and the frontend-model ablation. *)

module Shadow = Sofia.Cpu.Shadow_cfi
module Fault = Sofia.Fault.Campaign
module Scenario = Sofia.Attack.Scenario
module Machine = Sofia.Cpu.Machine
module Timing = Sofia.Cpu.Timing
module Run_config = Sofia.Cpu.Run_config
module Keys = Sofia.Crypto.Keys
module Assembler = Sofia.Asm.Assembler
module Workload = Sofia.Workloads.Workload

let keys = Keys.generate ~seed:0xBA5EL

(* ---------------- shadow-stack baseline ---------------- *)

let test_shadow_runs_clean_programs () =
  List.iter
    (fun (w : Workload.t) ->
      let r = Shadow.run (Workload.assemble w) in
      Alcotest.(check (list int))
        (w.Workload.name ^ " under the baseline")
        w.Workload.expected_outputs r.Machine.outputs)
    [
      Sofia.Workloads.Kernels.fibonacci ~n:30 ();
      Sofia.Workloads.Kernels.dispatch ~commands:32 ();
      Sofia.Workloads.Adpcm.workload ~samples:64 ();
    ]

let test_shadow_catches_corrupted_return () =
  (* program overwrites its own saved return address *)
  let src =
    "start:\n  call f\n  halt\nevil:\n  halt 66\nf:\n  addi sp, sp, -8\n  st ra, 0(sp)\n  la t0, evil\n  st t0, 0(sp)\n  ld ra, 0(sp)\n  addi sp, sp, 8\n  ret\n"
  in
  let r = Shadow.run (Assembler.assemble src) in
  (match r.Machine.outcome with
   | Machine.Cpu_reset (Machine.Shadow_stack_mismatch _) -> ()
   | o -> Alcotest.fail (Format.asprintf "unexpected %a" Machine.pp_outcome o));
  (* the vanilla core happily follows the corrupted return *)
  match (Sofia.Cpu.Vanilla.run (Assembler.assemble src)).Machine.outcome with
  | Machine.Halted 66 -> ()
  | o -> Alcotest.fail (Format.asprintf "vanilla unexpected %a" Machine.pp_outcome o)

let test_shadow_underflow_resets () =
  let r = Shadow.run (Assembler.assemble "start:\n  call f\n  halt\nf:\n  ret\n") in
  (match r.Machine.outcome with
   | Machine.Halted 0 -> ()
   | o -> Alcotest.fail (Format.asprintf "balanced call: %a" Machine.pp_outcome o));
  (* a bare ret with an empty shadow stack *)
  let src = "start:\n  la ra, target\n  jalr zero, ra, 0\ntarget:\n  halt\n" in
  ignore src;
  (* construct underflow via a ret reached without a call: use .targets
     to make the CFG happy is unnecessary here — the shadow runner does
     not use the CFG *)
  let src = "start:\n  la ra, target\n  ret\ntarget:\n  halt\n" in
  match (Shadow.run (Assembler.assemble src)).Machine.outcome with
  | Machine.Cpu_reset (Machine.Shadow_stack_mismatch _) -> ()
  | o -> Alcotest.fail (Format.asprintf "unexpected %a" Machine.pp_outcome o)

let test_shadow_landing_pads () =
  let program =
    Assembler.assemble "start:\n.targets f\n  la t0, f\n  jalr t0\n  halt\nf:\n  ret\n"
  in
  let pads = Shadow.landing_pads program in
  let f_addr = Option.get (Sofia.Asm.Program.symbol program "f") in
  Alcotest.(check bool) "declared target is a pad" true (Hashtbl.mem pads f_addr);
  Alcotest.(check bool) "entry is a pad" true (Hashtbl.mem pads program.Sofia.Asm.Program.entry)

let test_shadow_landing_pad_violation () =
  (* corrupted pointer into the middle of a function *)
  let src =
    "start:\n.targets f\n  la t0, f\n  addi t0, t0, 4\n  jalr t0\n  halt\nf:\n  nop\n  ret\n"
  in
  match (Shadow.run (Assembler.assemble src)).Machine.outcome with
  | Machine.Cpu_reset (Machine.Landing_pad_violation _) -> ()
  | o -> Alcotest.fail (Format.asprintf "unexpected %a" Machine.pp_outcome o)

let test_scenarios_three_way () =
  (* the headline comparison: ROP is caught by both defenses; JOP
     bypasses the coarse baseline but not SOFIA *)
  let rop = Scenario.rop ~keys () in
  Alcotest.(check bool) "rop clean agree" true (Scenario.clean_runs_agree rop);
  Alcotest.(check bool) "rop shadow prevented" true (Scenario.shadow_prevented rop);
  Alcotest.(check bool) "rop sofia prevented" true (Scenario.sofia_prevented rop);
  let jop = Scenario.jop ~keys () in
  Alcotest.(check bool) "jop clean agree" true (Scenario.clean_runs_agree jop);
  Alcotest.(check bool) "jop bypasses the baseline" true (Scenario.shadow_compromised jop);
  Alcotest.(check bool) "jop sofia prevented" true (Scenario.sofia_prevented jop)

(* ---------------- gadget surface ---------------- *)

let test_gadget_surface () =
  let module G = Sofia.Attack.Gadget in
  let w = Sofia.Workloads.Kernels.dispatch ~commands:16 () in
  let program = Workload.assemble w in
  let image = Sofia.Transform.Transform.protect_exn ~keys ~nonce:0x55 program in
  let r = G.analyze ~keys ~program ~image () in
  Alcotest.(check bool) "program has gadgets" true (r.G.total > 0);
  Alcotest.(check int) "vanilla exposes all of them" r.G.total r.G.vanilla_usable;
  Alcotest.(check bool) "baseline leaves a residue" true
    (r.G.shadow_usable > 0 && r.G.shadow_usable < r.G.total);
  Alcotest.(check int) "SOFIA leaves none" 0 r.G.sofia_usable

let test_gadget_scan_shape () =
  let module G = Sofia.Attack.Gadget in
  (* one ret preceded by two plain instructions: suffixes of length
     1..3 and no further (the call above is a barrier) *)
  let program =
    Sofia.Asm.Assembler.assemble
      "start:\n  call f\n  halt\nf:\n  addi a0, a0, 1\n  addi a0, a0, 2\n  ret\n"
  in
  let gadgets = G.scan program in
  Alcotest.(check int) "three suffixes" 3 (List.length gadgets);
  List.iter
    (fun (g : G.gadget) ->
      Alcotest.(check bool) "length bounded" true (g.G.length >= 1 && g.G.length <= 3))
    gadgets

(* ---------------- transient faults ---------------- *)

let fault_image () =
  let w = Sofia.Workloads.Kernels.sieve ~limit:200 () in
  let program = Workload.assemble w in
  Sofia.Transform.Transform.protect_exn ~keys ~nonce:0x33 program

let test_fault_campaign_no_silent_corruption () =
  let image = fault_image () in
  let c = Fault.random_campaign ~keys ~image ~trials:120 ~seed:5L () in
  Alcotest.(check int) "trials" 120 c.Fault.trials;
  Alcotest.(check int) "no silent corruption" 0 c.Fault.corrupted;
  Alcotest.(check int) "no hangs" 0 c.Fault.hung;
  Alcotest.(check bool) "most faults detected" true (c.Fault.detected > c.Fault.trials / 2)

let test_fault_single_injection () =
  let image = fault_image () in
  (* bit 0 of the first fetch hits M1 of the entry block *)
  match Fault.inject_once ~keys ~image ~fetch:1 ~bit:0 () with
  | Fault.Detected -> ()
  | Fault.Masked | Fault.Corrupted | Fault.Hung -> Alcotest.fail "entry-block fault must reset"

let test_fault_is_transient () =
  let image = fault_image () in
  (* a faulted run does not modify the stored image: re-running clean
     after a fault must succeed *)
  ignore (Sofia.Cpu.Sofia_runner.run ~fault:(1, 7) ~keys image);
  match (Sofia.Cpu.Sofia_runner.run ~keys image).Machine.outcome with
  | Machine.Halted _ -> ()
  | o -> Alcotest.fail (Format.asprintf "unexpected %a" Machine.pp_outcome o)

(* ---------------- frontend ablation ---------------- *)

let test_in_order_frontend_costs_more () =
  let w = Sofia.Workloads.Adpcm.workload ~samples:128 () in
  let program = Workload.assemble w in
  let image = Sofia.Transform.Transform.protect_exn ~keys ~nonce:0x44 program in
  let run frontend =
    let timing = { Timing.leon3_default with Timing.frontend } in
    let config = { Run_config.default with Run_config.timing } in
    Sofia.Cpu.Sofia_runner.run ~config ~keys image
  in
  let decoupled = run Timing.Decoupled in
  let in_order = run Timing.In_order in
  Alcotest.(check (list int)) "same outputs" decoupled.Machine.outputs in_order.Machine.outputs;
  Alcotest.(check bool)
    (Printf.sprintf "in-order (%d) slower than decoupled (%d)"
       in_order.Machine.stats.Machine.cycles decoupled.Machine.stats.Machine.cycles)
    true
    (in_order.Machine.stats.Machine.cycles > decoupled.Machine.stats.Machine.cycles)

let suite =
  [
    Alcotest.test_case "baseline runs clean programs" `Quick test_shadow_runs_clean_programs;
    Alcotest.test_case "baseline catches corrupted returns" `Quick
      test_shadow_catches_corrupted_return;
    Alcotest.test_case "baseline shadow underflow" `Quick test_shadow_underflow_resets;
    Alcotest.test_case "landing-pad set" `Quick test_shadow_landing_pads;
    Alcotest.test_case "landing-pad violation" `Quick test_shadow_landing_pad_violation;
    Alcotest.test_case "three-way scenario comparison" `Quick test_scenarios_three_way;
    Alcotest.test_case "gadget surface" `Quick test_gadget_surface;
    Alcotest.test_case "gadget scan shape" `Quick test_gadget_scan_shape;
    Alcotest.test_case "fault campaign: no silent corruption" `Quick
      test_fault_campaign_no_silent_corruption;
    Alcotest.test_case "single fault injection" `Quick test_fault_single_injection;
    Alcotest.test_case "faults are transient" `Quick test_fault_is_transient;
    Alcotest.test_case "in-order frontend ablation" `Quick test_in_order_frontend_costs_more;
  ]
