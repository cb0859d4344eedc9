type resource = { luts : int; ffs : int }

type component = { name : string; res : resource }

type synthesis = {
  slices : int;
  fmax_mhz : float;
  luts : int;
  ffs : int;
  critical_path_ns : float;
}

let vanilla_reference_slices = 5889
let vanilla_reference_fmax_mhz = 92.3
let sofia_reference_slices = 7551
let sofia_reference_fmax_mhz = 50.1

(* Minimal LEON3 configuration on Virtex-6: LUT estimates in line with
   published GRLIB synthesis reports for leon3-minimal (no FPU, no MMU,
   small caches). Only the TOTAL matters for calibration; the breakdown
   documents where the area lives. *)
let leon3_components =
  [
    { name = "integer pipeline control"; res = { luts = 1850; ffs = 900 } };
    { name = "windowed register file"; res = { luts = 620; ffs = 0 } };
    { name = "ALU + shifter"; res = { luts = 950; ffs = 120 } };
    { name = "multiplier"; res = { luts = 1150; ffs = 160 } };
    { name = "divider"; res = { luts = 720; ffs = 110 } };
    { name = "i-cache controller + tags"; res = { luts = 780; ffs = 240 } };
    { name = "d-cache controller + tags"; res = { luts = 880; ffs = 260 } };
    { name = "AHB bus + memory controller"; res = { luts = 1480; ffs = 520 } };
    { name = "peripherals (uart, timers, irq)"; res = { luts = 1180; ffs = 430 } };
    { name = "debug support unit"; res = { luts = 1890; ffs = 610 } };
  ]

let cipher_rounds_total = 26

let cycles_per_cipher_op ~unroll =
  assert (unroll >= 1 && unroll <= cipher_rounds_total);
  (cipher_rounds_total + unroll - 1) / unroll

(* One RECTANGLE round: 16 4-bit S-boxes (4 output bits each; a LUT6
   absorbs the round-key XOR into the same level) + the key XOR LUTs
   that do not merge. ShiftRow is wiring. *)
let round_luts = 128

let sofia_additions ~unroll =
  [
    { name = Printf.sprintf "RECTANGLE datapath (%dx unrolled)" unroll;
      res = { luts = round_luts * unroll; ffs = 128 } };
    { name = "CTR/CBC mode + key input muxes"; res = { luts = 400; ffs = 12 } };
    { name = "subkey storage (3 keys, LUTRAM)"; res = { luts = 234; ffs = 0 } };
    { name = "CBC-MAC chain register + XOR"; res = { luts = 64; ffs = 64 } };
    { name = "64-bit MAC comparator"; res = { luts = 30; ffs = 2 } };
    { name = "counter assembly (nonce, prevPC, PC)"; res = { luts = 60; ffs = 144 } };
    { name = "block sequencer / next-PC logic"; res = { luts = 420; ffs = 96 } };
    { name = "fetch-stage NOP substitution muxes"; res = { luts = 200; ffs = 34 } };
    { name = "violation detect + reset line"; res = { luts = 80; ffs = 18 } };
  ]

(* --- SCFP sponge-CFI additions ---

   The sponge backend replaces most of the SOFIA machinery: the rolling
   duplex state *is* the integrity invariant, so there is no CBC-MAC
   chain, no CTR counter assembly and — because every block is an
   execution block whose two tag words sit at fixed offsets — no
   fetch-stage NOP-substitution mux trees and no multiplexor-path
   next-PC sequencing. What remains is one ARX permutation datapath,
   the 64-bit state register, the patch-word fetch/XOR, the tag
   comparator, and a 1x (iterated) RECTANGLE kept solely for the keyed
   state initialisation at reset — it is off the per-fetch path. *)

(* One ARX round: a 32-bit carry-chain adder, the 32-bit feedback XOR
   (rotations are wiring) and the round-constant XOR folded into the
   adder LUTs where it fits. *)
let arx_round_luts = 80

let scfp_additions ~unroll =
  [
    { name = Printf.sprintf "sponge ARX datapath (%dx unrolled)" unroll;
      res = { luts = arx_round_luts * unroll; ffs = 64 } };
    { name = "64-bit duplex state register + rate XOR"; res = { luts = 96; ffs = 64 } };
    { name = "RECTANGLE (1x, init only) + k2 storage"; res = { luts = round_luts + 78; ffs = 128 } };
    { name = "patch fetch + 64-bit patch XOR"; res = { luts = 112; ffs = 16 } };
    { name = "64-bit tag comparator"; res = { luts = 30; ffs = 2 } };
    { name = "block sequencer / next-PC logic"; res = { luts = 180; ffs = 48 } };
    { name = "violation detect + reset line"; res = { luts = 80; ffs = 18 } };
  ]

let total components =
  List.fold_left
    (fun (l, f) c -> (l + c.res.luts, f + c.res.ffs))
    (0, 0) components

(* --- calibration against the vanilla Table I row --- *)

let vanilla_luts, vanilla_ffs = total leon3_components

(* slices per LUT, from 5,889 slices over the vanilla inventory *)
let slices_per_lut = float_of_int vanilla_reference_slices /. float_of_int vanilla_luts

(* The vanilla critical path (ns) comes straight from 92.3 MHz. *)
let vanilla_path_ns = 1000.0 /. vanilla_reference_fmax_mhz

(* Cipher path: one logic level per unrolled round (LUT + local route,
   dominated by ShiftRow's bit-permutation routing), plus a fixed
   overhead for the counter input mux, the keystream output XOR into
   the fetch path, and register setup. Virtex-6-typical values. *)
let round_delay_ns = 1.25
let cipher_overhead_ns = 3.8

let slices_of_luts luts = int_of_float (Float.round (float_of_int luts *. slices_per_lut))

let synthesize_vanilla () =
  {
    slices = slices_of_luts vanilla_luts;
    fmax_mhz = 1000.0 /. vanilla_path_ns;
    luts = vanilla_luts;
    ffs = vanilla_ffs;
    critical_path_ns = vanilla_path_ns;
  }

let synthesize_sofia ?(unroll = 13) () =
  let add_luts, add_ffs = total (sofia_additions ~unroll) in
  let luts = vanilla_luts + add_luts in
  let cipher_path = (float_of_int unroll *. round_delay_ns) +. cipher_overhead_ns in
  let path = Float.max vanilla_path_ns cipher_path in
  {
    slices = slices_of_luts luts;
    fmax_mhz = 1000.0 /. path;
    luts;
    ffs = vanilla_ffs + add_ffs;
    critical_path_ns = path;
  }

(* ARX path: the 32-bit carry chain dominates each unrolled round;
   fixed overhead covers the absorb-input XOR and register setup. *)
let arx_round_delay_ns = 1.6
let sponge_overhead_ns = 2.5

let synthesize_scfp ?(unroll = 6) () =
  let add_luts, add_ffs = total (scfp_additions ~unroll) in
  let luts = vanilla_luts + add_luts in
  let sponge_path = (float_of_int unroll *. arx_round_delay_ns) +. sponge_overhead_ns in
  let path = Float.max vanilla_path_ns sponge_path in
  {
    slices = slices_of_luts luts;
    fmax_mhz = 1000.0 /. path;
    luts;
    ffs = vanilla_ffs + add_ffs;
    critical_path_ns = path;
  }

let area_overhead_pct ?(unroll = 13) () =
  let v = synthesize_vanilla () and s = synthesize_sofia ~unroll () in
  Sofia_util.Stats.percent_overhead ~baseline:(float_of_int v.slices)
    ~measured:(float_of_int s.slices)

let clock_ratio ?(unroll = 13) () =
  let v = synthesize_vanilla () and s = synthesize_sofia ~unroll () in
  v.fmax_mhz /. s.fmax_mhz

let scfp_area_overhead_pct ?(unroll = 6) () =
  let v = synthesize_vanilla () and s = synthesize_scfp ~unroll () in
  Sofia_util.Stats.percent_overhead ~baseline:(float_of_int v.slices)
    ~measured:(float_of_int s.slices)

let sweep_unroll factors =
  List.map (fun u -> (u, synthesize_sofia ~unroll:u (), cycles_per_cipher_op ~unroll:u)) factors
