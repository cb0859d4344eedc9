(** Structural FPGA area / timing model — the simulator's stand-in for
    the paper's Virtex-6 synthesis run (Table I).

    The model is a component inventory with per-component LUT/FF
    estimates and a levels-of-logic delay model. Exactly two constants
    are calibrated against Table I's {e vanilla} row (slice-packing
    ratio from 5,889 slices, logic-level delay from 92.3 MHz); the
    SOFIA row is then {e predicted} from the added structure:

    - a 13×-unrolled RECTANGLE-80 datapath shared by the CTR and
      CBC-MAC modes (one round per logic level — a Virtex-6 LUT6
      absorbs the 4-bit S-box together with the round-key XOR),
    - subkey storage for the three device keys,
    - the CBC-MAC chain register and the 64-bit tag comparator,
    - counter assembly (ω ‖ prevPC ‖ PC), block sequencing / next-PC
      logic for multiplexor blocks, fetch-stage NOP substitution, and
      the reset line.

    The clock degradation comes from the unrolled cipher sitting in the
    critical path (paper §III), so the maximum frequency is
    [min(vanilla path, cipher path)] and the cipher path grows linearly
    in the unrolling factor — which also sets the cycles per cipher
    operation (26 / unroll), tying this model to the {!Sofia_cpu.Timing}
    redirect penalty. *)

type resource = { luts : int; ffs : int }

type component = { name : string; res : resource }

type synthesis = {
  slices : int;
  fmax_mhz : float;
  luts : int;
  ffs : int;
  critical_path_ns : float;
}

val vanilla_reference_slices : int
(** 5,889 (Table I). *)

val vanilla_reference_fmax_mhz : float
(** 92.3 (Table I). *)

val sofia_reference_slices : int
(** 7,551 (Table I) — reported for comparison, never used by the
    model. *)

val sofia_reference_fmax_mhz : float
(** 50.1 (Table I). *)

val leon3_components : component list
(** Structural inventory of the minimal LEON3 configuration. *)

val sofia_additions : unroll:int -> component list
(** The SOFIA core's additional logic for a given cipher unrolling
    factor (the prototype uses 13). *)

val scfp_additions : unroll:int -> component list
(** The SCFP sponge backend's additional logic for a given
    ARX-permutation unrolling factor. Notably absent relative to
    {!sofia_additions}: the CBC-MAC chain, the CTR counter assembly,
    the fetch-stage NOP-substitution mux trees and the multiplexor
    next-PC sequencing — the rolling duplex state replaces all of
    them, which is where SCFP's area win comes from. *)

val cipher_rounds_total : int
(** 26 cipher cycles at unroll 1 (paper §III: "the published version of
    this cipher requires 26 cycles"). *)

val cycles_per_cipher_op : unroll:int -> int
(** ⌈26 / unroll⌉ — 2 at the prototype's unroll factor of 13. *)

val synthesize_vanilla : unit -> synthesis

val synthesize_sofia : ?unroll:int -> unit -> synthesis
(** Default unroll 13. *)

val synthesize_scfp : ?unroll:int -> unit -> synthesis
(** Default unroll 6: the permutation takes two cycles per absorbed
    word and the ARX path stays close to the vanilla critical path,
    so the clock degrades far less than under the 13x RECTANGLE. *)

val area_overhead_pct : ?unroll:int -> unit -> float
(** Model prediction of Table I's +28.2 %. *)

val clock_ratio : ?unroll:int -> unit -> float
(** [vanilla fmax / SOFIA fmax] — the execution-time multiplier that
    §IV-B combines with the cycle overhead (92.3 / 50.1 ≈ 1.84; the
    paper words it as "the clock is 84.6 % slower"). *)

val scfp_area_overhead_pct : ?unroll:int -> unit -> float
(** SCFP slices over vanilla, default unroll 6. *)

val sweep_unroll : int list -> (int * synthesis * int) list
(** For each unrolling factor: synthesis result and cycles per cipher
    operation — the area/latency trade-off behind the paper's choice
    of 13. *)
