(** SOFIA: Software and Control Flow Integrity Architecture — top-level
    library facade.

    Reproduction of de Clercq et al., DATE 2016. The sub-libraries:

    - {!Isa}, {!Asm}, {!Cfg}: the SLEON-32 instruction set, assembler
      and precise instruction-level CFG;
    - {!Crypto}: RECTANGLE-80, control-flow-dependent CTR encryption,
      CBC-MAC;
    - {!Transform}: the MAC-then-Encrypt binary transformation into
      execution / multiplexor blocks;
    - {!Cpu}: the vanilla and SOFIA-extended 7-stage processor models;
    - {!Attack}: tampering, code-reuse and forgery campaigns;
    - {!Hwmodel}: the Table-I FPGA area / clock model;
    - {!Workloads}: ADPCM and the other benchmark kernels;
    - {!Minic}: the C-like toolchain front-end (source → assembly);
    - {!Service}: the concurrent protection/attestation serving layer
      (job queue, Domain worker pool, content-addressed image store,
      NDJSON wire protocol — [sofia_cli serve]/[batch]);
    - {!Fault}: the seeded fault-injection campaign (typed fault sites
      in the protected code and its control flow, the detection-coverage
      matrix — [sofia_cli campaign]).

    The {!Protect}, {!Run} and {!Report} modules below are the
    high-level API a downstream user starts from; see
    [examples/quickstart.ml]. *)

module Util = Sofia_util
module Obs = Sofia_obs
module Isa = Sofia_isa
module Asm = Sofia_asm
module Cfg = Sofia_cfg
module Crypto = Sofia_crypto
module Transform = Sofia_transform
module Cpu = Sofia_cpu
module Attack = Sofia_attack
module Hwmodel = Sofia_hwmodel
module Workloads = Sofia_workloads
module Minic = Sofia_minic
module Protection = Sofia_protection
module Provision = Provision
module Service = Sofia_service
module Store_fs = Sofia_store_fs
module Fault = Sofia_fault
module Fleet = Sofia_fleet

(** One-stop protection pipeline: assemble → CFG → transform →
    MAC-then-Encrypt. *)
module Protect = struct
  type protected = {
    program : Sofia_asm.Program.t;  (** the plaintext program *)
    image : Sofia_transform.Image.t;  (** the encrypted SOFIA image *)
    keys : Sofia_crypto.Keys.t;
    nonce : int;
  }

  (* [backend] selects the protection scheme (default SOFIA). *)
  let protect_program ?(key_seed = 0x50F1AL) ?(nonce = 1) ?backend program =
    let keys = Sofia_crypto.Keys.generate ~seed:key_seed in
    Result.map
      (fun image -> { program; image; keys; nonce })
      (Sofia_transform.Transform.protect ?backend ~keys ~nonce program)

  (** Assemble a source string and protect it.
      @raise Sofia_asm.Assembler.Error on assembly errors. *)
  let protect_source ?key_seed ?nonce ?backend source =
    protect_program ?key_seed ?nonce ?backend (Sofia_asm.Assembler.assemble source)

  let protect_source_exn ?key_seed ?nonce ?backend source =
    match protect_source ?key_seed ?nonce ?backend source with
    | Ok p -> p
    | Error e -> invalid_arg (Format.asprintf "Sofia.Protect: %a" Sofia_transform.Layout.pp_error e)
end

(** Running programs on the two processor models. [obs] attaches
    {!Sofia_obs} tracing/metrics sinks — purely observational, free
    when absent. *)
module Run = struct
  let vanilla ?config ?args ?obs ?on_finish program =
    Sofia_cpu.Vanilla.run ?config ?args ?obs ?on_finish program

  let sofia ?config ?args ?obs ?on_finish (p : Protect.protected) =
    Sofia_cpu.Sofia_runner.run ?config ?args ?obs ?on_finish ~keys:p.Protect.keys p.Protect.image

  (** Run both models and check that outputs agree (they must, for an
      untampered image). *)
  let both ?config ?args (p : Protect.protected) =
    let v = vanilla ?config ?args p.Protect.program in
    let s = sofia ?config ?args p in
    (v, s)
end

(** Paper-style overhead reporting (§IV-B). *)
module Report = struct
  type overhead = {
    name : string;
    vanilla_cycles : int;
    sofia_cycles : int;
    cycle_overhead_pct : float;
    text_bytes_vanilla : int;
    text_bytes_sofia : int;
    expansion : float;
    clock_ratio : float;
    total_time_overhead_pct : float;
    outputs_ok : bool;
  }

  let overhead_of_workload ?config ?(key_seed = 0xBE7CL) ?(nonce = 1) ?vanilla_obs ?sofia_obs
      ?backend (w : Sofia_workloads.Workload.t) =
    let program = Sofia_workloads.Workload.assemble w in
    let keys = Sofia_crypto.Keys.generate ~seed:key_seed in
    let image = Sofia_transform.Transform.protect_exn ?backend ~keys ~nonce program in
    let rv = Sofia_cpu.Vanilla.run ?config ?obs:vanilla_obs program in
    let rs = Sofia_cpu.Sofia_runner.run ?config ?obs:sofia_obs ~keys image in
    let cycle_ratio =
      float_of_int rs.Sofia_cpu.Machine.stats.Sofia_cpu.Machine.cycles
      /. float_of_int rv.Sofia_cpu.Machine.stats.Sofia_cpu.Machine.cycles
    in
    let clock_ratio = Sofia_hwmodel.Hwmodel.clock_ratio () in
    {
      name = w.Sofia_workloads.Workload.name;
      vanilla_cycles = rv.Sofia_cpu.Machine.stats.Sofia_cpu.Machine.cycles;
      sofia_cycles = rs.Sofia_cpu.Machine.stats.Sofia_cpu.Machine.cycles;
      cycle_overhead_pct = (cycle_ratio -. 1.0) *. 100.0;
      text_bytes_vanilla = Sofia_asm.Program.text_size_bytes program;
      text_bytes_sofia = Sofia_transform.Image.text_size_bytes image;
      expansion = Sofia_transform.Transform.expansion_ratio image;
      clock_ratio;
      total_time_overhead_pct = ((cycle_ratio *. clock_ratio) -. 1.0) *. 100.0;
      outputs_ok =
        rv.Sofia_cpu.Machine.outputs = w.Sofia_workloads.Workload.expected_outputs
        && rs.Sofia_cpu.Machine.outputs = w.Sofia_workloads.Workload.expected_outputs;
    }

  let pp_overhead fmt o =
    Format.fprintf fmt
      "%-16s text %6dB -> %6dB (x%.2f)  cycles %9d -> %9d (%+.1f%%)  total time %+.1f%%%s"
      o.name o.text_bytes_vanilla o.text_bytes_sofia o.expansion o.vanilla_cycles o.sofia_cycles
      o.cycle_overhead_pct o.total_time_overhead_pct
      (if o.outputs_ok then "" else "  [OUTPUT MISMATCH]")
end

(** The serving layer's standard load: the full workload registry as a
    mixed provisioning job list. Per workload, [clients] protect
    requests (a fleet re-requesting the same release image — the store's
    cache-hit case), one independent verification, one release
    attestation and one QA simulation on the SOFIA core. The same list
    drives [sofia_cli batch @registry] and the registry-mix case of
    [test/service_tests.ml]. It holds only one distinct image per
    workload, so it measures store dedup, not compute: serving speed is
    measured by [benchmark/]. *)
module Service_load = struct
  module Job = Sofia_service.Job

  (* [backend] stamps every request explicitly (default: the wire
     default, SOFIA), so the same list is valid against any engine. *)
  let registry_jobs ?(clients = 4) ?backend () =
    List.concat_map
      (fun (w : Sofia_workloads.Workload.t) ->
        let source = w.Sofia_workloads.Workload.source in
        let name = w.Sofia_workloads.Workload.name in
        List.init clients (fun i ->
            Job.make ?backend
              ~id:(Printf.sprintf "protect:%s#%d" name i)
              (Job.Protect { source }))
        @ [
            Job.make ?backend ~id:("verify:" ^ name) (Job.Verify { source });
            Job.make ?backend ~id:("attest:" ^ name) (Job.Attest { source });
            Job.make ?backend ~id:("simulate:" ^ name) (Job.Simulate { source; sofia = true });
          ])
      (Sofia_workloads.Registry.all ())
end

let version = "1.0.0"
