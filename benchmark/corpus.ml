(* The programs generated requests draw from: the cross-workload overhead
   suite and the MiniC-compiled workloads, plus shorter parameterised
   runs of the same kernels, so that simulate traffic can choose its run
   lengths by instruction count. *)

module W = Sofia.Workloads.Workload
module Adpcm = Sofia.Workloads.Adpcm
module Kernels = Sofia.Workloads.Kernels
module Compiled = Sofia.Workloads.Compiled

let base () = Sofia.Workloads.Registry.benchmark_suite () @ Compiled.all ()

let variants () =
  [
    Adpcm.workload ~samples:64 ();
    Adpcm.workload ~samples:128 ();
    Adpcm.workload ~samples:256 ();
    Adpcm.workload ~samples:512 ();
    Adpcm.workload ~samples:128 ~variant:Adpcm.Scheduled ();
    Adpcm.workload ~samples:128 ~variant:Adpcm.Branchy ();
    Kernels.crc32 ~bytes:64 ();
    Kernels.crc32 ~bytes:256 ();
    Kernels.fir ~samples:64 ();
    Kernels.fir ~samples:256 ();
    Kernels.matmul ~dim:6 ();
    Kernels.sort ~elements:32 ();
    Kernels.sort ~elements:64 ();
    Kernels.sieve ~limit:500 ();
    Kernels.fibonacci ~n:40 ();
    Kernels.strsearch ~haystack:512 ();
    Kernels.dispatch ~commands:64 ();
    Compiled.sieve ~limit:300 ();
    Compiled.fibonacci_recursive ~n:10 ();
    Compiled.fibonacci_recursive ~n:13 ();
    Compiled.matmul ~dim:6 ();
    Compiled.crc32 ~bytes:64 ();
    Compiled.synthetic ~iterations:4 ();
  ]

(* the key programs are measured under; run lengths do not depend on it *)
let measured_key = Sofia.Crypto.Keys.generate ~seed:0xC0FFEEL

let sofia_insns (w : W.t) =
  let image =
    Sofia.Transform.Transform.protect_exn ~keys:measured_key ~nonce:1 (W.assemble w)
  in
  let r = Sofia.Cpu.Sofia_runner.run ~keys:measured_key image in
  r.Sofia.Cpu.Machine.stats.Sofia.Cpu.Machine.instructions

let protect_pool () = Array.of_list (base ())

(* The [n] programs of [protect_pool] with the shortest sources. *)
let shortest n =
  let p = protect_pool () in
  Array.stable_sort
    (fun (a : W.t) (b : W.t) -> compare (String.length a.W.source) (String.length b.W.source))
    p;
  Array.sub p 0 n

(* Every program of both sets that retires between [min_insns] and
   [max_insns] instructions on the SOFIA core. *)
let sim_pool ~min_insns ~max_insns =
  Array.of_list
    (List.filter
       (fun w ->
         let insns = sofia_insns w in
         insns >= min_insns && insns <= max_insns)
       (base () @ variants ()))
