(* Keystream-cache transparency battery.

   The per-edge keystream cache (Ctr.Cache, enabled via
   Run_config.ks_cache_slots) must be *architecturally invisible*: it
   stores only keystream words — never decrypted plaintext — so every
   run must be bit-identical with the cache on, off, or pathologically
   small, including runs where the fetched ciphertext is tampered or
   transiently faulted. If caching ever changed what a violation looks
   like, it would be a security bug, not a performance knob; these
   tests pin that down for every registry workload and for the
   lib/attack fault and tamper campaigns. *)

module Machine = Sofia.Cpu.Machine
module Memory = Sofia.Cpu.Memory
module Run_config = Sofia.Cpu.Run_config
module Reg = Sofia.Isa.Reg
module Workload = Sofia.Workloads.Workload
module Keys = Sofia.Crypto.Keys
module Fault = Sofia.Fault.Campaign
module Tamper = Sofia.Attack.Tamper
module Obs = Sofia.Obs.Obs
module Metrics = Sofia.Obs.Metrics
module Image = Sofia.Transform.Image

let keys = Keys.generate ~seed:0xCAC4E_2026L
let cache_on ?(slots = 256) () = { Run_config.default with Run_config.ks_cache_slots = Some slots }

type snapshot = {
  result : Machine.run_result;
  stream : (int * Sofia.Isa.Insn.t) list;
  regs : int array;
  mem : bytes;
  ram : Memory.t;  (* the RAM itself, which [on_finish] keeps *)
}

let snapshot ?config image =
  let stream = ref [] and state = ref None in
  let result =
    Sofia.Cpu.Sofia_runner.run ?config
      ~on_retire:(fun ~pc ~insn -> stream := (pc, insn) :: !stream)
      ~on_finish:(fun ~machine ~mem -> state := Some (machine, mem))
      ~keys image
  in
  let machine, mem = Option.get !state in
  {
    result;
    stream = List.rev !stream;
    regs = Array.init 32 (fun r -> Machine.read_reg machine (Reg.of_int r));
    mem = Memory.read_range mem ~addr:0 ~len:(Memory.size_bytes mem);
    ram = mem;
  }

let check_identical name a b =
  Alcotest.(check bool) (name ^ ": the two runs' RAMs are distinct") true (a.ram != b.ram);
  Alcotest.(check bool) (name ^ ": run_result bit-identical") true (a.result = b.result);
  Alcotest.(check bool) (name ^ ": retired streams identical") true (a.stream = b.stream);
  Alcotest.(check bool) (name ^ ": register files identical") true (a.regs = b.regs);
  Alcotest.(check bool) (name ^ ": memories identical") true (Bytes.equal a.mem b.mem)

(* Every registry workload: cache off, a realistic cache, and a 4-slot
   cache (constant evictions) must agree on everything observable. *)
let test_workload_transparency (w : Workload.t) () =
  let name = w.Workload.name in
  let image = Sofia.Transform.Transform.protect_exn ~keys ~nonce:0x51 (Workload.assemble w) in
  let off = snapshot image in
  check_identical (name ^ " [256 slots]") off (snapshot ~config:(cache_on ()) image);
  check_identical (name ^ " [4 slots]") off (snapshot ~config:(cache_on ~slots:4 ()) image)

(* The cache counters must account for the run: with the cache on, the
   metrics report its hits/misses; with it off they stay zero; a
   pathologically small cache evicts. *)
let test_cache_metrics () =
  let w = Option.get (Sofia.Workloads.Registry.by_name "adpcm") in
  let image = Sofia.Transform.Transform.protect_exn ~keys ~nonce:0x51 (Workload.assemble w) in
  let run_with config =
    let metrics = Metrics.create () in
    ignore (Sofia.Cpu.Sofia_runner.run ?config ~obs:(Obs.create ~metrics ()) ~keys image);
    metrics
  in
  let off = run_with None in
  Alcotest.(check int) "cache off: no hits" 0 off.Metrics.ks_cache_hits;
  Alcotest.(check int) "cache off: no misses" 0 off.Metrics.ks_cache_misses;
  Alcotest.(check int) "cache off: no evictions" 0 off.Metrics.ks_cache_evictions;
  let on = run_with (Some (cache_on ())) in
  Alcotest.(check bool) "cache on: misses counted" true (on.Metrics.ks_cache_misses > 0);
  let tiny = run_with (Some (cache_on ~slots:4 ())) in
  Alcotest.(check bool) "tiny cache: evictions counted" true (tiny.Metrics.ks_cache_evictions > 0);
  Alcotest.(check bool) "tiny cache: misses >= realistic misses" true
    (tiny.Metrics.ks_cache_misses >= on.Metrics.ks_cache_misses)

(* Transient fetch faults: the campaign verdict distribution must not
   move by a single trial when the cache is enabled — detection
   semantics are independent of the performance knob. *)
let test_fault_campaign_transparency () =
  let w = Option.get (Sofia.Workloads.Registry.by_name "crc32") in
  let image = Sofia.Transform.Transform.protect_exn ~keys ~nonce:0x51 (Workload.assemble w) in
  let campaign config =
    Fault.random_campaign ?config ~keys ~image ~trials:120 ~seed:0xFA17L ()
  in
  let off = campaign None and on = campaign (Some (cache_on ~slots:8 ())) in
  Alcotest.(check bool) "fault campaigns identical with cache on/off" true (off = on);
  Alcotest.(check int) "no silent corruption (cache on)" 0 on.Fault.corrupted

(* Persistent tampering of encrypted text words: same verdict — same
   violation, or same executed result — with the cache on and off. The
   cache holds keystream, so tampered ciphertext still decrypts to
   garbage and the MAC comparator fires identically. *)
let test_tamper_transparency () =
  let w = Option.get (Sofia.Workloads.Registry.by_name "fir") in
  let image = Sofia.Transform.Transform.protect_exn ~keys ~nonce:0x51 (Workload.assemble w) in
  let words = Image.text_size_bytes image / 4 in
  let rng = Sofia.Util.Prng.create ~seed:0x7A3FL in
  let detected = ref 0 in
  for trial = 1 to 40 do
    let address = image.Image.text_base + (4 * Sofia.Util.Prng.int_below rng words) in
    let value = Int64.to_int (Sofia.Util.Prng.next64 rng) land 0xFFFF_FFFF in
    let off = Tamper.run_tampered_sofia ~keys image ~address ~value in
    let on = Tamper.run_tampered_sofia ~config:(cache_on ~slots:8 ()) ~keys image ~address ~value in
    (match off with Tamper.Detected _ -> incr detected | Tamper.Executed _ -> ());
    if off <> on then Alcotest.failf "trial %d (addr 0x%08x): verdict differs with cache on" trial address
  done;
  Alcotest.(check bool) "tampering is detected" true (!detected > 0)

let suite =
  List.map
    (fun (w : Workload.t) ->
      Alcotest.test_case ("cache-transparent: " ^ w.Workload.name) `Quick
        (test_workload_transparency w))
    (Sofia.Workloads.Registry.benchmark_suite ())
  @ [
      Alcotest.test_case "cache-metrics-accounting" `Quick test_cache_metrics;
      Alcotest.test_case "fault-campaign-cache-invariant" `Quick test_fault_campaign_transparency;
      Alcotest.test_case "tamper-verdict-cache-invariant" `Quick test_tamper_transparency;
    ]
