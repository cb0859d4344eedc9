(* Fast-vs-ref execution-engine differential battery.

   PR 5's verified-block engine claims *exact* equivalence with the
   reference interpreter: same architectural results, same retired
   stream, same trace events, same counters (modulo its own
   engine_hits / engine_misses / engine_invalidations), violations at
   the same instruction index, and byte-identical fault-campaign
   reports. Unlike the SOFIA-vs-vanilla battery, nothing here is
   normalised: both engines run the *same* image, so every pc, every
   register, every byte of RAM — stack included — must match
   bit-for-bit. *)

module Machine = Sofia.Cpu.Machine
module Memory = Sofia.Cpu.Memory
module Run_config = Sofia.Cpu.Run_config
module Image = Sofia.Transform.Image
module Block = Sofia.Transform.Block
module Insn = Sofia.Isa.Insn
module Reg = Sofia.Isa.Reg
module Workload = Sofia.Workloads.Workload
module Keys = Sofia.Crypto.Keys
module Obs = Sofia.Obs.Obs
module Trace = Sofia.Obs.Trace
module Metrics = Sofia.Obs.Metrics
module Event = Sofia.Obs.Event

let keys = Keys.generate ~seed:0xD1FF_2026L
let nonce = 0x2A

let fast = { Run_config.default with Run_config.engine = Run_config.Fast }
let refc = { Run_config.default with Run_config.engine = Run_config.Ref }

type capture = {
  result : Machine.run_result;
  stream : (int * Insn.t) list;  (* retired (pc, insn), in order *)
  regs : int array;  (* final register file + pc at index 32 *)
  mem : Bytes.t;  (* the whole RAM *)
}

(* [~retires:false] is the path the service takes: no retire callback,
   no trace, no metrics — only [on_finish], to read the final state. *)
let capture ~retires run =
  let stream = ref [] in
  let state = ref None in
  let on_retire =
    if retires then Some (fun ~pc ~insn -> stream := (pc, insn) :: !stream) else None
  in
  let result = run ~on_retire ~on_finish:(fun ~machine ~mem -> state := Some (machine, mem)) in
  let machine, mem = Option.get !state in
  let regs = Array.init 33 (fun i -> if i = 32 then Machine.pc machine else Machine.read_reg machine (Reg.of_int i)) in
  { result; stream = List.rev !stream; regs;
    mem = Memory.read_range mem ~addr:0 ~len:(Memory.size_bytes mem) }

let run_sofia ?config ?fault ?(retires = true) image =
  capture ~retires (fun ~on_retire ~on_finish ->
      Sofia.Cpu.Sofia_runner.run ?config ?fault ?on_retire ~on_finish ~keys image)

let run_vanilla ?config ?(retires = true) program =
  capture ~retires (fun ~on_retire ~on_finish ->
      Sofia.Cpu.Vanilla.run ?config ?on_retire ~on_finish program)

let outcome_t = Alcotest.testable Machine.pp_outcome ( = )

(* Bit-identity of two captures of the same image/program. *)
let check_captures name (f : capture) (r : capture) =
  Alcotest.check outcome_t (name ^ ": outcome") r.result.Machine.outcome f.result.Machine.outcome;
  Alcotest.(check bool) (name ^ ": run_result bit-identical") true (f.result = r.result);
  let nf = List.length f.stream and nr = List.length r.stream in
  if nf <> nr then Alcotest.failf "%s: retired stream lengths differ: fast %d, ref %d" name nf nr;
  List.iteri
    (fun i ((fpc, fi), (rpc, ri)) ->
      if fpc <> rpc || not (Insn.equal fi ri) then
        Alcotest.failf "%s: retired streams diverge at index %d: fast 0x%08x %s, ref 0x%08x %s"
          name i fpc (Insn.to_string fi) rpc (Insn.to_string ri))
    (List.combine f.stream r.stream);
  Array.iteri
    (fun i fv ->
      if fv <> r.regs.(i) then
        Alcotest.failf "%s: %s differs: fast 0x%08x, ref 0x%08x" name
          (if i = 32 then "pc" else Reg.name (Reg.of_int i))
          fv r.regs.(i))
    f.regs;
  if not (Bytes.equal f.mem r.mem) then begin
    let i = ref 0 in
    while Bytes.get f.mem !i = Bytes.get r.mem !i do incr i done;
    Alcotest.failf "%s: memory differs at 0x%08x: fast %02x, ref %02x" name !i
      (Char.code (Bytes.get f.mem !i))
      (Char.code (Bytes.get r.mem !i))
  end

let protect ?backend w =
  Sofia.Transform.Transform.protect_exn ?backend ~keys ~nonce (Workload.assemble w)

(* ---- every registry workload, clean, both cores ---- *)

let test_workload (w : Workload.t) () =
  let name = w.Workload.name in
  let image = protect w in
  check_captures (name ^ " (sofia)")
    (run_sofia ~config:fast image)
    (run_sofia ~config:refc image);
  let program = Workload.assemble w in
  check_captures (name ^ " (vanilla)")
    (run_vanilla ~config:fast program)
    (run_vanilla ~config:refc program)

(* ---- the hook-free path, every workload, both cores, both backends ---- *)

let test_hook_free (w : Workload.t) () =
  let name = w.Workload.name in
  List.iter
    (fun backend ->
      let image = protect ~backend w in
      check_captures
        (Printf.sprintf "%s (%s, no hooks)" name (Sofia.Transform.Backend_id.name backend))
        (run_sofia ~config:fast ~retires:false image)
        (run_sofia ~config:refc ~retires:false image))
    Sofia.Transform.Backend_id.all;
  let program = Workload.assemble w in
  check_captures (name ^ " (vanilla, no hooks)")
    (run_vanilla ~config:fast ~retires:false program)
    (run_vanilla ~config:refc ~retires:false program)

(* ---- fuel boundaries: out of fuel on the same instruction ---- *)

(* Retire counts [k <= 200] after which either engine may leave a block:
   the next retired pc is not the fall-through, the retired instruction
   transfers control, or the next pc starts an icache line. *)
let exit_counts (stream : (int * Insn.t) list) =
  let a = Array.of_list stream in
  let exits = ref [] in
  for k = 1 to min 200 (Array.length a - 1) do
    let pc0, i0 = a.(k - 1) and pc1, _ = a.(k) in
    if pc1 <> pc0 + 4 || Insn.is_control_flow i0 || pc1 land 31 = 0 then exits := k :: !exits
  done;
  !exits

let fuel_values stream =
  List.sort_uniq compare
    (List.init 65 Fun.id
    @ List.concat_map (fun k -> [ k - 1; k; k + 1 ]) (exit_counts stream))

let with_fuel fuel (c : Run_config.t) = { c with Run_config.fuel }

let test_fuel_sweep (w : Workload.t) () =
  let name = w.Workload.name in
  let sweep label stream run =
    List.iter
      (fun fuel ->
        check_captures
          (Printf.sprintf "%s (%s) fuel %d" name label fuel)
          (run (with_fuel fuel fast)) (run (with_fuel fuel refc)))
      (fuel_values stream)
  in
  List.iter
    (fun backend ->
      let image = protect ~backend w in
      let head = run_sofia ~config:(with_fuel 201 refc) image in
      sweep (Sofia.Transform.Backend_id.name backend) head.stream (fun config ->
          run_sofia ~config ~retires:false image))
    Sofia.Transform.Backend_id.all;
  let program = Workload.assemble w in
  let head = run_vanilla ~config:(with_fuel 201 refc) program in
  sweep "vanilla" head.stream (fun config -> run_vanilla ~config ~retires:false program)

(* ---- one instruction: [Decoded.exec] against [Machine.execute] ---- *)

module Decoded = Sofia.Cpu.Decoded

let mem_bytes = 4096

let gen_insn =
  let open QCheck.Gen in
  let reg = map Reg.of_int (int_range 0 31) in
  let alu =
    oneofl
      Insn.[ Add; Sub; And; Or; Xor; Sll; Srl; Sra; Mul; Div; Rem; Slt; Sltu ]
  in
  let cond = oneofl Insn.[ Eq; Ne; Lt; Ge; Ltu; Geu; Gt; Le; Gtu; Leu ] in
  let width = oneofl Insn.[ W32; W8 ] in
  let off = oneof [ int_range (-8) 8; int_range (-32768) 32767 ] in
  oneof
    [
      map4 (fun op a b c -> Insn.Alu_r (op, a, b, c)) alu reg reg reg;
      map4 (fun op a b imm -> Insn.Alu_i (op, a, b, imm)) alu reg reg (int_range (-32768) 65535);
      map2 (fun a imm -> Insn.Lui (a, imm)) reg (int_range 0 65535);
      map4 (fun w a b o -> Insn.Load (w, a, b, o)) width reg reg off;
      map4 (fun w a b o -> Insn.Store (w, a, b, o)) width reg reg off;
      map4 (fun c a b o -> Insn.Branch (c, a, b, o)) cond reg reg (int_range (-2048) 2047);
      map2 (fun a o -> Insn.Jal (a, o)) reg (int_range (-(1 lsl 20)) ((1 lsl 20) - 1));
      map3 (fun a b o -> Insn.Jalr (a, b, o)) reg reg off;
      map (fun c -> Insn.Halt c) (int_range 0 ((1 lsl 26) - 1));
    ]

(* register values: the u32 edge cases, random words, and addresses
   that land aligned, misaligned, in MMIO or past RAM *)
let gen_value =
  let open QCheck.Gen in
  let mmio = Sofia.Asm.Program.mmio_base in
  oneof
    [
      oneofl [ 0; 1; 0x7FFF_FFFF; 0x8000_0000; 0xFFFF_FFFF ];
      map (fun x -> x land 0xFFFF_FFFF) int;
      map (fun k -> 4 * k) (int_range 0 ((mem_bytes / 4) - 1));
      int_range 0 (mem_bytes - 1);
      oneofl [ mmio; mmio + 4; mmio + 5; mmio + 8; mmio + 0xFC; mmio + 0x100 ];
      map (fun k -> mem_bytes + k) (int_range (-4) 64);
    ]

type case = { insn : Insn.t; pc : int; values : int array }

let gen_case =
  let open QCheck.Gen in
  map3
    (fun insn pc values -> { insn; pc; values })
    gen_insn
    (oneof [ map (fun k -> 4 * k) (int_range 0 1023); return 0xFFFF_FFFC ])
    (array_repeat 32 gen_value)

let print_case c =
  Printf.sprintf "%s at 0x%08x, regs [%s]" (Insn.to_string c.insn) c.pc
    (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "0x%x") c.values)))

(* outcome of one step: the [Decoded.exec] result encoding, or the
   faulting address *)
type step = Res of int | Fault of int

let prop_exec_single =
  QCheck.Test.make ~count:3000 ~name:"Decoded.exec = Machine.execute on one instruction"
    (QCheck.make ~print:print_case gen_case)
    (fun c ->
      let setup () =
        let m = Machine.create ~entry:c.pc ~sp:0 in
        Array.iteri (fun i v -> Machine.write_reg m (Reg.of_int i) v) c.values;
        let mem = Memory.create ~size_bytes:mem_bytes () in
        Memory.load_bytes mem ~addr:0 (Bytes.init mem_bytes (fun i -> Char.chr ((i * 37) land 0xFF)));
        (m, mem)
      in
      let mr, memr = setup () and mf, memf = setup () in
      let reference =
        match Machine.execute mr memr c.insn with
        | Machine.Next -> Res Decoded.res_next
        | Machine.Redirect t -> Res t
        | Machine.Halt code -> Res (-2 - code)
        | exception Memory.Bus_error a -> Fault a
      in
      let d = Decoded.compile ~timing:Sofia.Cpu.Timing.leon3_default [| c.insn |] in
      let fast =
        match
          Decoded.exec ~w:d.Decoded.ops.(0) ~imm:d.Decoded.imms.(0) ~regs:(Machine.regs mf)
            ~mem:memf ~pc:c.pc
        with
        | r -> Res r
        | exception Memory.Bus_error a -> Fault a
      in
      let regs m = List.init 32 (fun i -> Machine.read_reg m (Reg.of_int i)) in
      let ram mem = Memory.read_range mem ~addr:0 ~len:mem_bytes in
      reference = fast
      && regs mr = regs mf
      && Bytes.equal (ram memr) (ram memf)
      && Memory.outputs memr = Memory.outputs memf
      && String.equal (Memory.output_text memr) (Memory.output_text memf))

(* ---- tampered images: violations at the same instruction index ---- *)

(* One tamper per violation flavour: an instruction word (MAC
   mismatch), a MAC word itself, and a wild jump target at run time is
   covered by the fault battery below. *)
let tamper_addrs (image : Image.t) =
  let b = image.Image.blocks.(Array.length image.Image.blocks / 2) in
  let first = Block.first_insn_offset b.Image.kind in
  [ ("insn-word", b.Image.base + first); ("mac-word", b.Image.base) ]

let test_tampered () =
  let w = List.hd (Sofia.Workloads.Registry.benchmark_suite ()) in
  let image = protect w in
  List.iter
    (fun (label, address) ->
      let value =
        match Image.fetch image address with
        | Some v -> v lxor 0x10
        | None -> Alcotest.failf "tamper address 0x%08x outside image" address
      in
      let tampered = Image.with_tampered_word image ~address ~value in
      let f = run_sofia ~config:fast tampered and r = run_sofia ~config:refc tampered in
      check_captures ("tamper " ^ label) f r;
      (match f.result.Machine.outcome with
       | Machine.Cpu_reset _ -> ()
       | o -> Alcotest.failf "tamper %s: expected a reset, got %a" label Machine.pp_outcome o);
      Alcotest.(check int)
        ("tamper " ^ label ^ ": same violation instruction index")
        r.result.Machine.stats.Machine.instructions f.result.Machine.stats.Machine.instructions)
    (tamper_addrs image)

(* ---- transient fetch faults: detected identically ---- *)

let test_transient_faults () =
  let w = List.hd (Sofia.Workloads.Registry.benchmark_suite ()) in
  let image = protect w in
  List.iter
    (fun (n, bit) ->
      let label = Printf.sprintf "fault(%d,%d)" n bit in
      check_captures label
        (run_sofia ~config:fast ~fault:(n, bit) image)
        (run_sofia ~config:refc ~fault:(n, bit) image))
    [ (1, 3); (2, 64); (5, 200); (40, 97) ]

(* ---- obs equality: same events, same counters modulo engine_* ---- *)

let engine_counter name =
  name = "engine_hits" || name = "engine_misses" || name = "engine_invalidations"

let observed_with run =
  let trace = Trace.create ~capacity:4096 () in
  let metrics = Metrics.create () in
  let r = run (Obs.create ~trace ~metrics ()) in
  (r, Trace.to_list trace, Metrics.counters metrics)

let observed config image =
  observed_with (fun obs -> Sofia.Cpu.Sofia_runner.run ~config ~obs ~keys image)

let observed_vanilla config program =
  observed_with (fun obs -> Sofia.Cpu.Vanilla.run ~config ~obs program)

let check_observed name (rf, ef, cf) (rr, er, cr) =
  Alcotest.(check bool) (name ^ ": traced run_result bit-identical") true (rf = rr);
  Alcotest.(check int) (name ^ ": same event count") (List.length er) (List.length ef);
  List.iteri
    (fun i (a, b) ->
      if a <> b then
        Alcotest.failf "%s: event streams diverge at seq %d: fast %s, ref %s" name i
          (Sofia.Obs.Json.to_string (Event.to_json ~seq:i a))
          (Sofia.Obs.Json.to_string (Event.to_json ~seq:i b)))
    (List.combine ef er);
  List.iter2
    (fun (n1, v1) (n2, v2) ->
      Alcotest.(check string) "counter order" n1 n2;
      if not (engine_counter n1) then
        Alcotest.(check int) (name ^ ": counter " ^ n1) v2 v1)
    cf cr

let test_obs_equality () =
  let w = List.hd (Sofia.Workloads.Registry.benchmark_suite ()) in
  let image = protect w in
  check_observed "sofia" (observed fast image) (observed refc image);
  let program = Workload.assemble w in
  check_observed "vanilla" (observed_vanilla fast program) (observed_vanilla refc program)

(* ---- engine counters: do what they say ---- *)

let test_engine_counters () =
  let w = List.hd (Sofia.Workloads.Registry.benchmark_suite ()) in
  let image = protect w in
  let _, _, cf = observed fast image in
  let _, _, cr = observed refc image in
  let get cs n = List.assoc n cs in
  (* fast: every block compiles once, revisits run from the cache *)
  Alcotest.(check bool) "fast: engine_misses > 0" true (get cf "engine_misses" > 0);
  Alcotest.(check bool) "fast: engine_hits > 0" true (get cf "engine_hits" > 0);
  Alcotest.(check int) "fast: memo_hits = engine_hits (clean run)" (get cf "memo_hits")
    (get cf "engine_hits");
  Alcotest.(check int) "fast: no invalidation on a clean run" 0 (get cf "engine_invalidations");
  (* ref: the pre-decoded cache does not exist *)
  List.iter
    (fun n -> Alcotest.(check int) ("ref: " ^ n ^ " = 0") 0 (get cr n))
    [ "engine_hits"; "engine_misses"; "engine_invalidations" ];
  (* a violating run flushes the compiled cache exactly once *)
  let b = image.Image.blocks.(0) in
  let address = b.Image.base + Block.first_insn_offset b.Image.kind in
  let value = match Image.fetch image address with Some v -> v lxor 4 | None -> 0 in
  let tampered = Image.with_tampered_word image ~address ~value in
  let _, _, cv = observed fast tampered in
  Alcotest.(check int) "fast: violation invalidates once" 1 (get cv "engine_invalidations");
  (* vanilla: the counters count line-bounded blocks, not instructions *)
  let program = Workload.assemble w in
  let _, _, vf = observed_vanilla fast program in
  let _, _, vr = observed_vanilla refc program in
  let visits = get vf "engine_hits" + get vf "engine_misses" in
  Alcotest.(check bool) "vanilla fast: blocks compiled and revisited" true
    (get vf "engine_misses" > 0 && get vf "engine_hits" > 0);
  Alcotest.(check bool) "vanilla fast: fewer block visits than retires" true
    (visits < get vf "retires");
  List.iter
    (fun n -> Alcotest.(check int) ("vanilla ref: " ^ n ^ " = 0") 0 (get vr n))
    [ "engine_hits"; "engine_misses"; "engine_invalidations" ]

(* ---- the cold frontend (edge_memo = false) ---- *)

let test_cold_frontend () =
  let w = List.hd (Sofia.Workloads.Registry.benchmark_suite ()) in
  let image = protect w in
  let cold e = { Run_config.default with Run_config.engine = e; edge_memo = false } in
  (* bit-identical across engines with the memo off, and against the
     memoised run *)
  let f = run_sofia ~config:(cold Run_config.Fast) image in
  check_captures "cold frontend" f (run_sofia ~config:(cold Run_config.Ref) image);
  Alcotest.(check bool) "memoised result = cold result" true
    ((run_sofia ~config:fast image).result = f.result);
  (* with the memo off the keystream cache finally carries load *)
  let m = Metrics.create () in
  let obs = Obs.create ~metrics:m () in
  let ks = { (cold Run_config.Fast) with Run_config.ks_cache_slots = Some 256 } in
  let rks = Sofia.Cpu.Sofia_runner.run ~config:ks ~obs ~keys image in
  Alcotest.(check bool) "cold run result unchanged by ks cache" true (rks = f.result);
  Alcotest.(check bool) "cold frontend exercises the ks cache" true
    (m.Metrics.ks_cache_hits > 0);
  Alcotest.(check int) "cold frontend: no memo hits" 0 m.Metrics.memo_hits

(* ---- campaign reports: byte-identical JSON between engines ---- *)

let test_campaign_identical () =
  let module C = Sofia.Fault.Campaign in
  let report e =
    Sofia.Obs.Json.to_string
      (C.to_json (C.run ~engine:e ~trials:2 ~seed:0x5EED_0005L ()))
  in
  let jf = report Run_config.Fast and jr = report Run_config.Ref in
  Alcotest.(check string) "campaign JSON byte-identical between engines" jr jf

let suite =
  List.map
    (fun (w : Workload.t) ->
      Alcotest.test_case ("fast=ref: " ^ w.Workload.name) `Quick (test_workload w))
    (Sofia.Workloads.Registry.all ())
  @ List.map
      (fun (w : Workload.t) ->
        Alcotest.test_case ("fast=ref, no hooks: " ^ w.Workload.name) `Quick (test_hook_free w))
      (Sofia.Workloads.Registry.all ())
  @ List.map
      (fun (w : Workload.t) ->
        Alcotest.test_case ("fuel sweep: " ^ w.Workload.name) `Quick (test_fuel_sweep w))
      (Sofia.Workloads.Registry.all ())
  @ [
      QCheck_alcotest.to_alcotest prop_exec_single;
      Alcotest.test_case "tampered images" `Quick test_tampered;
      Alcotest.test_case "transient fetch faults" `Quick test_transient_faults;
      Alcotest.test_case "trace events and counters" `Quick test_obs_equality;
      Alcotest.test_case "engine counters" `Quick test_engine_counters;
      Alcotest.test_case "cold frontend (edge_memo off)" `Quick test_cold_frontend;
      Alcotest.test_case "campaign JSON identical" `Slow test_campaign_identical;
    ]
