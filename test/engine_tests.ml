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
  ram : Memory.t;  (* the RAM itself, which [on_finish] keeps *)
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
    mem = Memory.read_range mem ~addr:0 ~len:(Memory.size_bytes mem); ram = mem }

let run_sofia ?config ?fault ?obs ?prefill ?(retires = true) image =
  capture ~retires (fun ~on_retire ~on_finish ->
      Sofia.Cpu.Sofia_runner.run ?config ?fault ?on_retire ?obs ?prefill ~on_finish ~keys image)

let run_vanilla ?config ?obs ?(retires = true) program =
  capture ~retires (fun ~on_retire ~on_finish ->
      Sofia.Cpu.Vanilla.run ?config ?on_retire ?obs ~on_finish program)

let outcome_t = Alcotest.testable Machine.pp_outcome ( = )

(* Bit-identity of two captures of the same image/program: [None], or
   what differs first. A RAM that [on_finish] saw never goes back to
   the pool, so the two RAMs compared are never the same one. *)
let capture_diff name (f : capture) (r : capture) =
  let nf = List.length f.stream and nr = List.length r.stream in
  let stream_diff () =
    List.find_map
      (fun (i, ((fpc, fi), (rpc, ri))) ->
        if fpc <> rpc || not (Insn.equal fi ri) then
          Some
            (Printf.sprintf "%s: retired streams diverge at index %d: fast 0x%08x %s, ref 0x%08x %s"
               name i fpc (Insn.to_string fi) rpc (Insn.to_string ri))
        else None)
      (List.mapi (fun i p -> (i, p)) (List.combine f.stream r.stream))
  in
  let reg_diff () =
    let i = ref 0 in
    while !i < 33 && f.regs.(!i) = r.regs.(!i) do incr i done;
    if !i = 33 then None
    else
      Some
        (Printf.sprintf "%s: %s differs: fast 0x%08x, ref 0x%08x" name
           (if !i = 32 then "pc" else Reg.name (Reg.of_int !i))
           f.regs.(!i) r.regs.(!i))
  in
  let mem_diff () =
    if Bytes.equal f.mem r.mem then None
    else begin
      let i = ref 0 in
      while Bytes.get f.mem !i = Bytes.get r.mem !i do incr i done;
      Some
        (Printf.sprintf "%s: memory differs at 0x%08x: fast %02x, ref %02x" name !i
           (Char.code (Bytes.get f.mem !i))
           (Char.code (Bytes.get r.mem !i)))
    end
  in
  if f.ram == r.ram then Some (name ^ ": both runs handed back the same RAM")
  else if f.result.Machine.outcome <> r.result.Machine.outcome then
    Some
      (Format.asprintf "%s: outcome: fast %a, ref %a" name Machine.pp_outcome
         f.result.Machine.outcome Machine.pp_outcome r.result.Machine.outcome)
  else if f.result <> r.result then Some (name ^ ": run_result differs")
  else if nf <> nr then
    Some (Printf.sprintf "%s: retired stream lengths differ: fast %d, ref %d" name nf nr)
  else
    match stream_diff () with
    | Some d -> Some d
    | None -> ( match reg_diff () with Some d -> Some d | None -> mem_diff ())

let check_captures name f r =
  match capture_diff name f r with Some d -> Alcotest.fail d | None -> ()

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

(* Retire counts [lo <= k <= hi] after which either engine may leave a
   block: the next retired pc is not the fall-through, the retired
   instruction transfers control, or the next pc starts an icache
   line. *)
let exit_counts ?(lo = 1) ~hi (stream : (int * Insn.t) list) =
  let a = Array.of_list stream in
  let exits = ref [] in
  for k = max 1 lo to min hi (Array.length a - 1) do
    let pc0, i0 = a.(k - 1) and pc1, _ = a.(k) in
    if pc1 <> pc0 + 4 || Insn.is_control_flow i0 || pc1 land 31 = 0 then exits := k :: !exits
  done;
  !exits

let fuel_values stream =
  List.sort_uniq compare
    (List.init 65 Fun.id
    @ List.concat_map (fun k -> [ k - 1; k; k + 1 ]) (exit_counts ~hi:200 stream))

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

(* ---- one instruction: a compiled slot ([Decoded.exec]) against
   [Machine.execute] ---- *)

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

(* outcome of one step: the slot result encoding, or the
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
      let d =
        Decoded.compile ~timing:Sofia.Cpu.Timing.leon3_default ~regs:(Machine.regs mf) ~mem:memf
          ~first:c.pc [| c.insn |]
      in
      let fast = match d.Decoded.exec.(0) () with r -> Res r | exception Memory.Bus_error a -> Fault a in
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

let engine_counter name = String.starts_with ~prefix:"engine_" name

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

(* ---- superblocks: hot cycles of verified blocks ----

   Every case below asserts through [engine_traces], read from a fast
   run with a metrics sink and no trace sink (which still runs
   superblocks, its counters batched), that a superblock ran on each
   core, so no case passes vacuously. *)

let traces_in (m : Metrics.t) = m.Metrics.engine_traces

(* one core under test: a capture at a fuel budget, and the fast
   engine's superblock entries at that budget *)
type core = {
  label : string;
  cap : Run_config.t -> capture;
  entries : int -> int;
  stream : int -> (int * Insn.t) list;  (* ref retire stream under that fuel *)
}

let sofia_core ?(backend = Sofia.Transform.Backend_id.Sofia) w =
  let image = protect ~backend w in
  {
    label = Sofia.Transform.Backend_id.name backend;
    cap = (fun config -> run_sofia ~config ~retires:false image);
    entries =
      (fun fuel ->
        let m = Metrics.create () in
        ignore
          (Sofia.Cpu.Sofia_runner.run ~config:(with_fuel fuel fast) ~obs:(Obs.create ~metrics:m ())
             ~keys image);
        traces_in m);
    stream = (fun fuel -> (run_sofia ~config:(with_fuel fuel refc) image).stream);
  }

let vanilla_core program =
  {
    label = "vanilla";
    cap = (fun config -> run_vanilla ~config ~retires:false program);
    entries =
      (fun fuel ->
        let m = Metrics.create () in
        ignore
          (Sofia.Cpu.Vanilla.run ~config:(with_fuel fuel fast) ~obs:(Obs.create ~metrics:m ())
             program);
        traces_in m);
    stream = (fun fuel -> (run_vanilla ~config:(with_fuel fuel refc) program).stream);
  }

let cores w =
  List.map (fun backend -> sofia_core ~backend w) Sofia.Transform.Backend_id.all
  @ [ vanilla_core (Workload.assemble w) ]

(* The least fuel at which the fast engine enters a superblock. A run
   is the same at every budget up to its first entry, and an entry that
   fits one budget fits every larger one, so entering is monotone in
   fuel and bisection finds the boundary. *)
let first_entry core ~total =
  if core.entries total = 0 then None
  else begin
    let rec go lo hi =
      if hi - lo <= 1 then hi
      else begin
        let mid = (lo + hi) / 2 in
        if core.entries mid > 0 then go lo mid else go mid hi
      end
    in
    Some (go 0 total)
  end

let window = 200

(* Fuel cut at every block exit ±1 in a window after the first
   superblock entry, and at 16 seeded points over the whole run. *)
let test_superblock_fuel (w : Workload.t) () =
  List.iter
    (fun core ->
      let name = Printf.sprintf "%s (%s)" w.Workload.name core.label in
      let total = (core.cap fast).result.Machine.stats.Machine.instructions + 1 in
      match first_entry core ~total with
      | None -> Alcotest.failf "%s: no superblock entered in a full run" name
      | Some first ->
        let stream = core.stream (first + window + 1) in
        let rng = Random.State.make [| Hashtbl.hash w.Workload.name |] in
        let fuels =
          List.sort_uniq compare
            (List.concat_map (fun k -> [ k - 1; k; k + 1 ])
               (first :: exit_counts ~lo:first ~hi:(first + window) stream)
            @ List.init 16 (fun _ -> 1 + Random.State.int rng total))
        in
        Alcotest.(check bool) (name ^ ": a superblock ran at the window's end") true
          (core.entries (first + window) > 0);
        List.iter
          (fun fuel ->
            check_captures (Printf.sprintf "%s fuel %d" name fuel)
              (core.cap (with_fuel fuel fast)) (core.cap (with_fuel fuel refc)))
          fuels)
    (cores w)

(* Hand-written hot loops whose Nth iteration leaves the cycle: a
   pointer walked off the end of RAM (a load or a store faults inside
   the superblock) or a counter that reaches its limit and halts. *)
let walk_source ~store ~step ~iters =
  Printf.sprintf
    {|
start:
  li   t0, %d
  li   t2, 0
loop:
  %s
  add  t2, t2, t0
  addi t0, t0, %d
  j    loop
|}
    ((1 lsl 20) - (step * iters)) (if store then "st   t2, 0(t0)" else "ld   t1, 0(t0)") step

let halt_source ~iters =
  Printf.sprintf
    {|
.equ OUT, 0xFFFF0000
start:
  li   t0, 0
  li   t1, %d
  li   t2, 0
loop:
  addi t0, t0, 1
  beq  t0, t1, done
  add  t2, t2, t0
  xor  t3, t2, t0
  j    loop
done:
  la   a6, OUT
  st   t2, 0(a6)
  halt
|}
    iters

(* superblock entries per core, so that each core is shown to run them *)
let entered_by_core () = Hashtbl.create 3

let enter_count tbl label n =
  Hashtbl.replace tbl label (n + Option.value ~default:0 (Hashtbl.find_opt tbl label))

let check_every_core_entered tbl =
  List.iter
    (fun label ->
      if Option.value ~default:0 (Hashtbl.find_opt tbl label) = 0 then
        Alcotest.failf "%s: no superblock ran" label)
    (List.map Sofia.Transform.Backend_id.name Sofia.Transform.Backend_id.all @ [ "vanilla" ])

let test_loop_exits () =
  let entered = entered_by_core () in
  let check name program expect =
    let runs =
      List.map
        (fun backend ->
          let image = Sofia.Transform.Transform.protect_exn ~backend ~keys ~nonce program in
          ( Sofia.Transform.Backend_id.name backend,
            (fun config -> run_sofia ~config ~retires:false image),
            fun () ->
              let m = Metrics.create () in
              let pooled =
                Sofia.Cpu.Sofia_runner.run ~config:fast ~obs:(Obs.create ~metrics:m ()) ~keys image
              in
              (pooled, traces_in m) ))
        Sofia.Transform.Backend_id.all
      @ [
          ( "vanilla",
            (fun config -> run_vanilla ~config ~retires:false program),
            fun () ->
              let m = Metrics.create () in
              let pooled = Sofia.Cpu.Vanilla.run ~config:fast ~obs:(Obs.create ~metrics:m ()) program in
              (pooled, traces_in m) );
        ]
    in
    List.iter
      (fun (label, cap, pooled) ->
        let name = Printf.sprintf "%s (%s)" name label in
        let f = cap fast and r = cap refc in
        check_captures name f r;
        if not (expect r.result.Machine.outcome) then
          Alcotest.failf "%s: unexpected outcome %a" name Machine.pp_outcome r.result.Machine.outcome;
        let p, n = pooled () in
        Alcotest.(check bool) (name ^ ": pooled-RAM run = ref") true (p = r.result);
        enter_count entered label n)
      runs
  in
  let bus = function Machine.Cpu_reset (Machine.Bus_fault _) -> true | _ -> false in
  let halted = function Machine.Halted 0 -> true | _ -> false in
  List.iter
    (fun iters ->
      List.iter
        (fun store ->
          check
            (Printf.sprintf "%s walk, fault on iteration %d" (if store then "store" else "load") iters)
            (Sofia.Asm.Assembler.assemble (walk_source ~store ~step:64 ~iters))
            bus)
        [ false; true ];
      check (Printf.sprintf "halt after %d iterations" iters)
        (Sofia.Asm.Assembler.assemble (halt_source ~iters))
        halted)
    (* the iterations just after a superblock can first form, as the
       heat threshold places them *)
    (let h = Sofia.Cpu.Decoded.heat_threshold in
     [ 1; 2; h + 1; h + 2; (2 * h) + 1; (4 * h) + 1; 300 ]);
  check_every_core_entered entered

(* A run with only a metrics sink still runs superblocks, with its
   counters batched: every counter but the engine_* ones, and the
   block-cycles histogram, equal the reference's. *)
let test_metrics_only () =
  let entered = entered_by_core () in
  List.iter
    (fun (w : Workload.t) ->
      let metrics run =
        let m = Metrics.create () in
        let r = run (Obs.create ~metrics:m ()) in
        (r, m)
      in
      let check label run =
        let rf, mf = metrics (run fast) and rr, mr = metrics (run refc) in
        let name = Printf.sprintf "%s (%s, metrics only)" w.Workload.name label in
        Alcotest.(check bool) (name ^ ": run_result") true (rf = rr);
        List.iter2
          (fun (n, vf) (_, vr) ->
            if not (String.starts_with ~prefix:"engine_" n) then
              Alcotest.(check int) (name ^ ": " ^ n) vr vf)
          (Metrics.counters mf) (Metrics.counters mr);
        Alcotest.(check string) (name ^ ": block_cycles")
          (Sofia.Obs.Json.to_string (Metrics.hist_to_json mr.Metrics.block_cycles))
          (Sofia.Obs.Json.to_string (Metrics.hist_to_json mf.Metrics.block_cycles));
        enter_count entered label (traces_in mf)
      in
      List.iter
        (fun backend ->
          let image = protect ~backend w in
          check (Sofia.Transform.Backend_id.name backend) (fun config obs ->
              Sofia.Cpu.Sofia_runner.run ~config ~obs ~keys image))
        Sofia.Transform.Backend_id.all;
      let program = Workload.assemble w in
      check "vanilla" (fun config obs -> Sofia.Cpu.Vanilla.run ~config ~obs program))
    (Sofia.Workloads.Registry.all ());
  check_every_core_entered entered

(* ---- generated programs, tampered images, prefilled tables ---- *)

let table_of image =
  Sofia.Cpu.Block_table.of_image
    ~verify:(fun ~target ~prev_pc ->
      match Sofia.Cpu.Sofia_runner.fetch_block ~keys ~image ~target ~prev_pc with
      | Sofia.Cpu.Sofia_runner.Block_ok { kind; insns; _ } -> Some (kind, insns)
      | Sofia.Cpu.Sofia_runner.Fetch_violation _ -> None)
    image

let generated_entered = entered_by_core ()

type gen_case = { seed : int; fuel : int; tamper : (int * int * int) option }

let gen_program_case =
  let open QCheck.Gen in
  map3
    (fun seed fuel tamper -> { seed; fuel; tamper })
    (int_range 1 10_000_000) (int_range 1 100_000)
    (opt ~ratio:0.5 (triple (int_range 0 10_000) (int_range 0 7) (int_range 0 31)))

let print_gen_case c =
  Printf.sprintf "seed %d fuel %d%s\n%s" c.seed c.fuel
    (match c.tamper with
     | Some (b, w, bit) -> Printf.sprintf " flip bit %d of word %d of block %d" bit w b
     | None -> "")
    (Minic_gen.generate ~trips:(24, 80) ~seed:(Int64.of_int c.seed) ())

(* One bit of one word (instruction or MAC/tag) of one block flipped. *)
let tampered (image : Image.t) (b, word, bit) =
  let blk = image.Image.blocks.(b mod Array.length image.Image.blocks) in
  let address = blk.Image.base + (4 * word) in
  match Image.fetch image address with
  | Some v -> Image.with_tampered_word image ~address ~value:(v lxor (1 lsl bit))
  | None -> image

let prop_generated =
  QCheck.Test.make ~count:300
    ~name:"generated programs: fast = ref, tampered or prefilled"
    (QCheck.make ~print:print_gen_case gen_program_case)
    (fun c ->
      let src = Minic_gen.generate ~trips:(24, 80) ~seed:(Int64.of_int c.seed) () in
      match Sofia.Minic.Compile.to_program src with
      | Error _ -> QCheck.assume_fail ()
      | Ok program ->
        let name label = Printf.sprintf "seed %d (%s)" c.seed label in
        let same name f r =
          match capture_diff name f r with Some d -> QCheck.Test.fail_report d | None -> ()
        in
        List.iter
          (fun backend ->
            let clean = Sofia.Transform.Transform.protect_exn ~backend ~keys ~nonce program in
            let image = match c.tamper with Some t -> tampered clean t | None -> clean in
            let label = Sofia.Transform.Backend_id.name backend in
            let m = Metrics.create () in
            let f =
              run_sofia ~config:(with_fuel c.fuel fast) ~obs:(Obs.create ~metrics:m ())
                ~retires:false image
            in
            if traces_in m > 0 then enter_count generated_entered label 1;
            same (name label) f (run_sofia ~config:(with_fuel c.fuel refc) ~retires:false image);
            same (name (label ^ ", prefilled")) f
              (run_sofia ~config:(with_fuel c.fuel fast) ~prefill:(table_of image) ~retires:false
                 image))
          Sofia.Transform.Backend_id.all;
        let m = Metrics.create () in
        let f =
          run_vanilla ~config:(with_fuel c.fuel fast) ~obs:(Obs.create ~metrics:m ()) ~retires:false
            program
        in
        if traces_in m > 0 then enter_count generated_entered "vanilla" 1;
        same (name "vanilla") f (run_vanilla ~config:(with_fuel c.fuel refc) ~retires:false program);
        true)

let test_generated =
  let name, speed, run = QCheck_alcotest.to_alcotest ~speed_level:`Quick prop_generated in
  ( name,
    speed,
    fun () ->
      Hashtbl.reset generated_entered;
      run ();
      Hashtbl.iter
        (fun label n -> Printf.printf "%s: %d generated cases entered a superblock\n" label n)
        generated_entered;
      check_every_core_entered generated_entered )

(* ---- the RAM pool ---- *)

(* Random writes at page edges, RAM's last byte and next to MMIO; then
   the RAM goes back to the pool and is taken again: nothing of the
   first user may be readable. *)
let ram_size = 1 lsl 20

type ram_op = W32 of int * int | W8 of int * int | Load of int * string

let gen_ram_ops =
  let open QCheck.Gen in
  let mmio = Sofia.Asm.Program.mmio_base in
  let edge =
    oneof
      [
        map2 (fun p d -> (p * 4096) + d) (int_range 0 255) (int_range (-4) 4);
        map (fun d -> ram_size - 1 - d) (int_range 0 7);
        map (fun d -> mmio + d) (int_range (-8) 0x104);
        int_range 0 (ram_size - 1);
      ]
  in
  list_size (int_range 1 40)
    (oneof
       [
         map2 (fun a v -> W32 (a land lnot 3, v)) edge int;
         map2 (fun a v -> W8 (a, v)) edge int;
         map2 (fun a s -> Load (a, s)) edge (string_size ~gen:printable (int_range 0 9000));
       ])

let prop_ram_pool =
  QCheck.Test.make ~count:200 ~name:"pooled RAM comes back zeroed"
    (QCheck.make gen_ram_ops)
    (fun ops ->
      let m = Memory.acquire ~size_bytes:ram_size in
      List.iter
        (fun op ->
          try
            match op with
            | W32 (a, v) -> Memory.write32 m a v
            | W8 (a, v) -> Memory.write8 m a v
            | Load (a, s) -> Memory.load_bytes m ~addr:a (Bytes.of_string s)
          with Memory.Bus_error _ -> ())
        ops;
      Memory.release m;
      let m' = Memory.acquire ~size_bytes:ram_size in
      let reused = m' == m in
      let zero = Bytes.equal (Memory.read_range m' ~addr:0 ~len:ram_size) (Bytes.make ram_size '\000') in
      let quiet = Memory.outputs m' = [] && Memory.output_text m' = "" in
      Memory.release m';
      reused && zero && quiet)

(* A run started inside another run's [on_finish] gets its own RAM, and
   the pooled runs around it leave the kept RAM alone. *)
let test_nested_ram () =
  let w = List.hd (Sofia.Workloads.Registry.benchmark_suite ()) in
  let image = protect w in
  let solo = Sofia.Cpu.Sofia_runner.run ~config:fast ~keys image in
  let outer = ref None and inner = ref None in
  let r =
    Sofia.Cpu.Sofia_runner.run ~config:fast ~keys image ~on_finish:(fun ~machine:_ ~mem ->
        let before = Memory.read_range mem ~addr:0 ~len:(Memory.size_bytes mem) in
        let pooled = Sofia.Cpu.Sofia_runner.run ~config:fast ~keys image in
        let kept =
          Sofia.Cpu.Sofia_runner.run ~config:fast ~keys image ~on_finish:(fun ~machine:_ ~mem:m ->
              inner := Some m)
        in
        Alcotest.(check bool) "nested pooled run = solo run" true (pooled = solo);
        Alcotest.(check bool) "nested kept run = solo run" true (kept = solo);
        Alcotest.(check bool) "outer RAM untouched by the nested runs" true
          (Bytes.equal before (Memory.read_range mem ~addr:0 ~len:(Memory.size_bytes mem)));
        outer := Some mem)
  in
  Alcotest.(check bool) "outer run = solo run" true (r = solo);
  match (!outer, !inner) with
  | Some a, Some b -> Alcotest.(check bool) "distinct RAMs" true (a != b)
  | _ -> Alcotest.fail "on_finish not called"

(* ---- allocation gates ---- *)

(* A hot loop that outputs only after [iters] iterations, so two fuel
   budgets inside the loop stop before any output. *)
let alloc_source =
  {|
.equ OUT, 0xFFFF0000
start:
  li   t0, 0
  li   t1, 40000
  li   t2, 0
loop:
  addi t0, t0, 1
  andi t3, t0, 1
  beq  t3, zero, even
  add  t2, t2, t0
  j    next
even:
  xor  t2, t2, t0
next:
  bne  t0, t1, loop
  la   a6, OUT
  st   t2, 0(a6)
  halt
|}

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_allocation () =
  let program = Sofia.Asm.Assembler.assemble alloc_source in
  let cores =
    List.map
      (fun backend ->
        let image = Sofia.Transform.Transform.protect_exn ~backend ~keys ~nonce program in
        let table = table_of image in
        ( Sofia.Transform.Backend_id.name backend,
          fun obs fuel ->
            ignore
              (Sofia.Cpu.Sofia_runner.run ~config:(with_fuel fuel fast) ~obs ~prefill:table ~keys
                 image) ))
      Sofia.Transform.Backend_id.all
    @ [
        ( "vanilla",
          fun obs fuel -> ignore (Sofia.Cpu.Vanilla.run ~config:(with_fuel fuel fast) ~obs program) );
      ]
  in
  List.iter
    (fun (label, run) ->
      let m = Metrics.create () in
      run (Obs.create ~metrics:m ()) 100_000;
      Alcotest.(check bool) (label ^ ": a superblock ran") true (traces_in m > 0);
      (* the same minor words whatever the budget: no allocation per
         visit, per superblock entry or per iteration *)
      let run = run Obs.none in
      run 50_000;
      let a = minor_words (fun () -> run 50_000) and b = minor_words (fun () -> run 150_000) in
      Alcotest.(check (float 0.)) (label ^ ": minor words at 50k = at 150k") a b;
      (* the second of two back-to-back runs takes the pooled RAM *)
      run 1000;
      let major_words () = (Gc.quick_stat ()).Gc.major_words in
      let before = major_words () in
      run 1000;
      let major = major_words () -. before in
      if major >= float_of_int (1 lsl 17) then
        Alcotest.failf "%s: a back-to-back run allocated %.0f major words (a 1 MiB RAM)" label major)
    cores

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
  @ List.map
      (fun (w : Workload.t) ->
        Alcotest.test_case ("superblock fuel sweep: " ^ w.Workload.name) `Quick
          (test_superblock_fuel w))
      (Sofia.Workloads.Registry.all ())
  @ [
      QCheck_alcotest.to_alcotest prop_exec_single;
      Alcotest.test_case "superblock loops: faults and halts" `Quick test_loop_exits;
      Alcotest.test_case "superblocks under a metrics sink" `Quick test_metrics_only;
      test_generated;
      QCheck_alcotest.to_alcotest prop_ram_pool;
      Alcotest.test_case "nested run gets its own RAM" `Quick test_nested_ram;
      Alcotest.test_case "allocation: per visit and per run" `Quick test_allocation;
      Alcotest.test_case "tampered images" `Quick test_tampered;
      Alcotest.test_case "transient fetch faults" `Quick test_transient_faults;
      Alcotest.test_case "trace events and counters" `Quick test_obs_equality;
      Alcotest.test_case "engine counters" `Quick test_engine_counters;
      Alcotest.test_case "cold frontend (edge_memo off)" `Quick test_cold_frontend;
      Alcotest.test_case "campaign JSON identical" `Slow test_campaign_identical;
    ]
