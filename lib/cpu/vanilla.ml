module Insn = Sofia_isa.Insn
module Reg = Sofia_isa.Reg
module Encoding = Sofia_isa.Encoding
module Program = Sofia_asm.Program

(* Registers an instruction reads (for load-use stall detection). *)
let reads (insn : Insn.t) =
  match insn with
  | Insn.Alu_r (_, _, rs1, rs2) -> [ rs1; rs2 ]
  | Insn.Alu_i (_, _, rs1, _) -> [ rs1 ]
  | Insn.Lui _ | Insn.Jal _ | Insn.Halt _ -> []
  | Insn.Load (_, _, base, _) -> [ base ]
  | Insn.Store (_, src, base, _) -> [ src; base ]
  | Insn.Branch (_, rs1, rs2, _) -> [ rs1; rs2 ]
  | Insn.Jalr (_, rs1, _) -> [ rs1 ]

(* Non-allocating [List.exists (Reg.equal rd) (reads insn)]: the
   load-use check runs once per retired instruction on both cores. *)
let reads_reg (insn : Insn.t) rd =
  match insn with
  | Insn.Alu_r (_, _, rs1, rs2) -> Reg.equal rd rs1 || Reg.equal rd rs2
  | Insn.Alu_i (_, _, rs1, _) -> Reg.equal rd rs1
  | Insn.Lui _ | Insn.Jal _ | Insn.Halt _ -> false
  | Insn.Load (_, _, base, _) -> Reg.equal rd base
  | Insn.Store (_, src, base, _) -> Reg.equal rd src || Reg.equal rd base
  | Insn.Branch (_, rs1, rs2, _) -> Reg.equal rd rs1 || Reg.equal rd rs2
  | Insn.Jalr (_, rs1, _) -> Reg.equal rd rs1

let dest (insn : Insn.t) =
  match insn with
  | Insn.Alu_r (_, rd, _, _) | Insn.Alu_i (_, rd, _, _) | Insn.Lui (rd, _)
  | Insn.Load (_, rd, _, _) | Insn.Jal (rd, _) | Insn.Jalr (rd, _, _) -> Some rd
  | Insn.Store _ | Insn.Branch _ | Insn.Halt _ -> None

module Obs = Sofia_obs.Obs
module Event = Sofia_obs.Event
module Metrics = Sofia_obs.Metrics

let run_encoded ?(config = Run_config.default) ?(args = []) ?on_retire ?(obs = Obs.none)
    ?on_finish ~text ~text_base ~entry ~data ~data_base () =
  let mem = Memory.create ~size_bytes:config.Run_config.mem_size () in
  Memory.load_bytes mem ~addr:data_base data;
  let machine = Machine.create ~entry ~sp:(Run_config.initial_sp config) in
  List.iteri (fun i v -> if i < 8 then Machine.write_reg machine (Reg.a i) v) args;
  let tracing = Obs.tracing obs in
  let mx = obs.Obs.metrics in
  let icache = Icache.create config.Run_config.icache in
  let timing = config.Run_config.timing in
  let n = Array.length text in
  let cycles = ref 0 in
  let instructions = ref 0 in
  let redirects = ref 0 in
  let load_use = ref 0 in
  let finish outcome =
    (match outcome with
     | Machine.Cpu_reset v ->
       (match mx with
        | Some m ->
          m.Metrics.violations <- m.Metrics.violations + 1;
          m.Metrics.resets <- m.Metrics.resets + 1
        | None -> ());
       if tracing then begin
         Obs.emit obs
           (Event.Violation
              { kind = Machine.violation_label v; address = Machine.violation_address v });
         Obs.emit obs
           (Event.Reset { kind = Machine.violation_label v; address = Machine.violation_address v })
       end
     | Machine.Halted code -> if tracing then Obs.emit obs (Event.Halt { code })
     | Machine.Out_of_fuel -> if tracing then Obs.emit obs Event.Fuel_exhausted);
    (* the fast engine counts most icache hits in batches; the totals
       reach the metrics once, here *)
    (match mx with
     | Some m ->
       let misses = Icache.misses icache in
       m.Metrics.icache_hits <- m.Metrics.icache_hits + Icache.accesses icache - misses;
       m.Metrics.icache_misses <- m.Metrics.icache_misses + misses
     | None -> ());
    (match on_finish with Some f -> f ~machine ~mem | None -> ());
    {
      Machine.outcome;
      stats =
        {
          Machine.cycles = !cycles;
          instructions = !instructions;
          mac_words_fetched = 0;
          blocks_entered = 0;
          redirects = !redirects;
          icache_accesses = Icache.accesses icache;
          icache_misses = Icache.misses icache;
          load_use_stalls = !load_use;
        };
      outputs = Memory.outputs mem;
      output_text = Memory.output_text mem;
    }
  in
  (* ---- reference engine: per-step [Encoding.decode] (cached per
     index) and the boxed [Machine.execute] interpreter ---- *)
  let run_ref () =
    let decoded = Array.make n None in
    let decode i =
      match decoded.(i) with
      | Some d -> d
      | None ->
        let d = Encoding.decode text.(i) in
        decoded.(i) <- Some d;
        d
    in
    let pending_load : Reg.t option ref = ref None in
    let rec step () =
      if !instructions >= config.Run_config.fuel then finish Machine.Out_of_fuel
      else begin
        let pc = Machine.pc machine in
        let rel = pc - text_base in
        if rel < 0 || rel mod 4 <> 0 || rel / 4 >= n then
          finish (Machine.Cpu_reset (Machine.Bus_fault { address = pc }))
        else begin
          let i = rel / 4 in
          if not (Icache.access icache pc) then
            cycles := !cycles + timing.Timing.icache_miss_penalty;
          match decode i with
          | None ->
            finish (Machine.Cpu_reset (Machine.Invalid_opcode { address = pc; word = text.(i) }))
          | Some insn ->
            incr instructions;
            (match mx with Some m -> m.Metrics.retires <- m.Metrics.retires + 1 | None -> ());
            if tracing then Obs.emit obs (Event.Retire { pc });
            (match on_retire with Some f -> f ~pc ~insn | None -> ());
            cycles := !cycles + Timing.insn_cost timing insn;
            (match !pending_load with
             | Some rd when reads_reg insn rd ->
               cycles := !cycles + timing.Timing.load_use_stall;
               incr load_use
             | Some _ | None -> ());
            pending_load := (if Insn.is_load insn then dest insn else None);
            (match Machine.execute machine mem insn with
             | exception Memory.Bus_error address ->
               finish (Machine.Cpu_reset (Machine.Bus_fault { address }))
             | Machine.Next ->
               Machine.set_pc machine (pc + 4);
               step ()
             | Machine.Redirect target ->
               incr redirects;
               cycles := !cycles + timing.Timing.taken_branch_penalty;
               pending_load := None;
               Machine.set_pc machine target;
               step ()
             | Machine.Halt code -> finish (Machine.Halted code))
        end
      end
    in
    step ()
  in
  (* ---- fast engine: straight-line blocks, compiled on first entry
     and keyed by entry index. A block ends after a control transfer,
     before an undecodable word, at the end of an icache line or at
     the end of the text; an undecodable entry word compiles to an
     empty block, the invalid-opcode trap. One icache probe covers a
     visit: the block's other fetches are hits on the same line. The
     load-use latch carries across a fall-through, so slot 0's stall
     is checked against the incoming latch and the rest come from the
     block's prefixes. Same event/metric stream as the reference loop
     modulo the engine_* counters, which count blocks. ---- *)
  let run_fast () =
    let regs = Machine.regs machine in
    let fuel = config.Run_config.fuel in
    let hooks = tracing || Option.is_some on_retire in
    let miss_penalty = timing.Timing.icache_miss_penalty in
    let stall = timing.Timing.load_use_stall in
    let branch_penalty = timing.Timing.taken_branch_penalty in
    let line_mask = lnot (config.Run_config.icache.Icache.line_bytes - 1) in
    (* [unbuilt] (compared physically) marks an entry not compiled yet *)
    let unbuilt = Decoded.compile ~timing [||] in
    let blocks = Array.make n unbuilt in
    let compile i =
      let line = (text_base + (4 * i)) land line_mask in
      let rec collect j acc =
        if j >= n || (text_base + (4 * j)) land line_mask <> line then acc
        else
          match Encoding.decode text.(j) with
          | None -> acc
          | Some insn ->
            if Insn.is_control_flow insn then insn :: acc else collect (j + 1) (insn :: acc)
      in
      Decoded.compile ~timing (Array.of_list (List.rev (collect i [])))
    in
    let block i =
      let d = Array.unsafe_get blocks i in
      if d != unbuilt then begin
        (match mx with Some m -> m.Metrics.engine_hits <- m.Metrics.engine_hits + 1 | None -> ());
        d
      end
      else begin
        (match mx with
         | Some m -> m.Metrics.engine_misses <- m.Metrics.engine_misses + 1
         | None -> ());
        let d = compile i in
        blocks.(i) <- d;
        d
      end
    in
    (* account the first [c >= 1] slots of a visit whose slot 0
       stalled [s0] (0 or 1) times *)
    let leave (d : Decoded.t) s0 c =
      instructions := !instructions + c;
      (match mx with Some m -> m.Metrics.retires <- m.Metrics.retires + c | None -> ());
      cycles := !cycles + Array.unsafe_get d.Decoded.cost_pre c + (s0 * stall);
      load_use := !load_use + Array.unsafe_get d.Decoded.stall_pre c + s0;
      Icache.hit_same_line icache (c - 1)
    in
    let rec enter pc latch =
      Machine.set_pc machine pc;
      if !instructions >= fuel then finish Machine.Out_of_fuel
      else begin
        let rel = pc - text_base in
        if rel < 0 || rel land 3 <> 0 || rel lsr 2 >= n then
          finish (Machine.Cpu_reset (Machine.Bus_fault { address = pc }))
        else begin
          let i = rel lsr 2 in
          let d = block i in
          if not (Icache.access icache pc) then cycles := !cycles + miss_penalty;
          let ops = d.Decoded.ops and imms = d.Decoded.imms in
          let len = Array.length ops in
          if len = 0 then
            finish (Machine.Cpu_reset (Machine.Invalid_opcode { address = pc; word = text.(i) }))
          else begin
            let room = fuel - !instructions in
            let lim = if room < len then room else len in
            let s0 = if Decoded.uses (Array.unsafe_get ops 0) latch then 1 else 0 in
            (* the slot walk: [Decoded.exec] and one hook test per slot *)
            let next = Decoded.res_next in
            let k = ref 0 and res = ref next in
            match
              while !res = next && !k < lim do
                let pc = pc + (4 * !k) in
                if hooks then begin
                  if tracing then Obs.emit obs (Event.Retire { pc });
                  match on_retire with
                  | Some f -> f ~pc ~insn:(Array.unsafe_get d.Decoded.insns !k)
                  | None -> ()
                end;
                res :=
                  Decoded.exec ~w:(Array.unsafe_get ops !k) ~imm:(Array.unsafe_get imms !k) ~regs
                    ~mem ~pc;
                incr k
              done
            with
            | exception Memory.Bus_error address ->
              leave d s0 (!k + 1);
              Machine.set_pc machine (pc + (4 * !k));
              finish (Machine.Cpu_reset (Machine.Bus_fault { address }))
            | () ->
              let c = !k and res = !res in
              leave d s0 c;
              if res = next then
                (* fell off the block, or out of fuel: [enter] checks
                   fuel before anything else *)
                enter (pc + (4 * c)) (Decoded.loaded_dest (Array.unsafe_get ops (c - 1)))
              else if res >= 0 then begin
                incr redirects;
                cycles := !cycles + branch_penalty;
                enter res Decoded.no_load
              end
              else begin
                Machine.set_pc machine (pc + (4 * (c - 1)));
                finish (Machine.Halted (Decoded.halt_code res))
              end
          end
        end
      end
    in
    enter entry Decoded.no_load
  in
  match config.Run_config.engine with
  | Run_config.Fast -> run_fast ()
  | Run_config.Ref -> run_ref ()

let run ?config ?args ?on_retire ?obs ?on_finish (program : Program.t) =
  run_encoded ?config ?args ?on_retire ?obs ?on_finish ~text:(Program.encoded_text program)
    ~text_base:program.Program.text_base ~entry:program.Program.entry
    ~data:program.Program.data ~data_base:program.Program.data_base ()
