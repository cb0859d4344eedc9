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

(* The fast engine's block: a line-bounded straight-line run compiled
   on first entry, with how its last visit left it ([vb_exit] slots,
   last result [vb_exit_res]), its entries ([vb_heat]), its superblock
   and how many live superblocks' cycles hold it, as the SOFIA core
   keeps them per edge (sofia_runner.ml). *)
type vblock = {
  vb_dec : Decoded.t;
  mutable vb_exit : int;
  mutable vb_exit_res : int;
  mutable vb_heat : int;
  mutable vb_super : vsuper option;
  mutable vb_member : int;  (* live superblocks whose cycle holds it *)
}

(* One iteration of a hot cycle of blocks as a flat {!Decoded.trace};
   the [k + 1] prefix sums hold what positions [0 .. j-1] add to the
   run's counters. *)
and vsuper = {
  vs_trace : Decoded.trace;
  vs_blocks : vblock array;
  vs_pcs : int array;  (* position [j]'s entry pc *)
  vs_s0 : int array;  (* position [j]'s slot-0 stall, 0 or 1 *)
  vs_insns : int array;
  vs_cycles : int array;
  vs_stalls : int array;
  vs_reds : int array;  (* positions left by a redirect *)
}

let run_encoded ?(config = Run_config.default) ?(args = []) ?on_retire ?(obs = Obs.none)
    ?on_finish ~text ~text_base ~entry ~data ~data_base () =
  (* every run borrows its domain's pooled RAM; one whose [on_finish]
     saw the RAM never hands it back, since the callback may keep it *)
  let mem = Memory.acquire ~size_bytes:config.Run_config.mem_size in
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
    let result =
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
    if Option.is_none on_finish then Memory.release mem;
    result
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
     block's prefixes. Hot cycles of blocks run as superblocks, as in
     the SOFIA core. Same event/metric stream as the reference loop
     modulo the engine_* counters, which count blocks. ---- *)
  let run_fast () =
    let regs = Machine.regs machine in
    let fuel = config.Run_config.fuel in
    let hooks = tracing || Option.is_some on_retire in
    (* no superblock where a hook watches single retires *)
    let supers = not hooks in
    let miss_penalty = timing.Timing.icache_miss_penalty in
    let stall = timing.Timing.load_use_stall in
    let branch_penalty = timing.Timing.taken_branch_penalty in
    let line_mask = lnot (config.Run_config.icache.Icache.line_bytes - 1) in
    let next = Decoded.res_next in
    let vblock d = { vb_dec = d; vb_exit = 0; vb_exit_res = next; vb_heat = 0; vb_super = None; vb_member = 0 } in
    (* [unbuilt] (compared physically) marks an entry not compiled yet *)
    let unbuilt = vblock (Decoded.compile ~timing ~regs ~mem ~first:0 [||]) in
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
      vblock
        (Decoded.compile ~timing ~regs ~mem ~first:(text_base + (4 * i))
           (Array.of_list (List.rev (collect i []))))
    in
    let block i =
      let b = Array.unsafe_get blocks i in
      if b != unbuilt then begin
        (match mx with Some m -> m.Metrics.engine_hits <- m.Metrics.engine_hits + 1 | None -> ());
        b
      end
      else begin
        (match mx with
         | Some m -> m.Metrics.engine_misses <- m.Metrics.engine_misses + 1
         | None -> ());
        let b = compile i in
        blocks.(i) <- b;
        b
      end
    in
    (* account the first [c >= 1] slots of a visit whose slot 0
       stalled [s0] (0 or 1) times *)
    let leave (d : Decoded.t) s0 c =
      instructions := !instructions + c;
      (match mx with Some m -> m.Metrics.retires <- m.Metrics.retires + c | None -> ());
      cycles := !cycles + Array.unsafe_get d.Decoded.cost_pre c + (s0 * stall);
      load_use := !load_use + Array.unsafe_get d.Decoded.stall_pre c + s0;
      Icache.count_hits icache (c - 1)
    in
    (* the block that block [i]'s last exit entered, or -1 *)
    let succ i =
      let b = blocks.(i) in
      let c = b.vb_exit and res = b.vb_exit_res in
      let target =
        if c = 0 then -1
        else if res = next then
          if c = Array.length b.vb_dec.Decoded.ops then text_base + (4 * (i + c)) else -1
        else res
      in
      let rel = target - text_base in
      if target < 0 || rel < 0 || rel land 3 <> 0 || rel lsr 2 >= n then -1 else rel lsr 2
    in
    let exit_latch i =
      let b = blocks.(i) in
      if b.vb_exit_res = next then
        Decoded.loaded_dest (Array.unsafe_get b.vb_dec.Decoded.ops (b.vb_exit - 1))
      else Decoded.no_load
    in
    (* the length of the cycle from block [i], position [k], back to
       [h], or 0; defined once per run, so that a walk allocates
       nothing *)
    let rec cycle_length h i k =
      let ni = succ i in
      if ni < 0 || k > Decoded.max_parts then 0
      else if ni = h && exit_latch i = Decoded.no_load then k
      else if blocks.(ni) == unbuilt then 0
      else cycle_length h ni (k + 1)
    in
    (* Close a superblock headed by block [h], entered with no pending
       load: follow each block's last exit until the walk is back at
       [h] with no pending load, each position's slot-0 stall fixed by
       the latch the cycle enters it with, and the blocks' lines able to
       be resident together. A walk that does not close allocates
       nothing. *)
    let close_super h =
      let k = cycle_length h h 1 in
      if k > 0 then begin
        let idx = Array.make k h in
        for j = 1 to k - 1 do
          idx.(j) <- succ idx.(j - 1)
        done;
        let pcs = Array.map (fun i -> text_base + (4 * i)) idx in
        if Icache.conflict_free icache pcs then begin
          let bs = Array.map (fun i -> blocks.(i)) idx in
          let s0 =
            Array.init k (fun j ->
                let latch = if j = 0 then Decoded.no_load else exit_latch idx.(j - 1) in
                if Decoded.uses bs.(j).vb_dec.Decoded.ops.(0) latch then 1 else 0)
          in
          let pre f =
            let a = Array.make (k + 1) 0 in
            for j = 0 to k - 1 do
              a.(j + 1) <- a.(j) + f bs.(j) s0.(j)
            done;
            a
          in
          Array.iter (fun b -> b.vb_member <- b.vb_member + 1) bs;
          blocks.(h).vb_heat <- Decoded.heat_threshold;
          blocks.(h).vb_super <-
            Some
              {
                vs_trace =
                  Decoded.trace
                    (Array.mapi (fun j b -> (b.vb_dec, pcs.(j), b.vb_exit, b.vb_exit_res)) bs);
                vs_blocks = bs;
                vs_pcs = pcs;
                vs_s0 = s0;
                vs_insns = pre (fun b _ -> b.vb_exit);
                vs_cycles =
                  pre (fun b s0 ->
                      b.vb_dec.Decoded.cost_pre.(b.vb_exit) + (s0 * stall)
                      + if b.vb_exit_res = next then 0 else branch_penalty);
                vs_stalls = pre (fun b s0 -> b.vb_dec.Decoded.stall_pre.(b.vb_exit) + s0);
                vs_reds = pre (fun b _ -> if b.vb_exit_res = next then 0 else 1);
              }
        end
      end
    in
    (* What [iters] whole iterations and positions [0 .. j-1] of the
       next one add to the run, as [visit]/[settle] and [enter] would
       have accounted them, plus position [j]'s icache probe when
       [entered]. *)
    let account_super vs ~iters ~j ~entered =
      let k = Array.length vs.vs_blocks in
      let insns = (iters * vs.vs_insns.(k)) + vs.vs_insns.(j) in
      instructions := !instructions + insns;
      cycles := !cycles + (iters * vs.vs_cycles.(k)) + vs.vs_cycles.(j);
      load_use := !load_use + (iters * vs.vs_stalls.(k)) + vs.vs_stalls.(j);
      redirects := !redirects + (iters * vs.vs_reds.(k)) + vs.vs_reds.(j);
      Icache.count_hits icache (if entered then insns + 1 else insns);
      match mx with
      | Some m ->
        m.Metrics.retires <- m.Metrics.retires + insns;
        m.Metrics.engine_hits <- m.Metrics.engine_hits + (iters * k) + j
      | None -> ()
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
          let b = block i in
          (* below the heat threshold an entry only counts itself; see
             the SOFIA core's [exec_block] *)
          let heat = b.vb_heat in
          if heat < Decoded.heat_threshold then begin
            b.vb_heat <- heat + 1;
            visit b pc latch
          end
          else if latch <> Decoded.no_load then visit b pc latch
          else
            match b.vb_super with
            | Some vs -> enter_super b pc vs
            | None ->
              b.vb_heat <- 0;
              if supers && b.vb_member = 0 then close_super i;
              visit b pc latch
        end
      end
    and visit b pc latch =
      let ops = b.vb_dec.Decoded.ops in
      if not (Icache.access icache pc) then cycles := !cycles + miss_penalty;
      if Array.length ops = 0 then
        finish
          (Machine.Cpu_reset
             (Machine.Invalid_opcode { address = pc; word = text.((pc - text_base) lsr 2) }))
      else walk b pc (if Decoded.uses (Array.unsafe_get ops 0) latch then 1 else 0) 0
    (* the slot walk from slot [k0]: one slot closure and one hook test
       per slot *)
    and walk b pc s0 k0 =
      let d = b.vb_dec in
      let exec = d.Decoded.exec in
      let len = Array.length exec in
      let room = fuel - !instructions in
      let lim = if room < len then room else len in
      let k = ref k0 and res = ref next in
      match
        while !res = next && !k < lim do
          let pc = pc + (4 * !k) in
          if hooks then begin
            if tracing then Obs.emit obs (Event.Retire { pc });
            match on_retire with
            | Some f -> f ~pc ~insn:(Array.unsafe_get d.Decoded.insns !k)
            | None -> ()
          end;
          res := (Array.unsafe_get exec !k) ();
          incr k
        done
      with
      | exception Memory.Bus_error address ->
        leave d s0 (!k + 1);
        Machine.set_pc machine (pc + (4 * !k));
        finish (Machine.Cpu_reset (Machine.Bus_fault { address }))
      | () -> settle b pc s0 !k !res
    and settle b pc s0 c res =
      let d = b.vb_dec in
      leave d s0 c;
      if res = next then begin
        (* fell off the block, or out of fuel: [enter] checks fuel
           before anything else *)
        b.vb_exit <- c;
        b.vb_exit_res <- res;
        enter (pc + (4 * c)) (Decoded.loaded_dest (Array.unsafe_get d.Decoded.ops (c - 1)))
      end
      else if res >= 0 then begin
        incr redirects;
        cycles := !cycles + branch_penalty;
        b.vb_exit <- c;
        b.vb_exit_res <- res;
        enter res Decoded.no_load
      end
      else begin
        Machine.set_pc machine (pc + (4 * (c - 1)));
        finish (Machine.Halted (Decoded.halt_code res))
      end
    (* whole iterations of [vs], then an exact exit: the pc [enter] set
       for the head stays until a side exit or the last iteration hands
       a visit back to [walk]/[settle]/[visit] *)
    and enter_super head pc vs =
      let tr = vs.vs_trace in
      let budget = Decoded.budget tr icache ~room:(fuel - 1 - !instructions) in
      if budget < 1 then visit head pc Decoded.no_load
      else begin
        (match mx with Some m -> m.Metrics.engine_traces <- m.Metrics.engine_traces + 1 | None -> ());
        match Decoded.run_trace tr ~budget with
        | exception Memory.Bus_error address ->
          let j = tr.Decoded.t_part.(tr.Decoded.t_slot) in
          let i = tr.Decoded.t_local.(tr.Decoded.t_slot) in
          account_super vs ~iters:tr.Decoded.t_iters ~j ~entered:true;
          leave vs.vs_blocks.(j).vb_dec vs.vs_s0.(j) (i + 1);
          Machine.set_pc machine (vs.vs_pcs.(j) + (4 * i));
          finish (Machine.Cpu_reset (Machine.Bus_fault { address }))
        | () ->
          if tr.Decoded.t_iters = budget then begin
            account_super vs ~iters:budget ~j:0 ~entered:false;
            visit head pc Decoded.no_load
          end
          else begin
            let s = tr.Decoded.t_slot in
            let j = tr.Decoded.t_part.(s) in
            let c = tr.Decoded.t_local.(s) + 1 in
            account_super vs ~iters:tr.Decoded.t_iters ~j ~entered:true;
            if not (Decoded.keeps_paying tr) then begin
              Array.iter (fun b -> b.vb_member <- b.vb_member - 1) vs.vs_blocks;
              head.vb_super <- None;
              head.vb_heat <- min_int
            end;
            let b = vs.vs_blocks.(j) and pcj = vs.vs_pcs.(j) and s0 = vs.vs_s0.(j) in
            if tr.Decoded.t_res = next then walk b pcj s0 c else settle b pcj s0 c tr.Decoded.t_res
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
