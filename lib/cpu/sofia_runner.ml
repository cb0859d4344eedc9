module Insn = Sofia_isa.Insn
module Reg = Sofia_isa.Reg
module Encoding = Sofia_isa.Encoding
module Keys = Sofia_crypto.Keys
module Ctr = Sofia_crypto.Ctr
module Cbc_mac = Sofia_crypto.Cbc_mac
module Image = Sofia_transform.Image
module Block = Sofia_transform.Block
module Backend_id = Sofia_transform.Backend_id
module Scfp = Sofia_transform.Scfp
module Obs = Sofia_obs.Obs
module Event = Sofia_obs.Event
module Metrics = Sofia_obs.Metrics

type fetch_outcome =
  | Block_ok of { base : int; kind : Block.kind; insns : Insn.t array }
  | Fetch_violation of Machine.violation

type entry_style = Exec_entry | Mux_path1 | Mux_path2

let classify ~text_base target =
  let rel = target - text_base in
  if rel >= 0 && rel mod Block.size_bytes = 0 then (Exec_entry, target)
  else if rel >= 0 && rel mod Block.size_bytes = 4 then (Mux_path1, target - 4)
  else if rel >= 0 && rel mod Block.size_bytes = 8 then (Mux_path2, target - 8)
  else (Exec_entry, target)

(* the block a redirect to [target] lands in — the SOFIA frontend's
   port classification, or plain align-down under SCFP (one port per
   block, offset 0) *)
let block_base ~(image : Image.t) target =
  match image.Image.backend with
  | Backend_id.Sofia -> snd (classify ~text_base:image.Image.text_base target)
  | Backend_id.Scfp ->
    let rel = target - image.Image.text_base in
    if rel >= 0 then target - (rel mod Block.size_bytes) else target

(* decode the verified instruction words into a runnable block body —
   shared post-verdict tail of both frontends *)
let decode_block ~kind ~base ~first_off insn_words =
  let n = Array.length insn_words in
  let insns = Array.make n Insn.nop in
  let violation = ref None in
  Array.iteri
    (fun i w ->
      if !violation = None then
        match Encoding.decode w with
        | Some insn ->
          if kind = Block.Exec && Block.store_banned_slot kind i && Insn.is_store insn then
            violation := Some (Machine.Store_in_banned_slot { address = base + first_off + (4 * i) })
          else insns.(i) <- insn
        | None ->
          violation := Some (Machine.Invalid_opcode { address = base + first_off + (4 * i); word = w }))
    insn_words;
  match !violation with
  | Some v -> Fetch_violation v
  | None -> Block_ok { base; kind; insns }

(* ---- SCFP frontend: decrypt-and-absorb duplex fetch ----

   The arriving sponge state is re-derived per edge instead of carried
   in a register, so a fetch outcome is a pure function of
   (target, prevPC, image bytes) — exactly the purity the per-edge
   memo and the fast engine's compiled cache already assume. A
   hardware SCFP core carries the rolling state forward; the
   re-derivation agrees with it on every edge because a predecessor
   block's bytes fully determine its exit state once its tag verified.

   Arrival rule (mirrors the patch table built in
   [Transform.scfp_encrypt_layout]):
   - reset edge: only the image entry gets the canonical state;
   - predecessor exits with a jalr: destination-indexed link patch,
     which binds the unique legitimate source's exit state;
   - fall-through to base+32: source-indexed [slot_fall] patch;
   - anything else (taken branch / jal): source-indexed [slot_direct].
   A transfer outside this rule XORs a filler or foreign patch into
   the state, the target block's tag comparison fails, and the fetch
   reports {!Machine.State_divergence} — detection latency 0, before
   any instruction of the block can retire. *)
let scfp_fetch ~obs ~(keys : Keys.t) ~(image : Image.t) ~target ~prev_pc =
  let tb = image.Image.text_base in
  let nblocks = Array.length image.Image.cipher / Block.words_per_block in
  let text_end = tb + (Block.size_bytes * nblocks) in
  if Array.length image.Image.patches < nblocks * Scfp.patch_words_per_block then
    (* malformed container: a patch table that cannot cover the text *)
    Fetch_violation (Machine.Bus_fault { address = target })
  else if target land 3 <> 0 then Fetch_violation (Machine.Misaligned_entry { address = target })
  else if not (target >= tb && target < text_end) then
    Fetch_violation (Machine.Bus_fault { address = target })
  else if (target - tb) mod Block.size_bytes <> 0 then
    Fetch_violation (Machine.Misaligned_entry { address = target })
  else begin
    let base = target in
    let s0 = Scfp.init ~keys ~nonce:image.Image.nonce in
    let block_index b = (b - tb) / Block.size_bytes in
    let words_of b =
      let w = Array.make Block.words_per_block 0 in
      let ok = ref true in
      for i = 0 to Block.words_per_block - 1 do
        match Image.fetch image (b + (4 * i)) with
        | Some v -> w.(i) <- v
        | None -> ok := false
      done;
      if !ok then Some w else None
    in
    (* re-derive a predecessor's exit state from its live bytes,
       re-checking its tag (a tampered predecessor is attributed at
       its own base, as the hardware would have caught it there) *)
    let exit_state_of pbase =
      match words_of pbase with
      | None -> Error (Machine.Bus_fault { address = pbase })
      | Some w ->
        let plain, (t0, t1), s_exit = Scfp.chain (Scfp.canonical ~s0 ~base:pbase) w 0 in
        if w.(0) = t0 && w.(1) = t1 then Ok (plain, s_exit)
        else Error (Machine.State_divergence { block_base = pbase })
    in
    let arriving =
      if prev_pc = Block.reset_prev_pc then
        if target = image.Image.entry then Ok (Scfp.canonical ~s0 ~base)
        else Error (Machine.State_divergence { block_base = base })
      else if
        not (prev_pc >= tb && prev_pc < text_end
            && (prev_pc - tb) mod Block.size_bytes = Block.exit_offset)
      then
        (* no exit state is defined at a non-exit prevPC: the transfer
           cannot be patched onto the canonical orbit *)
        Error (Machine.State_divergence { block_base = base })
      else begin
        let pbase = prev_pc - Block.exit_offset in
        match exit_state_of pbase with
        | Error v -> Error v
        | Ok (pplain, s_exit) ->
          let is_jalr =
            match Encoding.decode pplain.(Scfp.insn_words - 1) with
            | Some (Insn.Jalr _) -> true
            | Some _ | None -> false
          in
          if is_jalr then
            Ok
              (Int64.logxor
                 (Scfp.link_arrive ~s_exit ~target)
                 (Scfp.patch_get image.Image.patches (block_index base) Scfp.slot_link))
          else if target = pbase + Block.size_bytes then
            Ok
              (Int64.logxor s_exit
                 (Scfp.patch_get image.Image.patches (block_index pbase) Scfp.slot_fall))
          else
            Ok
              (Int64.logxor s_exit
                 (Scfp.patch_get image.Image.patches (block_index pbase) Scfp.slot_direct))
      end
    in
    match arriving with
    | Error v -> Fetch_violation v
    | Ok s_in ->
      (match words_of base with
       | None -> Fetch_violation (Machine.Bus_fault { address = base })
       | Some w ->
         (match obs.Obs.metrics with
          | Some m -> m.Metrics.words_decrypted <- m.Metrics.words_decrypted + Scfp.insn_words
          | None -> ());
         if Obs.tracing obs then
           Obs.emit obs (Event.Edge_decrypt { target; prev_pc; words = Scfp.insn_words });
         let plain, (t0, t1), _ = Scfp.chain s_in w 0 in
         let ok = w.(0) = t0 && w.(1) = t1 in
         (match obs.Obs.metrics with
          | Some m ->
            m.Metrics.mac_verifies <- m.Metrics.mac_verifies + 1;
            if not ok then m.Metrics.mac_failures <- m.Metrics.mac_failures + 1
          | None -> ());
         if Obs.tracing obs then
           Obs.emit obs
             (Event.Mac_verify { block_base = base; kind = Event.Exec_mac; ok });
         if not ok then Fetch_violation (Machine.State_divergence { block_base = base })
         else
           decode_block ~kind:Block.Exec ~base
             ~first_off:(Block.first_insn_offset Block.Exec) plain)
  end

let sofia_fetch_observed ?ks_cache ~obs ~(keys : Keys.t) ~(image : Image.t) ~target ~prev_pc () =
  if target land 3 <> 0 then Fetch_violation (Machine.Misaligned_entry { address = target })
  else begin
    let style, base = classify ~text_base:image.Image.text_base target in
    let word offset =
      match Image.fetch image (base + offset) with
      | Some w -> Some w
      | None -> None
    in
    (* one probe per keystream word: the unit of decrypt-pipeline work *)
    let words_decrypted = ref 0 in
    let ks_probe =
      if Obs.live obs then
        Some
          (fun () ->
            incr words_decrypted;
            match obs.Obs.metrics with
            | Some m -> m.Metrics.words_decrypted <- m.Metrics.words_decrypted + 1
            | None -> ())
      else None
    in
    let keystream ~prev ~pc =
      Ctr.keystream32 ?probe:ks_probe ?cache:ks_cache keys.Keys.k1 ~nonce:image.Image.nonce
        ~prev_pc:prev ~pc
    in
    (* addresses used as counters must stay in range; out-of-range
       (attacker-chosen wild) values are a bus fault, like hardware
       fetching outside program memory *)
    let in_counter_range a = a >= 0 && a / 4 < 1 lsl 28 in
    if not (in_counter_range base && in_counter_range prev_pc) then
      Fetch_violation (Machine.Bus_fault { address = base })
    else begin
      (match style with
       | Exec_entry -> ()
       | Mux_path1 | Mux_path2 ->
         let path = match style with Mux_path1 -> 1 | _ -> 2 in
         (match obs.Obs.metrics with
          | Some m ->
            if path = 1 then m.Metrics.mux_path1 <- m.Metrics.mux_path1 + 1
            else m.Metrics.mux_path2 <- m.Metrics.mux_path2 + 1
          | None -> ());
         if Obs.tracing obs then Obs.emit obs (Event.Mux_select { block_base = base; path }));
      let fail_bus off = Fetch_violation (Machine.Bus_fault { address = base + off }) in
      let decrypt ~prev ~off =
        match word off with
        | None -> None
        | Some w -> Some (w lxor keystream ~prev ~pc:(base + off))
      in
      (* interior chain: word at offset o has prevPC = o - 4 *)
      let interior off = decrypt ~prev:(base + off - 4) ~off in
      let check_and_build ~kind ~m1 ~m2 ~insn_words ~first_off =
        if Obs.tracing obs then
          Obs.emit obs (Event.Edge_decrypt { target; prev_pc; words = !words_decrypted });
        let mac_ok = Cbc_mac.verify_words (Block.mac_key keys kind) insn_words ~m1 ~m2 in
        (match obs.Obs.metrics with
         | Some m ->
           m.Metrics.mac_verifies <- m.Metrics.mac_verifies + 1;
           if not mac_ok then m.Metrics.mac_failures <- m.Metrics.mac_failures + 1
         | None -> ());
        if Obs.tracing obs then
          Obs.emit obs
            (Event.Mac_verify
               { block_base = base;
                 kind = (match kind with Block.Exec -> Event.Exec_mac | Block.Mux -> Event.Mux_mac);
                 ok = mac_ok });
        if not mac_ok then Fetch_violation (Machine.Mac_mismatch { block_base = base })
        else decode_block ~kind ~base ~first_off insn_words
      in
      match style with
      | Exec_entry ->
        let m1 = decrypt ~prev:prev_pc ~off:0 in
        let rest = List.init 7 (fun i -> interior (4 * (i + 1))) in
        (match m1 :: rest with
         | [ Some m1; Some m2; Some w0; Some w1; Some w2; Some w3; Some w4; Some w5 ] ->
           check_and_build ~kind:Block.Exec ~m1 ~m2 ~insn_words:[| w0; w1; w2; w3; w4; w5 |]
             ~first_off:(Block.first_insn_offset Block.Exec)
         | _ -> fail_bus 0)
      | Mux_path1 | Mux_path2 ->
        let m1 =
          match style with
          | Mux_path1 -> decrypt ~prev:prev_pc ~off:0
          | Mux_path2 | Exec_entry -> decrypt ~prev:prev_pc ~off:4
        in
        (* M2 uses prevPC = addr(M1e2) = base + 4 on both paths *)
        let m2 = interior 8 in
        let insn_opts = List.init 5 (fun i -> interior (12 + (4 * i))) in
        (match (m1, m2, insn_opts) with
         | Some m1, Some m2, [ Some w0; Some w1; Some w2; Some w3; Some w4 ] ->
           check_and_build ~kind:Block.Mux ~m1 ~m2 ~insn_words:[| w0; w1; w2; w3; w4 |]
             ~first_off:(Block.first_insn_offset Block.Mux)
         | _, _, _ -> fail_bus 0)
    end
  end

(* frontend dispatch: the image's own backend tag selects the fetch
   pipeline; both engines go through here, so the memo/compiled caches
   are backend-correct by construction *)
let fetch_block_observed ?ks_cache ~obs ~(keys : Keys.t) ~(image : Image.t) ~target ~prev_pc () =
  match image.Image.backend with
  | Backend_id.Sofia -> sofia_fetch_observed ?ks_cache ~obs ~keys ~image ~target ~prev_pc ()
  | Backend_id.Scfp -> scfp_fetch ~obs ~keys ~image ~target ~prev_pc

let fetch_block ~keys ~image ~target ~prev_pc =
  fetch_block_observed ~obs:Obs.none ~keys ~image ~target ~prev_pc ()

(* Decrypt outcomes are memoised per control-flow edge; the key packs
   (target, prevPC) into one immediate int so the hot lookup neither
   allocates a tuple nor runs the polymorphic hash. [target] is any
   32-bit address the machine may redirect to; [prev_pc] is always a
   structurally valid in-image address (< 2^30) or [Block.reset_prev_pc]
   (also < 2^30), so 32 + 31 bits pack injectively into an OCaml int. *)
module Edge_tbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash k = (k * 0x9E3779B97F4A7C1) lsr 32
end)

let edge_key ~target ~prev_pc = ((target land 0xFFFF_FFFF) lsl 31) lor (prev_pc land 0x7FFF_FFFF)

(* The fast engine's per-edge cache entry: the fetch outcome with the
   verified block compiled to its pre-decoded form. Compilation
   happens only in the [Block_ok] arm — i.e. strictly after the MAC
   verdict — so a MAC-failed (or otherwise violating) block can never
   acquire, let alone serve, a pre-decoded body.

   [cb_fall] / [cb_last_key]+[cb_last] chain a block to its fetched
   successors (the fallthrough edge is fixed; redirects keep the most
   recent (target, prevPC) edge), so the steady-state loop bypasses
   even the hashtable. A chained serve performs exactly the accounting
   of a memo hit — the chain is an L0 in front of the memo, not a
   different cache — and is consulted only when the memo is enabled
   and no transient fault is armed for the fetch.

   [cb_exit]/[cb_exit_res] remember how the block's last visit left it,
   and [cb_heat] counts its entries: a block entered
   {!Decoded.heat_threshold} times tries to close a cycle of last exits
   through its chains into a superblock ([cb_super]) — unless it lies
   on a live superblock's cycle ([cb_member] of them), which would only
   build that cycle again, rotated. A head's heat stays at the
   threshold, so every entry of it looks for its superblock; a dropped
   head's is parked at [min_int]. *)
type cblock = {
  cb_base : int;
  cb_first : int;  (* address of slot 0 *)
  cb_floor : int;  (* decoupled-frontend fetch floor for this kind *)
  cb_dec : Decoded.t;
  mutable cb_fall : compiled;
  mutable cb_last_key : int;  (* packed edge key of [cb_last], or min_int *)
  mutable cb_last : compiled;
  mutable cb_exit : int;  (* slots the last visit retired, 0 before one left *)
  mutable cb_exit_res : int;  (* its last slot result *)
  mutable cb_heat : int;
  mutable cb_super : super option;
  mutable cb_member : int;  (* live superblocks whose cycle holds it *)
}

and compiled = C_none | C_ok of cblock | C_violation of Machine.violation

(* A superblock: one iteration of a cycle of [C_ok] blocks, as a flat
   {!Decoded.trace} whose part [j] is position [j]'s visit. The arrays
   of [k + 1] prefix sums hold what positions [0 .. j-1] add to the
   run's counters, so any number of whole iterations and the positions
   of a partial one are accounted in one step. *)
and super = {
  sp_trace : Decoded.trace;
  sp_blocks : cblock array;
  sp_red : bool array;  (* position [j] is entered by a redirect *)
  sp_cyc : int array;  (* cycles of position [j]'s visit *)
  sp_insns : int array;
  sp_cycles : int array;
  sp_stalls : int array;
  sp_reds : int array;  (* positions entered by a redirect *)
}

let cblock ~timing ~regs ~mem ~base ~kind insns =
  let words_fetched = Block.words_per_block - (Block.mac_words kind - 2) in
  {
    cb_base = base;
    cb_first = base + Block.first_insn_offset kind;
    cb_floor = Timing.block_fetch_floor timing ~words_fetched;
    cb_dec =
      Decoded.compile ~timing ~regs ~mem ~first:(base + Block.first_insn_offset kind) insns;
    cb_fall = C_none;
    cb_last_key = min_int;
    cb_last = C_none;
    cb_exit = 0;
    cb_exit_res = Decoded.res_next;
    cb_heat = 0;
    cb_super = None;
    cb_member = 0;
  }

let run ?(config = Run_config.default) ?(args = []) ?fault ?on_retire ?(obs = Obs.none) ?on_finish
    ?prefill ~(keys : Keys.t) (image : Image.t) =
  (* every run borrows its domain's pooled RAM; one whose [on_finish]
     saw the RAM never hands it back, since the callback may keep it *)
  let mem = Memory.acquire ~size_bytes:config.Run_config.mem_size in
  Memory.load_bytes mem ~addr:image.Image.data_base image.Image.data;
  let machine = Machine.create ~entry:image.Image.entry ~sp:(Run_config.initial_sp config) in
  List.iteri (fun i v -> if i < 8 then Machine.write_reg machine (Reg.a i) v) args;
  let tracing = Obs.tracing obs in
  let mx = obs.Obs.metrics in
  let icache = Icache.create config.Run_config.icache in
  let ks_cache =
    match config.Run_config.ks_cache_slots with
    | Some slots -> Some (Ctr.Cache.create ~slots ())
    | None -> None
  in
  let timing = config.Run_config.timing in
  let memoise = config.Run_config.edge_memo in
  let cycles = ref 0 in
  let instructions = ref 0 in
  let mac_words = ref 0 in
  let blocks = ref 0 in
  let redirects = ref 0 in
  let load_use = ref 0 in
  let fetch_count = ref 0 in
  (* shared pre-memo fetch accounting: every frontend fetch request,
     whichever engine and whether or not a cache will serve it *)
  let count_fetch ~target ~prev_pc =
    incr fetch_count;
    (match mx with Some m -> m.Metrics.block_fetches <- m.Metrics.block_fetches + 1 | None -> ());
    if tracing then Obs.emit obs (Event.Block_fetch { target; prev_pc })
  in
  (* the transient fetch-path fault, when armed for this fetch: one bit
     of the fetched 8-word group flips; caches are bypassed in both
     directions (the fault must neither be served from nor poison any
     memo) *)
  let fault_armed () = match fault with Some (n, _) -> !fetch_count = n | None -> false in
  let faulted_fetch ~target ~prev_pc =
    let bit = match fault with Some (_, b) -> b | None -> 0 in
    let base = block_base ~image target in
    let address = base + (4 * (bit / 32 mod Block.words_per_block)) in
    match Image.fetch image address with
    | Some w ->
      let faulted =
        Image.with_tampered_word image ~address ~value:(w lxor (1 lsl (bit mod 32)))
      in
      fetch_block_observed ?ks_cache ~obs ~keys ~image:faulted ~target ~prev_pc ()
    | None -> fetch_block_observed ?ks_cache ~obs ~keys ~image ~target ~prev_pc ()
  in
  let finish outcome =
    (match outcome with
     | Machine.Cpu_reset v ->
       (match mx with Some m -> m.Metrics.resets <- m.Metrics.resets + 1 | None -> ());
       if tracing then
         Obs.emit obs
           (Event.Reset
              { kind = Machine.violation_label v; address = Machine.violation_address v })
     | Machine.Halted code ->
       if tracing then Obs.emit obs (Event.Halt { code })
     | Machine.Out_of_fuel -> if tracing then Obs.emit obs Event.Fuel_exhausted);
    (match (ks_cache, mx) with
     | Some c, Some m ->
       m.Metrics.ks_cache_hits <- m.Metrics.ks_cache_hits + Ctr.Cache.hits c;
       m.Metrics.ks_cache_misses <- m.Metrics.ks_cache_misses + Ctr.Cache.misses c;
       m.Metrics.ks_cache_evictions <- m.Metrics.ks_cache_evictions + Ctr.Cache.evictions c
     | _ -> ());
    (* the icache is probed per block visit; its totals reach the
       metrics once, here *)
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
            mac_words_fetched = !mac_words;
            blocks_entered = !blocks;
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
  let violation v =
    (match mx with Some m -> m.Metrics.violations <- m.Metrics.violations + 1 | None -> ());
    if tracing then
      Obs.emit obs
        (Event.Violation { kind = Machine.violation_label v; address = Machine.violation_address v });
    finish (Machine.Cpu_reset v)
  in
  (* ---- the reference engine: the original per-instruction
     interpreter, kept as the differential oracle ---- *)
  let run_ref () =
    let pending_load : Reg.t option ref = ref None in
    (* memoised frontend: decryption is deterministic per (target, prevPC) *)
    let fetch_cache : fetch_outcome Edge_tbl.t = Edge_tbl.create 1024 in
    let fetch ~target ~prev_pc =
      count_fetch ~target ~prev_pc;
      if fault_armed () then faulted_fetch ~target ~prev_pc
      else if not memoise then fetch_block_observed ?ks_cache ~obs ~keys ~image ~target ~prev_pc ()
      else begin
        let key = edge_key ~target ~prev_pc in
        match Edge_tbl.find_opt fetch_cache key with
        | Some r ->
          (match mx with Some m -> m.Metrics.memo_hits <- m.Metrics.memo_hits + 1 | None -> ());
          if tracing then Obs.emit obs (Event.Memo_hit { target; prev_pc });
          r
        | None ->
          (match mx with Some m -> m.Metrics.memo_misses <- m.Metrics.memo_misses + 1 | None -> ());
          if tracing then Obs.emit obs (Event.Memo_miss { target; prev_pc });
          let r = fetch_block_observed ?ks_cache ~obs ~keys ~image ~target ~prev_pc () in
          Edge_tbl.replace fetch_cache key r;
          r
      end
    in
    let rec run_block ~target ~prev_pc ~redirected =
      if !instructions >= config.Run_config.fuel then finish Machine.Out_of_fuel
      else
        match fetch ~target ~prev_pc with
        | Fetch_violation v -> violation v
        | Block_ok { base; kind; insns } ->
          incr blocks;
          (match mx with
           | Some m -> m.Metrics.blocks_entered <- m.Metrics.blocks_entered + 1
           | None -> ());
          let missed = not (Icache.access icache base) in
          if tracing then Obs.emit obs (Event.Block_enter { base; icache_hit = not missed });
          if redirected then incr redirects;
          (* MAC words per visit: 2 (a multiplexor path skips one of the
             three). They are absorbed by the verify unit; their cost is
             the fetch-bandwidth floor below. *)
          mac_words := !mac_words + 2;
          pending_load := None;
          let first_off = Block.first_insn_offset kind in
          let words_fetched = Block.words_per_block - (Block.mac_words kind - 2) in
          (* execution cycles of this block visit, compared against the
             decoupled frontend's fetch floor when the block completes *)
          let bcost = ref 0 in
          let finalize () =
            let c0 = !cycles in
            (match timing.Timing.frontend with
             | Timing.Decoupled ->
               let floor = Timing.block_fetch_floor timing ~words_fetched in
               cycles := !cycles + max !bcost floor
             | Timing.In_order ->
               (* every fetched word is a pipeline slot: the two MAC
                  words cost their nop slots on top of the instructions *)
               cycles := !cycles + !bcost + (2 * timing.Timing.mac_word_cycle));
            if missed then cycles := !cycles + timing.Timing.icache_miss_penalty;
            if redirected then cycles := !cycles + timing.Timing.decrypt_redirect_extra;
            match mx with
            | Some m -> Metrics.hist_observe m.Metrics.block_cycles (!cycles - c0)
            | None -> ()
          in
          let rec exec_slot i =
            if i >= Array.length insns then begin
              (* fall through to the next block *)
              finalize ();
              let exit_addr = base + Block.exit_offset in
              run_block ~target:(base + Block.size_bytes) ~prev_pc:exit_addr ~redirected:false
            end
            else if !instructions >= config.Run_config.fuel then begin
              finalize ();
              finish Machine.Out_of_fuel
            end
            else begin
              let insn = insns.(i) in
              let pc = base + first_off + (4 * i) in
              Machine.set_pc machine pc;
              incr instructions;
              (match mx with Some m -> m.Metrics.retires <- m.Metrics.retires + 1 | None -> ());
              if tracing then Obs.emit obs (Event.Retire { pc });
              (match on_retire with Some f -> f ~pc ~insn | None -> ());
              bcost := !bcost + Timing.insn_cost timing insn;
              (match !pending_load with
               | Some rd when Vanilla.reads_reg insn rd ->
                 bcost := !bcost + timing.Timing.load_use_stall;
                 incr load_use
               | Some _ | None -> ());
              pending_load := (if Insn.is_load insn then Vanilla.dest insn else None);
              match Machine.execute machine mem insn with
              | exception Memory.Bus_error address ->
                finalize ();
                violation (Machine.Bus_fault { address })
              | Machine.Next -> exec_slot (i + 1)
              | Machine.Redirect tgt ->
                bcost := !bcost + timing.Timing.taken_branch_penalty;
                finalize ();
                run_block ~target:tgt ~prev_pc:pc ~redirected:true
              | Machine.Halt code ->
                finalize ();
                finish (Machine.Halted code)
            end
          in
          exec_slot 0
    in
    run_block ~target:image.Image.entry ~prev_pc:Block.reset_prev_pc ~redirected:true
  in
  (* ---- the fast engine: verified blocks execute from a per-edge
     cache of pre-decoded bodies ({!Decoded}); the cache key is the
     same packed (target, prevPC) edge as the reference memo, entries
     are compiled only after the MAC verdict, transient-fault fetches
     bypass the cache in both directions, and the whole cache is
     flushed on any violation. Every trace event and shared metric is
     emitted exactly as the reference engine does; only the
     engine_hits / engine_misses / engine_invalidations / engine_traces
     counters are specific to this path. ---- *)
  let run_fast () =
    let regs = Machine.regs machine in
    let ctable : compiled Edge_tbl.t = Edge_tbl.create 1024 in
    (* Warm-start seeding from a persisted {!Block_table}: every entry
       was individually MAC-verified when the table was built and the
       store re-derived the artifact's MAC verdict on load, so seeding
       preserves the compiled-strictly-after-verdict invariant. Each
       entry is re-validated ({!Block_table.decode_entry}) and built
       inline rather than through [compile_outcome] — a prefilled edge
       is neither an engine miss nor a hit until the machine actually
       fetches it. Violations still flush the whole table, prefilled
       entries included. *)
    (match prefill with
     | Some tbl when memoise ->
       Array.iter
         (fun (e : Block_table.entry) ->
           match Block_table.decode_entry e with
           | None -> ()
           | Some insns ->
             let c =
               C_ok
                 (cblock ~timing ~regs ~mem ~base:e.Block_table.base ~kind:e.Block_table.kind insns)
             in
             let key = edge_key ~target:e.Block_table.target ~prev_pc:e.Block_table.prev_pc in
             if not (Edge_tbl.mem ctable key) then Edge_tbl.replace ctable key c)
         tbl
     | _ -> ());
    let fuel = config.Run_config.fuel in
    let hooks = tracing || Option.is_some on_retire in
    let live = Obs.live obs in
    let faults = Option.is_some fault in
    (* superblocks run only where nothing can watch a single visit:
       no retire hook, no trace, no armed fault, and the memo on (a
       cold frontend re-decrypts every fetch) *)
    let supers = memoise && not (hooks || faults) in
    let decoupled = timing.Timing.frontend = Timing.Decoupled in
    let mac2 = 2 * timing.Timing.mac_word_cycle in
    let miss_penalty = timing.Timing.icache_miss_penalty in
    let redirect_extra = timing.Timing.decrypt_redirect_extra in
    let branch_penalty = timing.Timing.taken_branch_penalty in
    let next = Decoded.res_next in
    let compile_outcome = function
      | Block_ok { base; kind; insns } ->
        (match mx with
         | Some m -> m.Metrics.engine_misses <- m.Metrics.engine_misses + 1
         | None -> ());
        C_ok (cblock ~timing ~regs ~mem ~base ~kind insns)
      | Fetch_violation v -> C_violation v
    in
    (* accounting of a fetch served without re-decrypting — identical
       whether it comes from the hashtable or a chain pointer *)
    let memo_hit ~target ~prev_pc c =
      (match mx with
       | Some m ->
         m.Metrics.memo_hits <- m.Metrics.memo_hits + 1;
         (match c with
          | C_ok _ -> m.Metrics.engine_hits <- m.Metrics.engine_hits + 1
          | C_violation _ | C_none -> ())
       | None -> ());
      if tracing then Obs.emit obs (Event.Memo_hit { target; prev_pc })
    in
    (* the memoised fetch body; runs after [count_fetch], never when a
       fault is armed for this fetch *)
    let fetch_memo ~target ~prev_pc =
      let key = edge_key ~target ~prev_pc in
      match Edge_tbl.find ctable key with
      | c ->
        memo_hit ~target ~prev_pc c;
        c
      | exception Not_found ->
        (match mx with Some m -> m.Metrics.memo_misses <- m.Metrics.memo_misses + 1 | None -> ());
        if tracing then Obs.emit obs (Event.Memo_miss { target; prev_pc });
        let c =
          compile_outcome (fetch_block_observed ?ks_cache ~obs ~keys ~image ~target ~prev_pc ())
        in
        Edge_tbl.replace ctable key c;
        c
    in
    let fetch ~target ~prev_pc =
      count_fetch ~target ~prev_pc;
      if fault_armed () then compile_outcome (faulted_fetch ~target ~prev_pc)
      else if not memoise then
        compile_outcome (fetch_block_observed ?ks_cache ~obs ~keys ~image ~target ~prev_pc ())
      else fetch_memo ~target ~prev_pc
    in
    (* a violation ends the run in a CPU reset: drop every pre-decoded
       body with it — and every superblock, which only cache entries
       hold — so nothing compiled can outlive the verdict that
       justified it *)
    let violation_invalidate v =
      Edge_tbl.reset ctable;
      (match mx with
       | Some m -> m.Metrics.engine_invalidations <- m.Metrics.engine_invalidations + 1
       | None -> ());
      violation v
    in
    (* the visit cycles [finalize_block] adds, as a pure function *)
    let visit_cycles (r : cblock) ~missed ~redirected bcost =
      (if decoupled then if bcost > r.cb_floor then bcost else r.cb_floor else bcost + mac2)
      + (if missed then miss_penalty else 0)
      + if redirected then redirect_extra else 0
    in
    (* the entry block [r]'s last exit chained to, or [C_none] *)
    let succ (r : cblock) =
      let c = r.cb_exit and res = r.cb_exit_res in
      if c = 0 then C_none
      else if res = next then if c = Array.length r.cb_dec.Decoded.ops then r.cb_fall else C_none
      else if res >= 0 && r.cb_last_key = edge_key ~target:res ~prev_pc:(r.cb_first + (4 * (c - 1)))
      then r.cb_last
      else C_none
    in
    (* the length of the cycle from [r], position [k], back to [head],
       or 0; defined once per run, so that a walk allocates nothing *)
    let rec cycle_length head ~redirected r k =
      match succ r with
      | C_ok s when k <= Decoded.max_parts ->
        if s == head && (r.cb_exit_res <> next) = redirected then k
        else cycle_length head ~redirected s (k + 1)
      | C_ok _ | C_none | C_violation _ -> 0
    in
    (* Close a superblock headed by [head], entered by a redirect or not
       as [redirected] says: follow each block's last exit through its
       chain pointers until the walk is back at [head], entered the same
       way. Every position is a [C_ok] block
       (verified in this run, or a MAC-verified prefill entry), and the
       blocks' icache lines must fit together, so that once all of them
       are resident a whole iteration hits. A walk that does not close
       allocates nothing. *)
    let close_super head ~redirected =
      let k = cycle_length head ~redirected head 1 in
      if k > 0 then begin
        let bs = Array.make k head in
        for j = 1 to k - 1 do
          bs.(j) <- (match succ bs.(j - 1) with C_ok s -> s | C_none | C_violation _ -> head)
        done;
        if Icache.conflict_free icache (Array.map (fun r -> r.cb_base) bs) then begin
          let red = Array.make k false and cyc = Array.make k 0 in
          let insns = Array.make (k + 1) 0 and cycles = Array.make (k + 1) 0 in
          let stalls = Array.make (k + 1) 0 and reds = Array.make (k + 1) 0 in
          for j = 0 to k - 1 do
            let r = bs.(j) and c = bs.(j).cb_exit in
            red.(j) <- bs.((j + k - 1) mod k).cb_exit_res <> next;
            cyc.(j) <-
              visit_cycles r ~missed:false ~redirected:red.(j)
                (r.cb_dec.Decoded.cost_pre.(c) + if r.cb_exit_res = next then 0 else branch_penalty);
            insns.(j + 1) <- insns.(j) + c;
            cycles.(j + 1) <- cycles.(j) + cyc.(j);
            stalls.(j + 1) <- stalls.(j) + r.cb_dec.Decoded.stall_pre.(c);
            reds.(j + 1) <- (reds.(j) + if red.(j) then 1 else 0)
          done;
          Array.iter (fun r -> r.cb_member <- r.cb_member + 1) bs;
          head.cb_heat <- Decoded.heat_threshold;
          head.cb_super <-
            Some
              {
                sp_trace =
                  Decoded.trace
                    (Array.map (fun r -> (r.cb_dec, r.cb_base, r.cb_exit, r.cb_exit_res)) bs);
                sp_blocks = bs;
                sp_red = red;
                sp_cyc = cyc;
                sp_insns = insns;
                sp_cycles = cycles;
                sp_stalls = stalls;
                sp_reds = reds;
              }
        end
      end
    in
    (* What [iters] whole iterations and positions [0 .. j-1] of the
       next one add to the run, each visit as [exec_block] and each
       transition as a chained [continue_*] would have accounted it,
       plus the prologue of position [j]'s visit when [entered]. *)
    let account_super sp ~iters ~j ~entered =
      let k = Array.length sp.sp_blocks in
      let visits = (iters * k) + j in
      let insns = (iters * sp.sp_insns.(k)) + sp.sp_insns.(j) in
      let entries = if entered then visits + 1 else visits in
      let j' = if entered then j + 1 else j in
      instructions := !instructions + insns;
      cycles := !cycles + (iters * sp.sp_cycles.(k)) + sp.sp_cycles.(j);
      load_use := !load_use + (iters * sp.sp_stalls.(k)) + sp.sp_stalls.(j);
      blocks := !blocks + entries;
      redirects := !redirects + (iters * sp.sp_reds.(k)) + sp.sp_reds.(j');
      mac_words := !mac_words + (2 * entries);
      fetch_count := !fetch_count + visits;
      Icache.count_hits icache entries;
      match mx with
      | Some m ->
        m.Metrics.retires <- m.Metrics.retires + insns;
        m.Metrics.blocks_entered <- m.Metrics.blocks_entered + entries;
        m.Metrics.block_fetches <- m.Metrics.block_fetches + visits;
        m.Metrics.memo_hits <- m.Metrics.memo_hits + visits;
        m.Metrics.engine_hits <- m.Metrics.engine_hits + visits;
        for p = 0 to k - 1 do
          Metrics.hist_observe_n m.Metrics.block_cycles sp.sp_cyc.(p)
            (if p < j then iters + 1 else iters)
        done
      | None -> ()
    in
    let rec exec_c c ~redirected =
      match c with
      | C_violation v -> violation_invalidate v
      | C_ok r -> exec_block r ~redirected
      | C_none -> assert false
    (* block-to-block transitions: fuel first (as at entry), then the
       per-fetch accounting, the armed-fault bypass, and only then the
       chain / memo / cold fetch *)
    and continue_fall r =
      let target = r.cb_base + Block.size_bytes in
      let prev_pc = r.cb_base + Block.exit_offset in
      if !instructions >= fuel then finish Machine.Out_of_fuel
      else begin
        count_fetch ~target ~prev_pc;
        if faults && fault_armed () then
          exec_c (compile_outcome (faulted_fetch ~target ~prev_pc)) ~redirected:false
        else if not memoise then
          exec_c
            (compile_outcome (fetch_block_observed ?ks_cache ~obs ~keys ~image ~target ~prev_pc ()))
            ~redirected:false
        else begin
          match r.cb_fall with
          | C_none ->
            let c = fetch_memo ~target ~prev_pc in
            r.cb_fall <- c;
            exec_c c ~redirected:false
          | c ->
            if live then memo_hit ~target ~prev_pc c;
            exec_c c ~redirected:false
        end
      end
    and continue_redirect r ~target ~prev_pc =
      if !instructions >= fuel then finish Machine.Out_of_fuel
      else begin
        count_fetch ~target ~prev_pc;
        if faults && fault_armed () then
          exec_c (compile_outcome (faulted_fetch ~target ~prev_pc)) ~redirected:true
        else if not memoise then
          exec_c
            (compile_outcome (fetch_block_observed ?ks_cache ~obs ~keys ~image ~target ~prev_pc ()))
            ~redirected:true
        else begin
          let key = edge_key ~target ~prev_pc in
          if r.cb_last_key = key then begin
            let c = r.cb_last in
            if live then memo_hit ~target ~prev_pc c;
            exec_c c ~redirected:true
          end
          else begin
            let c = fetch_memo ~target ~prev_pc in
            r.cb_last_key <- key;
            r.cb_last <- c;
            exec_c c ~redirected:true
          end
        end
      end
    and finalize_block (r : cblock) ~(missed : bool) ~(redirected : bool) bcost =
      let v = visit_cycles r ~missed ~redirected bcost in
      cycles := !cycles + v;
      match mx with
      | Some m -> Metrics.hist_observe m.Metrics.block_cycles v
      | None -> ()
    (* the [c >= 1] slots a visit retired, accounted once; [extra] is
       the taken-branch penalty when the visit left by a redirect *)
    and leave (r : cblock) ~missed ~redirected ~extra c =
      let dec = r.cb_dec in
      instructions := !instructions + c;
      (match mx with Some m -> m.Metrics.retires <- m.Metrics.retires + c | None -> ());
      load_use := !load_use + Array.unsafe_get dec.Decoded.stall_pre c;
      Machine.set_pc machine (r.cb_first + (4 * (c - 1)));
      finalize_block r ~missed ~redirected (Array.unsafe_get dec.Decoded.cost_pre c + extra)
    (* An entry below the heat threshold only counts itself. At the
       threshold a block on no live cycle tries to close one, and a head
       entered the way its cycle enters it runs the superblock when fuel
       covers a whole iteration and every line of it is resident;
       anything else is a plain visit. *)
    and exec_block r ~redirected =
      let heat = r.cb_heat in
      if heat < Decoded.heat_threshold then begin
        r.cb_heat <- heat + 1;
        visit r ~redirected
      end
      else
        match r.cb_super with
        | Some sp when sp.sp_red.(0) = redirected -> enter_super r sp
        | Some _ -> visit r ~redirected
        | None ->
          r.cb_heat <- 0;
          if supers && r.cb_member = 0 then close_super r ~redirected;
          visit r ~redirected
    (* Block-at-a-time accounting. The load-use latch is clear at
       every block entry, so a slot's cost and stall depend only on the
       block's own code and are prefix-summed at compile time
       ({!Decoded.t}). *)
    and visit r ~redirected =
      incr blocks;
      (match mx with
       | Some m -> m.Metrics.blocks_entered <- m.Metrics.blocks_entered + 1
       | None -> ());
      let missed = not (Icache.access icache r.cb_base) in
      if tracing then Obs.emit obs (Event.Block_enter { base = r.cb_base; icache_hit = not missed });
      if redirected then incr redirects;
      mac_words := !mac_words + 2;
      walk r ~missed ~redirected 0
    (* The slot walk from slot [i0]: one slot closure and one hook test
       per slot. A visit runs at most [fuel - instructions] slots, so
       fuel runs out on the same instruction as in [Ref]; [settle]
       accounts the visit at the slot it exits by. *)
    and walk r ~missed ~redirected i0 =
      let dec = r.cb_dec in
      let exec = dec.Decoded.exec and first = r.cb_first in
      let n = Array.length exec in
      (* every entry path checked fuel first, so [room >= 1] and the
         visit retires at least one slot *)
      let room = fuel - !instructions in
      let lim = if room < n then room else n in
      let i = ref i0 and res = ref next in
      match
        while !res = next && !i < lim do
          let pc = first + (4 * !i) in
          if hooks then begin
            if tracing then Obs.emit obs (Event.Retire { pc });
            match on_retire with
            | Some f -> f ~pc ~insn:(Array.unsafe_get dec.Decoded.insns !i)
            | None -> ()
          end;
          res := (Array.unsafe_get exec !i) ();
          incr i
        done
      with
      | exception Memory.Bus_error address ->
        leave r ~missed ~redirected ~extra:0 (!i + 1);
        violation_invalidate (Machine.Bus_fault { address })
      | () -> settle r ~missed ~redirected !i !res
    and settle r ~missed ~redirected c res =
      if res = next then begin
        (* fell off the block, or out of fuel: [continue_fall] checks
           fuel before it fetches *)
        leave r ~missed ~redirected ~extra:0 c;
        r.cb_exit <- c;
        r.cb_exit_res <- res;
        continue_fall r
      end
      else if res >= 0 then begin
        leave r ~missed ~redirected ~extra:branch_penalty c;
        r.cb_exit <- c;
        r.cb_exit_res <- res;
        continue_redirect r ~target:res ~prev_pc:(r.cb_first + (4 * (c - 1)))
      end
      else begin
        leave r ~missed ~redirected ~extra:0 c;
        finish (Machine.Halted (Decoded.halt_code res))
      end
    (* Whole iterations of [sp], then an exact exit. The transition into
       the head was accounted before entry; [budget] iterations leave
       every transition of the last one below the fuel limit, as
       [continue_*] require. A slot that leaves the cycle hands its
       block's visit back to [walk]/[settle] at that slot, after the
       iterations and positions before it are accounted. *)
    and enter_super head sp =
      let tr = sp.sp_trace in
      let budget = Decoded.budget tr icache ~room:(fuel - 1 - !instructions) in
      if budget < 1 then visit head ~redirected:sp.sp_red.(0)
      else begin
        (match mx with Some m -> m.Metrics.engine_traces <- m.Metrics.engine_traces + 1 | None -> ());
        match Decoded.run_trace tr ~budget with
        | exception Memory.Bus_error address ->
          let j = tr.Decoded.t_part.(tr.Decoded.t_slot) in
          account_super sp ~iters:tr.Decoded.t_iters ~j ~entered:true;
          leave sp.sp_blocks.(j) ~missed:false ~redirected:sp.sp_red.(j) ~extra:0
            (tr.Decoded.t_local.(tr.Decoded.t_slot) + 1);
          violation_invalidate (Machine.Bus_fault { address })
        | () ->
          if tr.Decoded.t_iters = budget then begin
            account_super sp ~iters:budget ~j:0 ~entered:false;
            visit head ~redirected:sp.sp_red.(0)
          end
          else begin
            let s = tr.Decoded.t_slot in
            let j = tr.Decoded.t_part.(s) in
            let r = sp.sp_blocks.(j) and redirected = sp.sp_red.(j) in
            let c = tr.Decoded.t_local.(s) + 1 in
            account_super sp ~iters:tr.Decoded.t_iters ~j ~entered:true;
            if not (Decoded.keeps_paying tr) then begin
              Array.iter (fun r -> r.cb_member <- r.cb_member - 1) sp.sp_blocks;
              head.cb_super <- None;
              head.cb_heat <- min_int
            end;
            if tr.Decoded.t_res = next then walk r ~missed:false ~redirected c
            else settle r ~missed:false ~redirected c tr.Decoded.t_res
          end
      end
    in
    if !instructions >= fuel then finish Machine.Out_of_fuel
    else
      exec_c
        (fetch ~target:image.Image.entry ~prev_pc:Block.reset_prev_pc)
        ~redirected:true
  in
  match config.Run_config.engine with
  | Run_config.Fast -> run_fast ()
  | Run_config.Ref -> run_ref ()
