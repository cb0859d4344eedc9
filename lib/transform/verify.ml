module Insn = Sofia_isa.Insn
module Encoding = Sofia_isa.Encoding
module Keys = Sofia_crypto.Keys
module Ctr = Sofia_crypto.Ctr
module Cbc_mac = Sofia_crypto.Cbc_mac
module Program = Sofia_asm.Program
module Cfg = Sofia_cfg.Cfg

type issue =
  | Misaligned_block of { base : int }
  | Wrong_slot_count of { base : int; expected : int; got : int }
  | Mid_block_control_flow of { address : int }
  | Banned_store of { address : int }
  | Wrong_entry_count of { base : int; got : int }
  | Mac_words_wrong of { base : int }
  | Ciphertext_mismatch of { address : int }
  | Unknown_predecessor of { base : int; prev_pc : int }
  | Patch_mismatch of { base : int; slot : int }
  | Uncovered_instruction of { orig_index : int }
  | Duplicated_instruction of { orig_index : int }
  | Instruction_changed of { orig_index : int; address : int }

let pp_issue fmt = function
  | Misaligned_block { base } -> Format.fprintf fmt "block at 0x%08x is not 32-byte aligned" base
  | Wrong_slot_count { base; expected; got } ->
    Format.fprintf fmt "block at 0x%08x has %d instruction slots, expected %d" base got expected
  | Mid_block_control_flow { address } ->
    Format.fprintf fmt "control-flow instruction in a non-final slot at 0x%08x" address
  | Banned_store { address } ->
    Format.fprintf fmt "store in a banned execution-block slot at 0x%08x" address
  | Wrong_entry_count { base; got } ->
    Format.fprintf fmt "block at 0x%08x declares %d entry ports" base got
  | Mac_words_wrong { base } ->
    Format.fprintf fmt "stored MAC of block at 0x%08x does not match its instructions" base
  | Ciphertext_mismatch { address } ->
    Format.fprintf fmt "ciphertext word at 0x%08x does not decrypt to its plaintext" address
  | Unknown_predecessor { base; prev_pc } ->
    Format.fprintf fmt "block at 0x%08x declares unknown predecessor 0x%08x" base prev_pc
  | Patch_mismatch { base; slot } ->
    Format.fprintf fmt "sponge patch slot %d of block at 0x%08x does not re-derive" slot base
  | Uncovered_instruction { orig_index } ->
    Format.fprintf fmt "reachable source instruction #%d is not in the image" orig_index
  | Duplicated_instruction { orig_index } ->
    Format.fprintf fmt "source instruction #%d occupies more than one slot" orig_index
  | Instruction_changed { orig_index; address } ->
    Format.fprintf fmt "source instruction #%d was altered at 0x%08x" orig_index address

module Obs = Sofia_obs.Obs
module Event = Sofia_obs.Event
module Metrics = Sofia_obs.Metrics

(* The words the image ships at a block's address: the flat text
   [Binary_format] writes and the core fetches, [None] past its end.
   The block's own [cipher_words] copy must equal them. *)
let shipped (image : Image.t) base =
  Array.init Block.words_per_block (fun i -> Image.fetch image (base + (4 * i)))

(* [Some c] when word [i] of the block is shipped as [c] and its copy
   agrees; a copy longer than a block has no shipped word past its
   eighth. *)
let shipped_word ~shipped (b : Image.block) i =
  if i < Block.words_per_block && i < Array.length b.Image.cipher_words
     && shipped.(i) = Some b.Image.cipher_words.(i)
  then shipped.(i)
  else None

(* Every word of a block and of its copy. *)
let block_words (b : Image.block) = max Block.words_per_block (Array.length b.Image.cipher_words)

(* Pure per-block check: no obs. [insn_words] are the block's encoded
   instructions and [mac] their CBC-MAC under the block's kind key,
   computed for every block at once. Returns the block's issues (in
   discovery order) and whether its stored MAC words matched. *)
let check_block ~(keys : Keys.t) ~(image : Image.t) ~exits (b : Image.block) insn_words mac =
  let issues = ref [] in
  let issue i = issues := i :: !issues in
  let base = b.Image.base in
  if (base - image.Image.text_base) mod Block.size_bytes <> 0 then issue (Misaligned_block { base });
  let expected_slots = Block.insn_slots b.Image.kind in
  let got = Array.length b.Image.insns in
  if got <> expected_slots then issue (Wrong_slot_count { base; expected = expected_slots; got });
  let first = Block.first_insn_offset b.Image.kind in
  Array.iteri
    (fun i insn ->
      let address = base + first + (4 * i) in
      if i < got - 1 && Insn.is_control_flow insn then issue (Mid_block_control_flow { address });
      if Block.store_banned_slot b.Image.kind i && Insn.is_store insn then
        issue (Banned_store { address }))
    b.Image.insns;
  (* entry ports *)
  let nports = List.length (Block.port_offsets b.Image.kind) in
  let nentries = List.length b.Image.entry_prev_pcs in
  if nentries <> nports then issue (Wrong_entry_count { base; got = nentries });
  List.iter
    (fun prev ->
      if prev <> Block.reset_prev_pc && not (Hashtbl.mem exits prev) then
        issue (Unknown_predecessor { base; prev_pc = prev }))
    b.Image.entry_prev_pcs;
  (* MAC words in the plaintext block: a full block whose instruction
     words are the block's instructions *)
  let m1, m2 = Cbc_mac.split_tag mac in
  let plain = b.Image.plain_words in
  let nmac = Block.mac_words b.Image.kind in
  let macs_ok =
    Array.length plain = Block.words_per_block
    && Array.length insn_words = Block.words_per_block - nmac
    && (match b.Image.kind with
        | Block.Exec -> plain.(0) = m1 && plain.(1) = m2
        | Block.Mux -> plain.(0) = m1 && plain.(1) = m1 && plain.(2) = m2)
    && Array.for_all2 ( = ) insn_words (Array.sub plain nmac (Block.words_per_block - nmac))
  in
  if not macs_ok then issue (Mac_words_wrong { base });
  (* ciphertext: re-derive each shipped word's keystream from its
     declared entry edge or the in-block chain; a word with no edge a
     counter can hold is not shown to decrypt, and is reported *)
  let nonce = image.Image.nonce in
  let counters_ok =
    nonce >= 0 && nonce <= 0xFF && Ctr.valid_address base
    && Ctr.valid_address (base + (4 * (Block.words_per_block - 1)))
  in
  let prev_of_word i =
    match (b.Image.kind, i) with
    | (Block.Exec | Block.Mux), 0 -> List.nth_opt b.Image.entry_prev_pcs 0
    | Block.Mux, 1 -> List.nth_opt b.Image.entry_prev_pcs 1
    | _, i -> Some (base + (4 * (i - 1)))
  in
  let prevs =
    Array.init Block.words_per_block (fun i ->
        match prev_of_word i with
        | Some p when counters_ok && Ctr.valid_address p -> Some p
        | Some _ | None -> None)
  in
  let ks =
    if counters_ok then
      Ctr.keystream_words keys.Keys.k1 ~nonce
        ~prev_pcs:(Array.map (Option.value ~default:0) prevs)
        ~pc:base
    else [||]
  in
  let shipped = shipped image base in
  for i = 0 to block_words b - 1 do
    let decrypts =
      match shipped_word ~shipped b i with
      | Some c -> prevs.(i) <> None && i < Array.length plain && c lxor ks.(i) = plain.(i)
      | None -> false
    in
    if not decrypts then issue (Ciphertext_mismatch { address = base + (4 * i) })
  done;
  (List.rev !issues, macs_ok)

(* The SCFP duplex walk of a block from its canonical entry state
   over its shipped words: (words, plaintext, tag, exit state), [None]
   when the text does not ship all eight. *)
let scfp_walk ~s0 ~shipped base =
  if Array.exists Option.is_none shipped then None
  else
    let words = Array.map Option.get shipped in
    let plain6, tag, s_exit = Scfp.chain (Scfp.canonical ~s0 ~base) words 0 in
    Some (words, plain6, tag, s_exit)

(* SCFP counterpart of [check_block]: re-derive the duplex walk from
   the block's canonical entry state over the *shipped* ciphertext, and
   re-derive every patch slot from first principles — an image whose
   patch table was doctored fails here even though the text itself
   still absorbs cleanly. [walks] holds every block's walk (from a
   prior pass, [None] where the text is short) because the link patch
   of block t is a function of its jalr-predecessor's exit state. *)
let scfp_check_block ~(image : Image.t) ~exits ~s0 ~walks i (b : Image.block) =
  let issues = ref [] in
  let issue x = issues := x :: !issues in
  let base = b.Image.base in
  if (base - image.Image.text_base) mod Block.size_bytes <> 0 then issue (Misaligned_block { base });
  let got = Array.length b.Image.insns in
  if got <> Scfp.insn_words then
    issue (Wrong_slot_count { base; expected = Scfp.insn_words; got });
  Array.iteri
    (fun s insn ->
      let address = base + (4 * Scfp.tag_word_count) + (4 * s) in
      if s < got - 1 && Insn.is_control_flow insn then issue (Mid_block_control_flow { address });
      if Block.store_banned_slot Block.Exec s && Insn.is_store insn then
        issue (Banned_store { address }))
    b.Image.insns;
  (* entry ports: arbitrary fan-in, but a block nothing reaches is a
     layout bug *)
  let nentries = List.length b.Image.entry_prev_pcs in
  if nentries = 0 then issue (Wrong_entry_count { base; got = nentries });
  List.iter
    (fun prev ->
      if prev <> Block.reset_prev_pc && not (Hashtbl.mem exits prev) then
        issue (Unknown_predecessor { base; prev_pc = prev }))
    b.Image.entry_prev_pcs;
  (* tag + ciphertext: one duplex walk from the canonical entry state *)
  let shipped = shipped image base in
  let walk = walks.(i) in
  let macs_ok =
    match walk with
    | Some (words, _, (t0, t1), _) -> words.(0) = t0 && words.(1) = t1
    | None -> false
  in
  if not macs_ok then issue (Mac_words_wrong { base });
  for w = 0 to block_words b - 1 do
    let s = w - Scfp.tag_word_count in
    let ok =
      shipped_word ~shipped b w <> None
      && (s < 0
          || s < got
             &&
             match walk with
             | Some (_, plain6, _, _) -> plain6.(s) = Encoding.encode b.Image.insns.(s)
             | None -> false)
    in
    if not ok then issue (Ciphertext_mismatch { address = base + (4 * w) })
  done;
  (* patch table: every slot must re-derive; a slot the table does not
     hold, or whose exit state has no walk to come from, does not *)
  let nblocks = Array.length image.Image.blocks in
  let tb = image.Image.text_base in
  let text_end = tb + (Block.size_bytes * nblocks) in
  let block_aligned a = a >= tb && a < text_end && (a - tb) mod Block.size_bytes = 0 in
  let canon_of tgt = Scfp.canonical ~s0 ~base:tgt in
  let expect slot v =
    let held =
      (i * Scfp.patch_words_per_block) + (2 * slot) + 1 < Array.length image.Image.patches
    in
    match v with
    | Some v when held && Scfp.patch_get image.Image.patches i slot = v -> ()
    | Some _ | None -> issue (Patch_mismatch { base; slot })
  in
  let fill slot = expect slot (Some (Scfp.filler ~s0 ~base ~slot)) in
  let from_exit u f = Option.map (fun (_, _, _, s_exit) -> f s_exit) walks.(u) in
  if i + 1 < nblocks then
    expect Scfp.slot_fall
      (from_exit i (fun s_exit -> Int64.logxor s_exit (canon_of (base + Block.size_bytes))))
  else fill Scfp.slot_fall;
  let exit_pc = base + Block.exit_offset in
  (match if got > 0 then Some b.Image.insns.(got - 1) else None with
  | Some (Insn.Branch (_, _, _, woff) | Insn.Jal (_, woff))
    when block_aligned (exit_pc + (4 * woff)) ->
    expect Scfp.slot_direct
      (from_exit i (fun s_exit -> Int64.logxor s_exit (canon_of (exit_pc + (4 * woff)))))
  | _ -> fill Scfp.slot_direct);
  let jalr_preds =
    List.sort_uniq compare
      (List.filter_map
         (fun p ->
           let rel = p - tb in
           if rel >= 0 && rel < text_end - tb && rel mod Block.size_bytes = Block.exit_offset then
             let u = rel / Block.size_bytes in
             match image.Image.blocks.(u).Image.insns with
             | [||] -> None
             | insns -> (
               match insns.(Array.length insns - 1) with Insn.Jalr _ -> Some u | _ -> None)
           else None)
         b.Image.entry_prev_pcs)
  in
  (match jalr_preds with
  | [ u ] ->
    expect Scfp.slot_link
      (from_exit u (fun s_exit ->
           Int64.logxor (Scfp.link_arrive ~s_exit ~target:base) (canon_of base)))
  | [] | _ :: _ :: _ -> fill Scfp.slot_link);
  fill 3;
  (List.rev !issues, macs_ok)

let check ?(obs = Obs.none) ~(keys : Keys.t) (image : Image.t) =
  (* valid exit addresses of the image, for linkage checking *)
  let exits = Hashtbl.create 64 in
  Array.iter
    (fun (b : Image.block) -> Hashtbl.replace exits (b.Image.base + Block.exit_offset) ())
    image.Image.blocks;
  let results =
    match image.Image.backend with
    | Backend_id.Sofia ->
      let blocks = image.Image.blocks in
      let insn_words =
        Array.map (fun (b : Image.block) -> Array.map Encoding.encode b.Image.insns) blocks
      in
      let macs =
        Block.macs keys (Array.map (fun (b : Image.block) -> b.Image.kind) blocks) insn_words
      in
      Array.mapi (fun i b -> check_block ~keys ~image ~exits b insn_words.(i) macs.(i)) blocks
    | Backend_id.Scfp ->
      let s0 = Scfp.init ~keys ~nonce:image.Image.nonce in
      let walks =
        Array.map
          (fun (b : Image.block) ->
            scfp_walk ~s0 ~shipped:(shipped image b.Image.base) b.Image.base)
          image.Image.blocks
      in
      Array.mapi (scfp_check_block ~image ~exits ~s0 ~walks) image.Image.blocks
  in
  (* obs accounting, in block order, off the per-block results *)
  Array.iteri
    (fun i (issues, macs_ok) ->
      let b = image.Image.blocks.(i) in
      (match obs.Obs.metrics with
       | Some m ->
         m.Metrics.verify_checks <- m.Metrics.verify_checks + 1;
         m.Metrics.mac_verifies <- m.Metrics.mac_verifies + 1;
         if not macs_ok then m.Metrics.mac_failures <- m.Metrics.mac_failures + 1;
         m.Metrics.verify_issues <- m.Metrics.verify_issues + List.length issues
       | None -> ());
      if Obs.tracing obs then
        Obs.emit obs
          (Event.Mac_verify
             { block_base = b.Image.base;
               kind =
                 (match b.Image.kind with Block.Exec -> Event.Exec_mac | Block.Mux -> Event.Mux_mac);
               ok = macs_ok }))
    results;
  List.concat_map fst (Array.to_list results)

(* Strip the fields a legitimate retarget/rematerialisation may change,
   keeping everything that must stay identical. *)
let semantic_shape (insn : Insn.t) =
  match insn with
  | Insn.Branch (c, r1, r2, _) -> Insn.Branch (c, r1, r2, 0)
  | Insn.Jal (rd, _) -> Insn.Jal (rd, 0)
  | Insn.Lui (rd, _) -> Insn.Lui (rd, 0)
  | Insn.Alu_i (Or, rd, rs, _) when Sofia_isa.Reg.equal rd rs -> Insn.Alu_i (Or, rd, rs, 0)
  | Insn.Alu_r _ | Insn.Alu_i _ | Insn.Load _ | Insn.Store _ | Insn.Jalr _ | Insn.Halt _ -> insn

let check_against_source ?(obs = Obs.none) ~keys (program : Program.t) (image : Image.t) =
  let issues = ref (check ~obs ~keys image) in
  let issue i =
    (match obs.Obs.metrics with
     | Some m -> m.Metrics.verify_issues <- m.Metrics.verify_issues + 1
     | None -> ());
    issues := !issues @ [ i ]
  in
  (match Cfg.build program with
   | Error _ -> () (* the transformation would have refused this program *)
   | Ok cfg ->
     let reachable = Cfg.reachable cfg in
     let n = Array.length program.Program.text in
     (* which original instruction sits in which slot *)
     let seen = Array.make n 0 in
     let la_lo_indices =
       List.concat_map
         (fun { Program.hi_index; lo_index; _ } -> [ hi_index; lo_index ])
         program.Program.la_relocs
     in
     Array.iter
       (fun (b : Image.block) ->
         let first = Block.first_insn_offset b.Image.kind in
         Array.iteri
           (fun s orig ->
             match orig with
             | None -> ()
             | Some i ->
               seen.(i) <- seen.(i) + 1;
               let address = b.Image.base + first + (4 * s) in
               let original = program.Program.text.(i) in
               let placed = b.Image.insns.(s) in
               (* [semantic_shape] already blanks exactly the fields a
                  retarget (branch/jal offsets) or a code-pointer
                  rematerialisation (lui / or-self immediates, cf.
                  [la_lo_indices]) may rewrite *)
               ignore la_lo_indices;
               if semantic_shape placed <> semantic_shape original then
                 issue (Instruction_changed { orig_index = i; address }))
           b.Image.orig_indices)
       image.Image.blocks;
     for i = 0 to n - 1 do
       if reachable.(i) then begin
         (* funnelled rets are legitimately replaced by jumps *)
         let is_ret =
           match program.Program.text.(i) with
           | Insn.Jalr (rd, rs, 0) ->
             Sofia_isa.Reg.equal rd Sofia_isa.Reg.zero && Sofia_isa.Reg.equal rs Sofia_isa.Reg.ra
           | _ -> false
         in
         if seen.(i) = 0 && not is_ret then issue (Uncovered_instruction { orig_index = i });
         if seen.(i) > 1 then issue (Duplicated_instruction { orig_index = i })
       end
     done);
  !issues
