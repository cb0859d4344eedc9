module Keys = Sofia_crypto.Keys
module Ctr = Sofia_crypto.Ctr
module Cbc_mac = Sofia_crypto.Cbc_mac
module Encoding = Sofia_isa.Encoding

(* [insn_words] are the block's encoded instructions and [mac] their
   CBC-MAC tag, both computed for the whole layout at once. *)
let encrypt_block ~(keys : Keys.t) ~nonce (b : Layout.block) insn_words mac : Image.block =
  let base = b.Layout.base in
  let m1, m2 = Cbc_mac.split_tag mac in
  (* plaintext 8-word block with interleaved MAC words *)
  let plain_words =
    match b.Layout.kind with
    | Block.Exec -> Array.append [| m1; m2 |] insn_words
    | Block.Mux -> Array.append [| m1; m1; m2 |] insn_words
  in
  assert (Array.length plain_words = Block.words_per_block);
  (* per-word (prevPC, PC) pairs *)
  let prev_pcs =
    match (b.Layout.kind, b.Layout.entry_prev_pcs) with
    | Block.Exec, [ p1 ] ->
      [| p1; base; base + 4; base + 8; base + 12; base + 16; base + 20; base + 24 |]
    | Block.Mux, [ p1; p2 ] ->
      (* M2 (word 2) is encrypted with prevPC = addr(M1e2) on both
         control-flow paths (Fig. 8). *)
      [| p1; p2; base + 4; base + 8; base + 12; base + 16; base + 20; base + 24 |]
    | Block.Exec, _ | Block.Mux, _ -> assert false
  in
  let ks = Ctr.keystream_words keys.Keys.k1 ~nonce ~prev_pcs ~pc:base in
  {
    Image.base;
    kind = b.Layout.kind;
    role = b.Layout.role;
    insns = b.Layout.insns;
    mac;
    plain_words;
    cipher_words = Array.mapi (fun i w -> w lxor ks.(i)) plain_words;
    entry_prev_pcs = b.Layout.entry_prev_pcs;
    orig_indices = b.Layout.orig_indices;
  }

let encrypt_layout ~keys ~nonce (l : Layout.t) : Image.t =
  let lblocks = l.Layout.blocks in
  let insn_words = Array.map (fun b -> Array.map Encoding.encode b.Layout.insns) lblocks in
  let macs = Block.macs keys (Array.map (fun b -> b.Layout.kind) lblocks) insn_words in
  let blocks =
    Array.mapi (fun i b -> encrypt_block ~keys ~nonce b insn_words.(i) macs.(i)) lblocks
  in
  let cipher =
    Array.concat (Array.to_list (Array.map (fun b -> b.Image.cipher_words) blocks))
  in
  {
    Image.backend = Backend_id.Sofia;
    nonce;
    entry = l.Layout.entry;
    text_base = l.Layout.text_base;
    blocks;
    cipher;
    patches = [||];
    data = l.Layout.data;
    data_base = l.Layout.data_base;
    addr_of_orig = l.Layout.addr_of_orig;
    stats = l.Layout.stats;
  }

(* SCFP encryption: one duplex walk per block from its canonical
   (position-based) entry state, then a patch-table pass relating
   every exit state to its successors' entry states. *)
let scfp_encrypt_layout ~keys ~nonce (l : Layout.t) : Image.t =
  let s0 = Scfp.init ~keys ~nonce in
  let encrypted =
    Array.map
      (fun (b : Layout.block) ->
        assert (b.Layout.kind = Block.Exec);
        let insn_words = Array.map Encoding.encode b.Layout.insns in
        let s_entry = Scfp.canonical ~s0 ~base:b.Layout.base in
        let cipher6, tag, s_exit = Scfp.encrypt_chain s_entry insn_words in
        let t0, t1 = tag in
        ( {
            Image.base = b.Layout.base;
            kind = b.Layout.kind;
            role = b.Layout.role;
            insns = b.Layout.insns;
            mac = Scfp.pack_tag tag;
            plain_words = Array.append [| t0; t1 |] insn_words;
            cipher_words = Array.append [| t0; t1 |] cipher6;
            entry_prev_pcs = b.Layout.entry_prev_pcs;
            orig_indices = b.Layout.orig_indices;
          },
          s_exit ))
      l.Layout.blocks
  in
  let blocks = Array.map fst encrypted and s_exits = Array.map snd encrypted in
  let nblocks = Array.length blocks in
  let tb = l.Layout.text_base in
  let text_end = tb + (Block.size_bytes * nblocks) in
  let block_aligned a = a >= tb && a < text_end && (a - tb) mod Block.size_bytes = 0 in
  (* index of the block whose exit word sits at prev-pc [p], if any *)
  let pred_index_of p =
    let rel = p - tb in
    if rel >= 0 && rel < text_end - tb && rel mod Block.size_bytes = Block.exit_offset then
      Some (rel / Block.size_bytes)
    else None
  in
  let patches = Array.make (nblocks * Scfp.patch_words_per_block) 0 in
  Array.iteri
    (fun i (b : Image.block) ->
      let base = b.Image.base in
      let set slot v = Scfp.patch_set patches i slot v in
      let fill slot = set slot (Scfp.filler ~s0 ~base ~slot) in
      let canon_of tgt = Scfp.canonical ~s0 ~base:tgt in
      (* slot 0: fall-through into the adjacent block *)
      if i + 1 < nblocks then
        set Scfp.slot_fall (Int64.logxor s_exits.(i) (canon_of (base + Block.size_bytes)))
      else fill Scfp.slot_fall;
      (* slot 1: taken-branch / jal target of the exit instruction *)
      let exit_pc = base + Block.exit_offset in
      (match b.Image.insns.(Array.length b.Image.insns - 1) with
      | Sofia_isa.Insn.Branch (_, _, _, woff) | Sofia_isa.Insn.Jal (_, woff)
        when block_aligned (exit_pc + (4 * woff)) ->
        set Scfp.slot_direct (Int64.logxor s_exits.(i) (canon_of (exit_pc + (4 * woff))))
      | _ -> fill Scfp.slot_direct);
      (* slot 2: destination-indexed jalr (return / indirect) entry —
         the layout guarantees at most one jalr-flavoured predecessor *)
      let jalr_preds =
        List.sort_uniq compare
          (List.filter_map
             (fun p ->
               match pred_index_of p with
               | Some u
                 when match blocks.(u).Image.insns.(Scfp.insn_words - 1) with
                      | Sofia_isa.Insn.Jalr _ -> true
                      | _ -> false ->
                 Some u
               | Some _ | None -> None)
             b.Image.entry_prev_pcs)
      in
      (match jalr_preds with
      | [] -> fill Scfp.slot_link
      | [ u ] ->
        set Scfp.slot_link
          (Int64.logxor (Scfp.link_arrive ~s_exit:s_exits.(u) ~target:base) (canon_of base))
      | _ :: _ :: _ -> invalid_arg "Transform.scfp: multiple jalr predecessors");
      (* slot 3: reserved *)
      fill 3)
    blocks;
  let cipher =
    Array.concat (Array.to_list (Array.map (fun b -> b.Image.cipher_words) blocks))
  in
  {
    Image.backend = Backend_id.Scfp;
    nonce;
    entry = l.Layout.entry;
    text_base = tb;
    blocks;
    cipher;
    patches;
    data = l.Layout.data;
    data_base = l.Layout.data_base;
    addr_of_orig = l.Layout.addr_of_orig;
    stats =
      {
        l.Layout.stats with
        Layout.transformed_text_bytes =
          l.Layout.stats.Layout.transformed_text_bytes + (4 * Array.length patches);
      };
  }

(* the nonce is checked when [~nonce] is applied, so [protect] refuses
   a bad one before it lays anything out *)
let encrypt ~backend ~keys ~nonce =
  if nonce < 0 || nonce > 0xFF then invalid_arg "Transform.protect: nonce must be 8-bit";
  match backend with
  | Backend_id.Sofia -> encrypt_layout ~keys ~nonce
  | Backend_id.Scfp -> scfp_encrypt_layout ~keys ~nonce

let protect ?(backend = Backend_id.Sofia) ~keys ~nonce program =
  let encrypt = encrypt ~backend ~keys ~nonce in
  Result.map encrypt (Layout.layout ~backend program)

let protect_exn ?backend ~keys ~nonce program =
  match protect ?backend ~keys ~nonce program with
  | Ok image -> image
  | Error e -> invalid_arg (Format.asprintf "Transform.protect: %a" Layout.pp_error e)

let expansion_ratio (image : Image.t) =
  float_of_int image.Image.stats.Layout.transformed_text_bytes
  /. float_of_int image.Image.stats.Layout.original_text_bytes
