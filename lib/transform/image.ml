type block = {
  base : int;
  kind : Block.kind;
  role : Layout.role;
  insns : Sofia_isa.Insn.t array;
  mac : int64;
  plain_words : int array;
  cipher_words : int array;
  entry_prev_pcs : int list;
  orig_indices : int option array;
}

type t = {
  backend : Backend_id.t;
  nonce : int;
  entry : int;
  text_base : int;
  blocks : block array;
  cipher : int array;
  patches : int array;
  data : Bytes.t;
  data_base : int;
  addr_of_orig : int array;
  stats : Layout.stats;
}

let text_size_bytes t = 4 * (Array.length t.cipher + Array.length t.patches)

(* the words an artifact MAC must cover: under SCFP the patch table is
   as load-bearing as the ciphertext (a tampered patch redirects an
   edge), so it joins the authenticated span *)
let authenticated_words t =
  match t.backend with
  | Backend_id.Sofia -> t.cipher
  | Backend_id.Scfp -> Array.append t.cipher t.patches
let word_count t = Array.length t.cipher

let fetch t addr =
  let rel = addr - t.text_base in
  if rel < 0 || rel mod 4 <> 0 then None
  else
    let i = rel / 4 in
    if i < Array.length t.cipher then Some t.cipher.(i) else None

let with_tampered_word t ~address ~value =
  let rel = address - t.text_base in
  if rel < 0 || rel mod 4 <> 0 || rel / 4 >= Array.length t.cipher then
    invalid_arg "Image.with_tampered_word: address outside text";
  let cipher = Array.copy t.cipher in
  cipher.(rel / 4) <- value land 0xFFFF_FFFF;
  let bi = rel / (4 * Block.words_per_block) in
  let blocks = Array.copy t.blocks in
  let b = blocks.(bi) in
  let cipher_words = Array.copy b.cipher_words in
  cipher_words.(rel / 4 mod Block.words_per_block) <- value land 0xFFFF_FFFF;
  blocks.(bi) <- { b with cipher_words };
  { t with cipher; blocks }

let with_nonce_relabelled t ~nonce = { t with nonce }

let block_of_address t addr =
  let rel = addr - t.text_base in
  if rel < 0 then None
  else
    let i = rel / Block.size_bytes in
    if i < Array.length t.blocks then Some t.blocks.(i) else None
