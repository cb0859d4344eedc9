open Sofia_util

type error = Bad_magic | Unsupported_version of int | Truncated | Checksum_mismatch

let pp_error fmt = function
  | Bad_magic -> Format.pp_print_string fmt "not a SOFIA image (bad magic)"
  | Unsupported_version v -> Format.fprintf fmt "unsupported format version %d" v
  | Truncated -> Format.pp_print_string fmt "truncated image file"
  | Checksum_mismatch -> Format.pp_print_string fmt "payload checksum mismatch"

module Loaded = struct
  type t = {
    backend : Backend_id.t;
    nonce : int;
    entry : int;
    text_base : int;
    cipher : int array;
    patches : int array;
    data : Bytes.t;
    data_base : int;
  }
end

let magic = 0x53464941 (* "SFIA" *)

(* Version 1 is the original SOFIA-only format and its byte layout is
   frozen — digests of existing artifacts must stay stable. Version 2
   adds a backend tag and a patch-word count to the header and appends
   the SCFP patch table between the text and the data; SOFIA images
   keep serializing as v1 bit-for-bit. *)
let version = 1
let version_v2 = 2
let header_bytes = 0x24
let header_bytes_v2 = 0x2C

let serialize (image : Image.t) =
  let v2 = image.Image.backend <> Backend_id.Sofia in
  let hdr = if v2 then header_bytes_v2 else header_bytes in
  let text_words = Array.length image.Image.cipher in
  let patch_words = Array.length image.Image.patches in
  let data_len = Bytes.length image.Image.data in
  let total = hdr + (4 * text_words) + (4 * patch_words) + data_len in
  let b = Bytes.create total in
  let put off v = Bytes.set_int32_le b off (Int32.of_int v) in
  Array.iteri (fun i w -> put (hdr + (4 * i)) w) image.Image.cipher;
  Array.iteri (fun i w -> put (hdr + (4 * text_words) + (4 * i)) w) image.Image.patches;
  Bytes.blit image.Image.data 0 b (hdr + (4 * (text_words + patch_words))) data_len;
  let crc = Hash.crc32 b ~off:hdr ~len:(total - hdr) in
  put 0x00 magic;
  put 0x04 (if v2 then version_v2 else version);
  put 0x08 image.Image.nonce;
  put 0x0C image.Image.entry;
  put 0x10 text_words;
  put 0x14 image.Image.data_base;
  put 0x18 data_len;
  put 0x1C crc;
  put 0x20 image.Image.text_base;
  if v2 then begin
    put 0x24 (Backend_id.tag image.Image.backend);
    put 0x28 patch_words
  end;
  b

let deserialize b =
  let len = Bytes.length b in
  if len < header_bytes then Error Truncated
  else begin
    let get off = Word.word32_of_bytes_le b off in
    if get 0x00 <> magic then Error Bad_magic
    else begin
      let v = get 0x04 in
      if v <> version && v <> version_v2 then Error (Unsupported_version v)
      else begin
        let hdr = if v = version then header_bytes else header_bytes_v2 in
        if len < hdr then Error Truncated
        else begin
          let backend =
            if v = version then Some Backend_id.Sofia else Backend_id.of_tag (get 0x24)
          in
          match backend with
          | None -> Error (Unsupported_version v)
          | Some backend ->
            let text_words = get 0x10 in
            let patch_words = if v = version then 0 else get 0x28 in
            let data_len = get 0x18 in
            if len < hdr + (4 * (text_words + patch_words)) + data_len then Error Truncated
            else begin
              let payload_len = (4 * (text_words + patch_words)) + data_len in
              if Hash.crc32 b ~off:hdr ~len:payload_len <> get 0x1C then Error Checksum_mismatch
              else begin
                let cipher = Array.init text_words (fun i -> get (hdr + (4 * i))) in
                let patches =
                  Array.init patch_words (fun i -> get (hdr + (4 * text_words) + (4 * i)))
                in
                let data = Bytes.sub b (hdr + (4 * (text_words + patch_words))) data_len in
                Ok
                  {
                    Loaded.backend;
                    nonce = get 0x08;
                    entry = get 0x0C;
                    text_base = get 0x20;
                    cipher;
                    patches;
                    data;
                    data_base = get 0x14;
                  }
              end
            end
        end
      end
    end
  end

let save image ~path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_bytes oc (serialize image))

let load ~path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let len = in_channel_length ic in
      let b = Bytes.create len in
      really_input ic b 0 len;
      deserialize b)

let image_of_loaded (l : Loaded.t) =
  let nblocks = Array.length l.Loaded.cipher / Block.words_per_block in
  let blocks =
    Array.init nblocks (fun k ->
      let cipher_words =
        Array.sub l.Loaded.cipher (Block.words_per_block * k) Block.words_per_block
      in
      {
        Image.base = l.Loaded.text_base + (Block.size_bytes * k);
        kind = Block.Exec (* unknown without keys; the runner never reads it *);
        role = Layout.Primary;
        insns = [||];
        mac = 0L;
        plain_words = [||];
        cipher_words;
        entry_prev_pcs = [];
        orig_indices = [||];
      })
  in
  {
    Image.backend = l.Loaded.backend;
    nonce = l.Loaded.nonce;
    entry = l.Loaded.entry;
    text_base = l.Loaded.text_base;
    blocks;
    cipher = l.Loaded.cipher;
    patches = l.Loaded.patches;
    data = l.Loaded.data;
    data_base = l.Loaded.data_base;
    addr_of_orig = [||];
    stats =
      {
        Layout.original_insns = 0;
        original_text_bytes = 0;
        transformed_text_bytes = 4 * (Array.length l.Loaded.cipher + Array.length l.Loaded.patches);
        exec_blocks = 0;
        mux_blocks = 0;
        bridge_blocks = 0;
        shim_blocks = 0;
        trampoline_blocks = 0;
        funnel_blocks = 0;
        pad_slots = 0;
        unreachable_dropped = 0;
      };
  }
