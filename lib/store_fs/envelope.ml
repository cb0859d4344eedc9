(* The sealed on-disk container for every persistent-store entry.

   A cached artifact crosses a trust boundary the in-memory store never
   had: the bytes sat on disk where any other process (or a crash, or a
   half-finished write) could have changed them. The envelope therefore
   carries three independent guards, checked strictly in this order on
   every load:

     1. structure  — magic, versions, kind, exact length arithmetic;
     2. integrity  — a CRC32 over the body (catches torn writes and
        media rot cheaply, before any cryptography runs);
     3. authenticity — a CBC-MAC tag under the request's k2 over the
        whole file (tag field zeroed), so an attacker without the
        device keys cannot mint or splice an envelope; and finally the
        embedded source text is compared byte-for-byte against the
        request's, closing the hash-aliasing hole that the
        content-addressed filename alone would leave open (see the
        lesson recorded on Sofia_service.Store.key).

   Any failure is a typed {!failure}, never an exception and never
   partially-decoded payload bytes: a bad envelope is a cache miss.

   Layout (all fields little-endian 32-bit words):

     0x00  magic "SFCA"
     0x04  envelope version
     0x08  kind tag (1 = protected artifact, 2 = pre-decoded table)
     0x0C  kind codec version (artifact and table codecs bump
           independently of the envelope itself)
     0x10  nonce (the request's omega)
     0x14  key fingerprint, folded to 32 bits (fast negative check;
           the tag is the load-bearing key binding)
     0x18  source length   }
     0x1C  meta length     }  body = source ++ meta ++ payload
     0x20  payload length  }
     0x24  CRC32 over the body
     0x28  tag low word    }  CBC-MAC(k2) over the whole file's words
     0x2C  tag high word   }  with this field zeroed
     0x30  body *)

open Sofia_util
module Keys = Sofia_crypto.Keys
module Cbc_mac = Sofia_crypto.Cbc_mac

type kind = Artifact | Table | Replay

(* The backend folds into the kind tag: a SOFIA artifact and an SCFP
   artifact for the same (source, keys, ω) are different objects, and
   the tag is checked before anything else is believed — a cross-
   backend read dies as [Bad_kind] (a structural miss) rather than
   handing one backend's ciphertext to the other's frontend. SOFIA
   keeps the pre-PR-8 tags 1/2, so existing stores read back
   unchanged; SCFP takes 3/4. Replay entries (the fleet router's
   persistent response cache, PR 9) take 5/7 — tag 6 is left unused so
   both backends keep the same +2 offset. The tag is also part of the
   filename identity (see Store_fs.entry_name), so the kinds never
   even share a file. *)
let kind_tag ~backend k =
  let base = match k with Artifact -> 1 | Table -> 2 | Replay -> 5 in
  match (backend : Sofia_transform.Backend_id.t) with
  | Sofia_transform.Backend_id.Sofia -> base
  | Sofia_transform.Backend_id.Scfp -> base + 2

let magic = 0x53464341 (* "SFCA" *)
let version = 1
let header_bytes = 0x30

type failure =
  | Short  (** shorter than a header *)
  | Bad_magic
  | Stale_envelope of int
  | Bad_kind
  | Stale_codec of int
  | Nonce_mismatch
  | Key_mismatch
  | Length_mismatch  (** length fields disagree with the actual size *)
  | Crc_mismatch
  | Tag_mismatch
  | Source_mismatch  (** filename-hash aliasing caught by the byte compare *)

let failure_name = function
  | Short -> "short"
  | Bad_magic -> "bad_magic"
  | Stale_envelope _ -> "stale_envelope"
  | Bad_kind -> "bad_kind"
  | Stale_codec _ -> "stale_codec"
  | Nonce_mismatch -> "nonce_mismatch"
  | Key_mismatch -> "key_mismatch"
  | Length_mismatch -> "length_mismatch"
  | Crc_mismatch -> "crc_mismatch"
  | Tag_mismatch -> "tag_mismatch"
  | Source_mismatch -> "source_mismatch"

(* Stale versions and aliasing are expected operational misses; the
   rest mean the file does not parse as what we wrote — torn, truncated
   or tampered — and feed the store's [corrupt] counter. *)
let is_corrupt = function
  | Short | Bad_magic | Bad_kind | Length_mismatch | Crc_mismatch | Tag_mismatch -> true
  | Stale_envelope _ | Stale_codec _ | Nonce_mismatch | Key_mismatch | Source_mismatch ->
    false

(* folded key identity for the fast header check: 64-bit FNV-1a of the
   printable fingerprint, halves XORed down to 32 bits *)
let key_fp32 keys =
  let h = Hash.fnv1a64 (Keys.fingerprint keys) in
  Int64.to_int (Int64.logand (Int64.logxor h (Int64.shift_right_logical h 32)) 0xFFFF_FFFFL)

(* MAC input: the whole buffer as little-endian words, zero-padded to a
   word boundary. The tag field must already be zero when computing. *)
let words_of_bytes b =
  let len = Bytes.length b in
  Array.init ((len + 3) / 4) (fun i ->
      if (4 * i) + 4 <= len then Int32.to_int (Bytes.get_int32_le b (4 * i)) land Word.mask32
      else begin
        let w = ref 0 in
        for k = len - 1 downto 4 * i do
          w := (!w lsl 8) lor Bytes.get_uint8 b k
        done;
        !w
      end)

let tag_of_buffer ~keys b = Cbc_mac.mac_words keys.Keys.k2 (words_of_bytes b)

let encode ?(envelope_version = version) ~backend ~kind ~codec_version ~nonce ~keys ~source
    ~meta ~payload () =
  let slen = String.length source in
  let mlen = Bytes.length meta in
  let plen = Bytes.length payload in
  let total = header_bytes + slen + mlen + plen in
  let b = Bytes.make total '\000' in
  let put off v = Bytes.set_int32_le b off (Int32.of_int v) in
  Bytes.blit_string source 0 b header_bytes slen;
  Bytes.blit meta 0 b (header_bytes + slen) mlen;
  Bytes.blit payload 0 b (header_bytes + slen + mlen) plen;
  put 0x00 magic;
  put 0x04 envelope_version;
  put 0x08 (kind_tag ~backend kind);
  put 0x0C codec_version;
  put 0x10 nonce;
  put 0x14 (key_fp32 keys);
  put 0x18 slen;
  put 0x1C mlen;
  put 0x20 plen;
  put 0x24 (Hash.crc32 b ~off:header_bytes ~len:(total - header_bytes));
  (* the tag goes in last, computed with its own field still zero *)
  let m1, m2 = Cbc_mac.split_tag (tag_of_buffer ~keys b) in
  put 0x28 m1;
  put 0x2C m2;
  b

type ok = { meta : Bytes.t; payload : Bytes.t }

let decode ~backend ~kind ~codec_version ~nonce ~keys ~source b =
  let len = Bytes.length b in
  if len < header_bytes then Error Short
  else begin
    let get off = Word.word32_of_bytes_le b off in
    if get 0x00 <> magic then Error Bad_magic
    else if get 0x04 <> version then Error (Stale_envelope (get 0x04))
    else if get 0x08 <> kind_tag ~backend kind then Error Bad_kind
    else if get 0x0C <> codec_version then Error (Stale_codec (get 0x0C))
    else if get 0x10 <> nonce then Error Nonce_mismatch
    else if get 0x14 <> key_fp32 keys then Error Key_mismatch
    else begin
      let slen = get 0x18 and mlen = get 0x1C and plen = get 0x20 in
      (* exact-size arithmetic: a truncated OR padded file both fail
         here, so an oversized body can never smuggle extra bytes past
         the checks below *)
      if header_bytes + slen + mlen + plen <> len then Error Length_mismatch
      else if
        Hash.crc32 b ~off:header_bytes ~len:(len - header_bytes) <> get 0x24
      then Error Crc_mismatch
      else begin
        let stored = Cbc_mac.join_tag (get 0x28) (get 0x2C) in
        let zeroed = Bytes.copy b in
        Bytes.fill zeroed 0x28 8 '\000';
        if not (Int64.equal (tag_of_buffer ~keys zeroed) stored) then Error Tag_mismatch
        else if not (String.equal (Bytes.sub_string b header_bytes slen) source) then
          Error Source_mismatch
        else
          Ok
            {
              meta = Bytes.sub b (header_bytes + slen) mlen;
              payload = Bytes.sub b (header_bytes + slen + mlen) plen;
            }
      end
    end
  end
