(** On-disk format for protected images — what would be programmed into
    the target's non-volatile memory (paper §III: "in production the
    transformed binary can be stored and executed from the target's
    non-volatile memory").

    The container stores only what the device needs: the encrypted
    text, the data image, the entry port and ω. It deliberately holds
    no plaintext, no MACs in the clear and no keys — everything
    sensitive stays inside the SOFIA core. A CRC-32 of the payload
    detects accidental corruption (malicious corruption is the SI
    mechanism's job at run time).

    Layout (little-endian 32-bit words):

    {v
    0x00  magic "SFIA"        0x10  text word count
    0x04  format version (1)  0x14  data base
    0x08  nonce ω             0x18  data byte count
    0x0C  entry address       0x1C  payload CRC-32
    0x20  text base           0x24... encrypted text, then data
    v}

    Version 1 is frozen: SOFIA images always serialize as v1,
    bit-for-bit, so existing digests stay stable. Non-SOFIA backends
    use version 2, which extends the header by two words —
    0x24 backend tag, 0x28 patch word count — and inserts the SCFP
    patch table between the text and the data (payload starts at
    0x2C).

    Loading returns a {!Loaded.t}: enough to run on the SOFIA core.
    Plaintext-side metadata (per-block instruction views, statistics,
    source mapping) exists only in the in-memory {!Image.t} produced at
    protection time. *)

type error =
  | Bad_magic
  | Unsupported_version of int
  | Truncated
  | Checksum_mismatch

val pp_error : Format.formatter -> error -> unit

module Loaded : sig
  type t = {
    backend : Backend_id.t;
    nonce : int;
    entry : int;
    text_base : int;
    cipher : int array;
    patches : int array;  (** SCFP patch table; empty for v1/SOFIA *)
    data : Bytes.t;
    data_base : int;
  }
end

val serialize : Image.t -> Bytes.t
(** Encode an image into the container format. *)

val deserialize : Bytes.t -> (Loaded.t, error) result

val save : Image.t -> path:string -> unit
(** @raise Sys_error on I/O failure. *)

val load : path:string -> (Loaded.t, error) result
(** @raise Sys_error on I/O failure. *)

val image_of_loaded : Loaded.t -> Image.t
(** Reconstruct a runnable {!Image.t} from a loaded container. The
    plaintext-side block views are {e not} recoverable without keys, so
    the per-block metadata is filled with ciphertext-only placeholders;
    the SOFIA runner needs none of it. *)
