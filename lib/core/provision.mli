(** Device-fleet provisioning — the deployment story of the paper:
    "each processor is embedded with a set of unique keys that can only
    be accessed by the block cipher. These keys are known only by the
    software provider" (§II), and "the nonce ω needs to be unique
    across different programs and different program versions" (§II-A).

    The provider side: mint per-device key sets, build per-device
    encrypted images of a release, manage version nonces, and check a
    release with the independent verifier before shipping. *)

type device = {
  device_id : string;
  keys : Sofia_crypto.Keys.t;
}

type release = {
  version : int;
  nonce : int;  (** ω derived from [version]; must stay unique per program *)
  images : (string * Sofia_transform.Image.t) list;  (** device id → image *)
}

val mint_fleet : seed:int64 -> count:int -> device list
(** [count] devices with independently derived key sets and stable
    ids ["dev-000"], ["dev-001"], … *)

val nonce_of_version : int -> (int, string) result
(** ω for a version number. Versions map injectively onto the 8-bit
    nonce space; version ≥ 256 is refused (the architecture's nonce
    would wrap, enabling replay of a 256-versions-old image). *)

val release :
  devices:device list ->
  version:int ->
  Sofia_asm.Program.t ->
  (release, string) result
(** Build and {e verify} one image per device: the program is laid
    out once, then encrypted and checked by the independent verifier
    under each device's keys. Each image is the one
    {!Sofia_transform.Transform.protect} builds for that device. Fails
    with a rendered diagnostic, naming the first device when the
    layout is refused, if the transformation or the verifier rejects
    any image. *)

val image_for : release -> device_id:string -> Sofia_transform.Image.t option

val ciphertext_diversity : release -> float
(** Fraction of text-word positions at which all device images differ
    pairwise — ≈ 1.0 when per-device keys are doing their job (the
    copyright-protection property). *)
