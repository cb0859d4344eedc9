(** The SOFIA per-device key set (paper §II-B.1): each device holds
    three RECTANGLE-80 keys known only to the software provider —

    - [k1]: CTR-mode instruction encryption (CFI);
    - [k2]: CBC-MAC of execution blocks (6 instruction words);
    - [k3]: CBC-MAC of multiplexor blocks (5 instruction words).

    Keys can only be accessed by the block cipher in hardware; in this
    simulator they live inside the SOFIA frontend model and never in
    simulated memory. *)

type t = { k1 : Rectangle.key; k2 : Rectangle.key; k3 : Rectangle.key }

val generate : seed:int64 -> t
(** Deterministic derivation of three independent keys from a seed. *)

val fingerprint : t -> string
