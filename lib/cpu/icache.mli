(** Direct-mapped instruction cache model.

    One SOFIA block (32 bytes) is exactly one line with the default
    geometry, so a block fetch touches one line. The model only tracks
    hit/miss (contents are irrelevant to a functional simulator). *)

type config = { size_bytes : int; line_bytes : int }

val default : config
(** 4 KiB, 32-byte lines — LEON3 minimal configuration territory. *)

type t

val create : config -> t
(** @raise Invalid_argument unless both sizes are powers of two and the
    cache holds at least one line. *)

val access : t -> int -> bool
(** [access t addr] touches the line containing [addr] (a non-negative
    address); returns [true] on hit, [false] on miss (the line is then
    filled). *)

val hit_same_line : t -> int -> unit
(** [hit_same_line t n] records [n] further accesses to the line the
    last {!access} touched: all hits, since nothing can evict a line
    between two accesses to it. The vanilla engine probes once per
    line-bounded block and counts the block's other fetches here. *)

val accesses : t -> int
val misses : t -> int

val reset_stats : t -> unit
