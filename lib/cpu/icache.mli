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

val count_hits : t -> int -> unit
(** [count_hits t n] records [n] accesses known to hit without probing:
    the rest of a vanilla line-bounded block after its one probe, or
    the visits of a superblock whose lines are all {!all_resident} and
    {!conflict_free} (nothing else is fetched in between, so nothing
    can evict them). *)

val all_resident : t -> int array -> bool
(** An {!access} to each of these addresses now would hit. Changes
    nothing, counts nothing. *)

val conflict_free : t -> int array -> bool
(** No two of the lines holding these addresses map to the same set,
    unless they are the same line: all of them can be resident at
    once, and accesses among them never evict each other. *)

val accesses : t -> int
val misses : t -> int

val reset_stats : t -> unit
