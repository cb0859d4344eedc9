(** The two non-cryptographic hashes the stack uses, each in one place.

    [crc32] guards the [.sfi] container and the disk-store envelope
    against accidental corruption; [fnv1a64] names images, store files
    and fleet shards. Neither is a security boundary: MACs decide what
    runs (DESIGN §12). Neither allocates per byte. *)

val crc32 : ?off:int -> ?len:int -> Bytes.t -> int
(** CRC-32 (reflected, polynomial [0xEDB88320], initial value and
    final XOR [0xFFFFFFFF]) of [len] bytes from [off] (default: the
    whole buffer), slice-by-8: eight bytes per step through eight
    256-entry tables (about 1 ns a byte, four times the
    byte-at-a-time table), the last [len mod 8] bytes through the
    first table. The check value of ["123456789"] is [0xCBF43926].
    @raise Invalid_argument if [off] and [len] do not name a range of
    the buffer. *)

val fnv1a64 : ?basis:int64 -> ?off:int -> ?len:int -> string -> int64
(** 64-bit FNV-1a of [len] bytes from [off] (default: the whole
    string), starting from [basis] (default: the FNV offset basis
    [0xCBF29CE484222325]). Hash a [Bytes.t] through
    [Bytes.unsafe_to_string]. *)
