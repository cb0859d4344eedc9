(** RECTANGLE-80 block cipher (Zhang et al., ePrint 2014/084), the
    cipher of the SOFIA prototype (paper §III): 64-bit block, 80-bit
    key, 25 rounds of bit-sliced SPN.

    The cipher state is a 4×16 bit array; the 64-bit block maps row 0
    to bits 15..0, row 1 to bits 31..16, row 2 to bits 47..32 and row 3
    to bits 63..48. A round is AddRoundKey, SubColumn (the 4-bit S-box
    applied to each of the 16 columns, row 0 = least-significant bit),
    ShiftRow (row rotations by 0, 1, 12, 13); a final AddRoundKey with
    the 26th subkey follows round 25. The 80-bit key schedule keeps a
    5×16 key state: S-box on the four low columns of the four low rows,
    a generalized-Feistel row mix, and a 5-bit LFSR round constant.

    No official test vectors ship offline; the implementation is
    validated structurally (see test suite): S-box table and inverse,
    per-round invertibility, full encrypt/decrypt round trips,
    avalanche behaviour. *)

type key
(** An expanded 80-bit key (subkeys precomputed). *)

val rounds : int
(** 25. *)

val key_of_rows : int array -> key
(** [key_of_rows rows] expands a key given as 5 16-bit rows
    (row 0 = least significant).
    @raise Invalid_argument on wrong length or out-of-range rows. *)

val key_of_hex : string -> key
(** 20 hex digits, most-significant first.
    @raise Invalid_argument on malformed input. *)

val key_of_bytes : bytes -> key
(** 10 bytes, big-endian. *)

val random_key : Sofia_util.Prng.t -> key

val key_fingerprint : key -> string
(** Short stable identifier (for logs/tests); not the key material. *)

val lanes : int
(** 3: the blocks one pass of {!encrypt_lanes} encrypts. *)

val encrypt_lanes : key -> int array -> unit
(** [encrypt_lanes k st] encrypts up to {!lanes} blocks under [k] in
    one pass of the round loop, in place. [st.(0)] to [st.(3)] hold
    the four state rows of every block at once: bits [16j] to
    [16j + 15] of [st.(i)] are row [i] of the block in lane [j], so a
    block [b] goes in lane [j] as [((b lsr 16i) land 0xFFFF) lsl 16j]
    and comes out the same way. The lanes are independent: an unused
    lane is a zero block whose result the caller drops, and bits above
    the top lane never reach one. The round keys are spread over the
    lanes when the key is expanded, so a pass over three blocks costs
    what a pass over one costs. Allocates nothing.
    @raise Invalid_argument if [st] has fewer than four rows. *)

val encrypt : key -> int64 -> int64
(** One block: {!encrypt_lanes} with the block in lane 0. *)

val decrypt : key -> int64 -> int64

val subkeys : key -> int64 array
(** The 26 round subkeys (exposed for unit tests of the schedule). *)

(** Internals exposed for white-box testing. *)
module Internal : sig
  val sbox : int array
  val sbox_inv : int array
  val sub_column : int array -> unit
  (** In-place on a 4-row state. *)

  val inv_sub_column : int array -> unit
  val shift_row : int array -> unit
  val inv_shift_row : int array -> unit
  val rows_of_block : int64 -> int array
  val block_of_rows : int array -> int64
  val round_constants : int array
  (** RC[0..24]. *)
end
