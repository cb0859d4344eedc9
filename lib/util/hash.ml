(* Slice-by-8: table [k] (entries [256k] to [256k + 255]) maps a byte
   to what it adds to the CRC [k] bytes further on, so eight bytes fold
   in per step with eight independent lookups where the byte loop
   chains eight dependent ones. Table 0 is the byte-at-a-time table,
   which also folds in the tail. *)
let crc_tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 1 to 8 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let c = t.((256 * (k - 1)) + n) in
      t.((256 * k) + n) <- (c lsr 8) lxor t.(c land 0xFF)
    done
  done;
  t

let range ~what length off len =
  let off = Option.value off ~default:0 in
  let len = Option.value len ~default:(length - off) in
  if off < 0 || len < 0 || off > length - len then invalid_arg what;
  (off, len)

(* [range] bounds every byte read, and every table index is below
   2048. *)
let[@inline] t k i = Array.unsafe_get crc_tables ((256 * k) + i)
let[@inline] byte b i = Char.code (Bytes.unsafe_get b i)

let crc32 ?off ?len b =
  let off, len = range ~what:"Hash.crc32" (Bytes.length b) off len in
  let crc = ref 0xFFFF_FFFF in
  for step = 0 to (len / 8) - 1 do
    let p = off + (8 * step) and c = !crc in
    crc :=
      t 7 ((c lxor byte b p) land 0xFF)
      lxor t 6 (((c lsr 8) lxor byte b (p + 1)) land 0xFF)
      lxor t 5 (((c lsr 16) lxor byte b (p + 2)) land 0xFF)
      lxor t 4 ((c lsr 24) lxor byte b (p + 3))
      lxor t 3 (byte b (p + 4))
      lxor t 2 (byte b (p + 5))
      lxor t 1 (byte b (p + 6))
      lxor t 0 (byte b (p + 7))
  done;
  for p = off + (len land lnot 7) to off + len - 1 do
    crc := t 0 ((!crc lxor byte b p) land 0xFF) lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFF_FFFF

(* The accumulator is a local [int64] ref the compiler keeps unboxed:
   the loop allocates nothing. *)
let fnv1a64 ?(basis = 0xCBF29CE484222325L) ?off ?len s =
  let off, len = range ~what:"Hash.fnv1a64" (String.length s) off len in
  let h = ref basis in
  for i = off to off + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        0x100000001B3L
  done;
  !h
