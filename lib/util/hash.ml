let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 1 to 8 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let range ~what length off len =
  let off = Option.value off ~default:0 in
  let len = Option.value len ~default:(length - off) in
  if off < 0 || len < 0 || off > length - len then invalid_arg what;
  (off, len)

let crc32 ?off ?len b =
  let off, len = range ~what:"Hash.crc32" (Bytes.length b) off len in
  let crc = ref 0xFFFF_FFFF in
  for i = off to off + len - 1 do
    let byte = Char.code (Bytes.unsafe_get b i) in
    crc := Array.unsafe_get crc_table ((!crc lxor byte) land 0xFF) lxor (!crc lsr 8)
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
