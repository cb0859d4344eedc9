let mac key blocks =
  List.fold_left (fun c m -> Rectangle.encrypt key (Int64.logxor c m)) 0L blocks
  |> fun c -> if blocks = [] then Rectangle.encrypt key 0L else c

let split_tag t =
  ( Int64.to_int (Int64.logand t 0xFFFF_FFFFL),
    Int64.to_int (Int64.logand (Int64.shift_right_logical t 32) 0xFFFF_FFFFL) )

let join_tag m1 m2 =
  Int64.logor
    (Int64.of_int (m1 land 0xFFFF_FFFF))
    (Int64.shift_left (Int64.of_int (m2 land 0xFFFF_FFFF)) 32)

(* A message of [n] words is ⌈n/2⌉ blocks, and the empty message one
   zero block, since E(0 ⊕ 0) = E(0). (Int comparisons throughout:
   the polymorphic [min] and [max] cost a C call each.) *)
let blocks_of m = if Array.length m = 0 then 1 else (Array.length m + 1) / 2
let word m k = if k < Array.length m then m.(k) land 0xFFFF_FFFF else 0

(* Xor block [b] of [m] (words 2b and 2b+1, the low and high halves)
   into the rows of lane [j]. *)
let absorb st j m b =
  let sh = 16 * j and lo = word m (2 * b) and hi = word m ((2 * b) + 1) in
  st.(0) <- st.(0) lxor ((lo land 0xFFFF) lsl sh);
  st.(1) <- st.(1) lxor ((lo lsr 16) lsl sh);
  st.(2) <- st.(2) lxor ((hi land 0xFFFF) lsl sh);
  st.(3) <- st.(3) lxor ((hi lsr 16) lsl sh)

let[@inline] half st j r =
  let sh = 16 * j in
  ((st.(r) lsr sh) land 0xFFFF) lor (((st.(r + 1) lsr sh) land 0xFFFF) lsl 16)

let tag_of st j = join_tag (half st j 0) (half st j 2)

(* Three chains per pass, one to a lane, each from the zero IV; a
   lane's tag is read after its last block's pass, and a lane whose
   message has ended rides along and is dropped. *)
let mac_words_batch key messages =
  let n = Array.length messages in
  let tags = Array.make n 0L and st = Array.make 4 0 in
  let i = ref 0 in
  while !i < n do
    let lanes = if n - !i < Rectangle.lanes then n - !i else Rectangle.lanes in
    let passes = ref 0 in
    for j = 0 to lanes - 1 do
      let b = blocks_of messages.(!i + j) in
      if b > !passes then passes := b
    done;
    for r = 0 to 3 do
      st.(r) <- 0
    done;
    for b = 0 to !passes - 1 do
      for j = 0 to lanes - 1 do
        absorb st j messages.(!i + j) b
      done;
      Rectangle.encrypt_lanes key st;
      for j = 0 to lanes - 1 do
        if b = blocks_of messages.(!i + j) - 1 then tags.(!i + j) <- tag_of st j
      done
    done;
    i := !i + lanes
  done;
  tags

(* One chain in lane 0. *)
let mac_words key words =
  let st = Array.make 4 0 in
  for b = 0 to blocks_of words - 1 do
    absorb st 0 words b;
    Rectangle.encrypt_lanes key st
  done;
  tag_of st 0

let verify_words key words ~m1 ~m2 = Int64.equal (mac_words key words) (join_tag m1 m2)
