open Sofia_util

let rounds = 25

let sbox = [| 0x6; 0x5; 0xC; 0xA; 0x1; 0xE; 0x7; 0x9; 0xB; 0x0; 0x3; 0xD; 0x8; 0xF; 0x4; 0x2 |]

let sbox_inv =
  let inv = Array.make 16 0 in
  Array.iteri (fun i s -> inv.(s) <- i) sbox;
  inv

(* --------------------------------------------------------------- *)
(* Bitsliced S-layer                                                *)
(* --------------------------------------------------------------- *)

(* The S-box applied to all 16 columns at once as boolean operations
   on the four 16-bit rows — the 12-instruction circuit from the
   RECTANGLE paper (ePrint 2014/084, §"bit-slice implementation").
   Inputs a0..a3 are rows 0..3 (row 0 = least-significant bit of each
   column nibble); outputs likewise. [ones] is the all-ones value of
   the columns in play, the circuit's one NOT: 0xFFFF for one row,
   [lane_mask] for a row of three lanes. Each output row is its own
   function, so no tuple is built (without flambda ocamlopt allocates
   one per call even when inlined); the round loop computes all four
   from the same inputs and ocamlopt's CSE computes the shared terms
   once. The circuit is pinned against the table both by the KAT
   replay and by the structural test that checks it against [sbox] on
   all 16 single-column values. *)
let[@inline] s_t6 ones a0 a1 a3 = a0 lxor (a3 lor (a1 lxor ones))
let[@inline] s_b0 ones a0 a1 a2 a3 = (a0 land (a1 lxor ones)) lxor (a2 lxor a3)
let[@inline] s_b1 ones a0 a1 a2 a3 = a2 lxor s_t6 ones a0 a1 a3

let[@inline] s_b2 ones a0 a1 a2 a3 =
  s_t6 ones a0 a1 a3 lxor (s_b0 ones a0 a1 a2 a3 lor (a1 lxor a2))

let[@inline] s_b3 ones a0 a1 a2 a3 = (a1 lxor a2) lxor ((a2 lxor a3) land s_t6 ones a0 a1 a3)

(* Inverse S-box as its algebraic normal form (Möbius transform of
   [sbox_inv]); only the decrypt direction uses it, which is off the
   hot path (the SOFIA pipeline and the MAC only ever encrypt). *)
let[@inline] inv_sub_bits a0 a1 a2 a3 =
  let a01 = a0 land a1 and a02 = a0 land a2 and a03 = a0 land a3 in
  let a12 = a1 land a2 and a13 = a1 land a3 and a23 = a2 land a3 in
  let b0 = 0xFFFF lxor a0 lxor a2 lxor (a01 land a2) lxor a3 lxor a13 lxor a23 in
  let b1 = a1 lxor a2 lxor a02 lxor a03 in
  let b2 = a0 lxor a1 lxor a2 lxor a3 lxor a03 in
  let b3 = 0xFFFF lxor a0 lxor a01 lxor a12 lxor a13 lxor (a01 land a3) lxor a23 in
  (b0, b1, b2, b3)

let sub_column st =
  let a0 = st.(0) and a1 = st.(1) and a2 = st.(2) and a3 = st.(3) in
  st.(0) <- s_b0 0xFFFF a0 a1 a2 a3;
  st.(1) <- s_b1 0xFFFF a0 a1 a2 a3;
  st.(2) <- s_b2 0xFFFF a0 a1 a2 a3;
  st.(3) <- s_b3 0xFFFF a0 a1 a2 a3

let inv_sub_column st =
  let r0, r1, r2, r3 = inv_sub_bits st.(0) st.(1) st.(2) st.(3) in
  st.(0) <- r0;
  st.(1) <- r1;
  st.(2) <- r2;
  st.(3) <- r3

let shift_row st =
  st.(1) <- Word.rotl16 st.(1) 1;
  st.(2) <- Word.rotl16 st.(2) 12;
  st.(3) <- Word.rotl16 st.(3) 13

let inv_shift_row st =
  st.(1) <- Word.rotl16 st.(1) 15;
  st.(2) <- Word.rotl16 st.(2) 4;
  st.(3) <- Word.rotl16 st.(3) 3

let rows_of_block b =
  [| Int64.to_int (Int64.logand b 0xFFFFL);
     Int64.to_int (Int64.logand (Int64.shift_right_logical b 16) 0xFFFFL);
     Int64.to_int (Int64.logand (Int64.shift_right_logical b 32) 0xFFFFL);
     Int64.to_int (Int64.logand (Int64.shift_right_logical b 48) 0xFFFFL) |]

let block_of_rows st =
  Int64.logor
    (Int64.of_int st.(0))
    (Int64.logor
       (Int64.shift_left (Int64.of_int st.(1)) 16)
       (Int64.logor
          (Int64.shift_left (Int64.of_int st.(2)) 32)
          (Int64.shift_left (Int64.of_int st.(3)) 48)))

(* 5-bit LFSR round constants: RC[0] = 0b00001; shift left, feedback
   bit = rc4 xor rc2. *)
let round_constants =
  let rc = Array.make rounds 0 in
  let state = ref 1 in
  for i = 0 to rounds - 1 do
    rc.(i) <- !state;
    let fb = ((!state lsr 4) lxor (!state lsr 2)) land 1 in
    state := ((!state lsl 1) lor fb) land 0x1F
  done;
  rc

(* --------------------------------------------------------------- *)
(* Lanes                                                            *)
(* --------------------------------------------------------------- *)

(* One OCaml int holds the same row of up to three blocks, 16 bits
   apart: bits 16j..16j+15 are lane j. Every step of a round but
   ShiftRow is bitwise, so a pass over three lanes costs what a pass
   over one costs. *)
let lanes = 3
let lane_mask = 0xFFFF_FFFF_FFFF

let[@inline] spread row = row lor (row lsl 16) lor (row lsl 32)

(* ShiftRow on every lane at once: rotate each 16-bit lane left by
   [n]. The left shift spills a lane's top [n] bits into the lane
   above and the right shift pulls the lane above's low bits down, so
   each half keeps only its own lane's bits; [low] is the [n] low bits
   of every lane. Bits above the top lane never reach a lane. *)
let[@inline] rotl_lanes x n low =
  ((x lsl n) land (lane_mask lxor low)) lor ((x lsr (16 - n)) land low)

type key = {
  subkeys : int64 array;
  (* the same 26 subkeys pre-split into rows and spread over the
     lanes, flat: lane j of rk.(4*r + i) is row i of subkey r — so the
     round loop never unpacks an int64 *)
  rk : int array;
}

(* 80-bit key schedule over a 5x16 key state. *)
let expand rows5 =
  let v = Array.copy rows5 in
  let subkeys = Array.make (rounds + 1) 0L and rk = Array.make (4 * (rounds + 1)) 0 in
  (* subkey [r] is the four low rows of the key state *)
  let extract r =
    subkeys.(r) <- block_of_rows v;
    for i = 0 to 3 do
      rk.((4 * r) + i) <- spread v.(i)
    done
  in
  for r = 0 to rounds - 1 do
    extract r;
    (* S-box on the 4 low columns of the 4 low rows: the bitsliced
       circuit on the low nibbles, high 12 bits kept *)
    let a0 = v.(0) land 0xF and a1 = v.(1) land 0xF and a2 = v.(2) land 0xF
    and a3 = v.(3) land 0xF in
    v.(0) <- (v.(0) land 0xFFF0) lor s_b0 0xF a0 a1 a2 a3;
    v.(1) <- (v.(1) land 0xFFF0) lor s_b1 0xF a0 a1 a2 a3;
    v.(2) <- (v.(2) land 0xFFF0) lor s_b2 0xF a0 a1 a2 a3;
    v.(3) <- (v.(3) land 0xFFF0) lor s_b3 0xF a0 a1 a2 a3;
    (* Generalized Feistel row mix. *)
    let v0 = v.(0) and v1 = v.(1) and v2 = v.(2) and v3 = v.(3) and v4 = v.(4) in
    v.(0) <- Word.rotl16 v0 8 lxor v1;
    v.(1) <- v2;
    v.(2) <- v3;
    v.(3) <- Word.rotl16 v3 12 lxor v4;
    v.(4) <- v0;
    (* Round constant into the low 5 bits of row 0. *)
    v.(0) <- v.(0) lxor round_constants.(r)
  done;
  extract rounds;
  { subkeys; rk }

let key_of_rows rows =
  if Array.length rows <> 5 then invalid_arg "Rectangle.key_of_rows: need 5 rows";
  Array.iter
    (fun r -> if r < 0 || r > 0xFFFF then invalid_arg "Rectangle.key_of_rows: row out of range")
    rows;
  expand rows

let key_of_bytes b =
  if Bytes.length b <> 10 then invalid_arg "Rectangle.key_of_bytes: need 10 bytes";
  (* big-endian: byte 0 is the most-significant byte of row 4 *)
  let row i =
    (* row 0 = least-significant 16 bits = last two bytes *)
    let hi = Bytes.get_uint8 b (8 - (2 * i)) in
    let lo = Bytes.get_uint8 b (9 - (2 * i)) in
    (hi lsl 8) lor lo
  in
  key_of_rows [| row 0; row 1; row 2; row 3; row 4 |]

let key_of_hex s =
  if String.length s <> 20 then invalid_arg "Rectangle.key_of_hex: need 20 hex digits";
  let b = Bytes.create 10 in
  for i = 0 to 9 do
    let byte = int_of_string ("0x" ^ String.sub s (2 * i) 2) in
    Bytes.set_uint8 b i byte
  done;
  key_of_bytes b

let random_key rng =
  key_of_rows (Array.init 5 (fun _ -> Prng.next32 rng land 0xFFFF))

let key_fingerprint k =
  (* hash of the first and last subkeys; stable and key-dependent but
     does not reveal the schedule *)
  let mix = Int64.logxor k.subkeys.(0) (Int64.mul k.subkeys.(rounds) 0x9E3779B97F4A7C15L) in
  Printf.sprintf "%08Lx" (Int64.logand mix 0xFFFF_FFFFL)

let subkeys k = Array.copy k.subkeys

(* The one encrypt round loop: three lanes, four rows held in locals,
   no allocation. [expand] sizes [rk] to 4 × 26 rows, so its reads
   need no bounds check. *)
let encrypt_lanes k st =
  let rk = k.rk in
  let r0 = ref st.(0) and r1 = ref st.(1) and r2 = ref st.(2) and r3 = ref st.(3) in
  for r = 0 to rounds - 1 do
    let i = 4 * r in
    let a0 = !r0 lxor Array.unsafe_get rk i
    and a1 = !r1 lxor Array.unsafe_get rk (i + 1)
    and a2 = !r2 lxor Array.unsafe_get rk (i + 2)
    and a3 = !r3 lxor Array.unsafe_get rk (i + 3) in
    r0 := s_b0 lane_mask a0 a1 a2 a3;
    r1 := rotl_lanes (s_b1 lane_mask a0 a1 a2 a3) 1 0x0001_0001_0001;
    r2 := rotl_lanes (s_b2 lane_mask a0 a1 a2 a3) 12 0x0FFF_0FFF_0FFF;
    r3 := rotl_lanes (s_b3 lane_mask a0 a1 a2 a3) 13 0x1FFF_1FFF_1FFF
  done;
  let i = 4 * rounds in
  st.(0) <- !r0 lxor rk.(i);
  st.(1) <- !r1 lxor rk.(i + 1);
  st.(2) <- !r2 lxor rk.(i + 2);
  st.(3) <- !r3 lxor rk.(i + 3)

(* One block in lane 0; the other two lanes encrypt zero blocks and
   are dropped. *)
let encrypt k block =
  let st = rows_of_block block in
  encrypt_lanes k st;
  Int64.logor
    (Int64.of_int
       ((st.(0) land 0xFFFF) lor ((st.(1) land 0xFFFF) lsl 16) lor ((st.(2) land 0xFFFF) lsl 32)))
    (Int64.shift_left (Int64.of_int (st.(3) land 0xFFFF)) 48)

let decrypt k block =
  (* lane 0 of the round keys *)
  let rk i = k.rk.(i) land 0xFFFF in
  let b = Int64.to_int (Int64.logand block 0xFFFF_FFFF_FFFFL) in
  let hi = Int64.to_int (Int64.shift_right_logical block 48) in
  let i = 4 * rounds in
  let r0 = ref ((b land 0xFFFF) lxor rk i)
  and r1 = ref (((b lsr 16) land 0xFFFF) lxor rk (i + 1))
  and r2 = ref (((b lsr 32) land 0xFFFF) lxor rk (i + 2))
  and r3 = ref (hi lxor rk (i + 3)) in
  for r = rounds - 1 downto 0 do
    (* inverse ShiftRow: rotations by 0, 15, 4, 3 *)
    let a0 = !r0
    and a1 = ((!r1 lsr 1) lor (!r1 lsl 15)) land 0xFFFF
    and a2 = ((!r2 lsr 12) lor (!r2 lsl 4)) land 0xFFFF
    and a3 = ((!r3 lsr 13) lor (!r3 lsl 3)) land 0xFFFF in
    let b0, b1, b2, b3 = inv_sub_bits a0 a1 a2 a3 in
    let i = 4 * r in
    r0 := (b0 land 0xFFFF) lxor rk i;
    r1 := (b1 land 0xFFFF) lxor rk (i + 1);
    r2 := (b2 land 0xFFFF) lxor rk (i + 2);
    r3 := (b3 land 0xFFFF) lxor rk (i + 3)
  done;
  Int64.logor
    (Int64.of_int (!r0 lor (!r1 lsl 16) lor (!r2 lsl 32)))
    (Int64.shift_left (Int64.of_int !r3) 48)

module Internal = struct
  let sbox = sbox
  let sbox_inv = sbox_inv
  let sub_column = sub_column
  let inv_sub_column = inv_sub_column
  let shift_row = shift_row
  let inv_shift_row = inv_shift_row
  let rows_of_block = rows_of_block
  let block_of_rows = block_of_rows
  let round_constants = round_constants
end
