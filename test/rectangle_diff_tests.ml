(* Differential battery: the optimised RECTANGLE-80 ([Rectangle],
   precomputed round-key rows + bitsliced S-layer) against the kept
   straight-from-the-paper implementation ([Rectangle_ref]).

   The two implementations share no cipher code — [Rectangle_ref]
   re-packs the state and runs the table S-box every round, [Rectangle]
   runs a boolean circuit over precomputed rows — so agreement on 100k
   random (key, plaintext) pairs plus every pinned KAT and key-schedule
   vector means a fast-path bug cannot hide behind a matching bug in
   the oracle. *)

module Rectangle = Sofia.Crypto.Rectangle
module Rectangle_ref = Sofia.Crypto.Rectangle_ref
module Ctr = Sofia.Crypto.Ctr
module Cbc_mac = Sofia.Crypto.Cbc_mac
module Hash = Sofia.Util.Hash
module Prng = Sofia.Util.Prng

let load_lines path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" && line.[0] <> '#' then lines := line :: !lines
     done
   with End_of_file -> close_in ic);
  List.rev !lines

(* 100k random key/plaintext pairs: encrypt must agree bit-for-bit,
   and the fast decrypt must invert the fast encrypt. Keys are reused
   across a burst of plaintexts so the (cheap) schedule doesn't
   dominate and we still cross ~3k distinct schedules. *)
let test_random_differential () =
  let rng = Prng.create ~seed:0xD1FFL in
  let pairs = 100_000 and per_key = 32 in
  let checked = ref 0 in
  while !checked < pairs do
    let key_hex = String.init 20 (fun _ -> "0123456789abcdef".[Prng.int_below rng 16]) in
    let fast = Rectangle.key_of_hex key_hex in
    let reference = Rectangle_ref.key_of_hex key_hex in
    for _ = 1 to per_key do
      let plain = Prng.next64 rng in
      let c_fast = Rectangle.encrypt fast plain in
      let c_ref = Rectangle_ref.encrypt reference plain in
      if c_fast <> c_ref then
        Alcotest.failf "encrypt mismatch: key %s plain %Lx fast %Lx ref %Lx" key_hex plain c_fast
          c_ref;
      if Rectangle.decrypt fast c_fast <> plain then
        Alcotest.failf "fast decrypt not inverse: key %s plain %Lx" key_hex plain;
      incr checked
    done
  done

(* Replay the pinned KAT vectors on BOTH implementations — the oracle
   itself must still match history, or a drifted oracle would silently
   weaken the differential above. *)
let test_kat_both_impls () =
  let vectors = load_lines (Filename.concat "vectors" "rectangle_kat.txt") in
  Alcotest.(check bool) "at least 64 vectors" true (List.length vectors >= 64);
  List.iteri
    (fun i line ->
      Scanf.sscanf line "%s %Lx %Lx" (fun key_hex plain cipher ->
          let fast = Rectangle.key_of_hex key_hex in
          let reference = Rectangle_ref.key_of_hex key_hex in
          Alcotest.(check int64)
            (Printf.sprintf "vector %d: fast encrypt" i)
            cipher (Rectangle.encrypt fast plain);
          Alcotest.(check int64)
            (Printf.sprintf "vector %d: ref encrypt" i)
            cipher (Rectangle_ref.encrypt reference plain);
          Alcotest.(check int64)
            (Printf.sprintf "vector %d: ref decrypt" i)
            plain (Rectangle_ref.decrypt reference cipher)))
    vectors

(* Replay the pinned key-schedule vectors: all 26 round subkeys, from
   both implementations. This pins the schedule *precomputation*
   independently of encryption — a subkey bug that happened to cancel
   in a full encrypt replay is still named here. *)
let test_keyschedule_both_impls () =
  let vectors = load_lines (Filename.concat "vectors" "rectangle_keyschedule.txt") in
  Alcotest.(check bool) "at least 30 vectors" true (List.length vectors >= 30);
  List.iteri
    (fun i line ->
      match String.split_on_char ' ' line with
      | key_hex :: subkey_hexes ->
        let pinned = Array.of_list (List.map (fun h -> Int64.of_string ("0x" ^ h)) subkey_hexes) in
        Alcotest.(check int) (Printf.sprintf "vector %d: 26 subkeys" i) 26 (Array.length pinned);
        let check_impl name subkeys =
          Array.iteri
            (fun r sk ->
              if sk <> pinned.(r) then
                Alcotest.failf "vector %d: %s subkey[%d] = %Lx, pinned %Lx" i name r sk pinned.(r))
            subkeys
        in
        check_impl "fast" (Rectangle.subkeys (Rectangle.key_of_hex key_hex));
        check_impl "ref" (Rectangle_ref.subkeys (Rectangle_ref.key_of_hex key_hex))
      | [] -> Alcotest.failf "vector %d: empty line" i)
    vectors

(* The whitebox S-layer helpers must agree between the bitsliced
   circuit (fast Internal) and the table walk (ref Internal) on every
   4x16 state — exhaustive over each 16-bit row pattern applied to all
   rows at once, plus random states. *)
let test_sub_column_differential () =
  let rng = Prng.create ~seed:0x5B0CL in
  let check state =
    let a = Array.copy state and b = Array.copy state in
    Rectangle.Internal.sub_column a;
    Rectangle_ref.Internal.sub_column b;
    if a <> b then Alcotest.failf "sub_column mismatch on %04x %04x" state.(0) state.(1);
    Rectangle.Internal.inv_sub_column a;
    if a <> state then Alcotest.failf "inv_sub_column not inverse on %04x" state.(0)
  in
  for v = 0 to 0xFFFF do
    check [| v; v lxor 0xFFFF; v; v lxor 0xFFFF |]
  done;
  for _ = 1 to 10_000 do
    check (Array.init 4 (fun _ -> Prng.int_below rng 0x10000))
  done

(* ---- the batch kernels, each against its one-at-a-time definition ---- *)

let random_key_hex rng = String.init 20 (fun _ -> "0123456789abcdef".[Prng.int_below rng 16])

let row b i = Int64.to_int (Int64.logand (Int64.shift_right_logical b (16 * i)) 0xFFFFL)

(* Three different blocks per pass, against the reference cipher lane
   by lane. A third of the passes draw each block's rows from all-ones
   and all-zero rows, so a lane of ones sits beside a lane of zeros and
   a rotation or NOT that crosses a 16-bit boundary flips a
   neighbour's bit; a fifth set bits above the top lane, which no lane
   may read. *)
let test_three_lanes_vs_ref () =
  let rng = Prng.create ~seed:0x1A9E5L in
  let edge () =
    List.fold_left
      (fun b i -> if Prng.int_below rng 2 = 0 then b else Int64.logor b (Int64.shift_left 0xFFFFL (16 * i)))
      0L [ 0; 1; 2; 3 ]
  in
  for pass = 1 to 30_000 do
    let key_hex = random_key_hex rng in
    let fast = Rectangle.key_of_hex key_hex and reference = Rectangle_ref.key_of_hex key_hex in
    let blocks = Array.init Rectangle.lanes (fun _ -> if pass mod 3 = 0 then edge () else Prng.next64 rng) in
    let st =
      Array.init 4 (fun i ->
          let rows = ref 0 in
          Array.iteri (fun j b -> rows := !rows lor (row b i lsl (16 * j))) blocks;
          !rows)
    in
    if pass mod 5 = 0 then
      Array.iteri (fun i r -> st.(i) <- r lor (Prng.int_below rng 0x4000 lsl 48)) st;
    Rectangle.encrypt_lanes fast st;
    Array.iteri
      (fun j b ->
        let got =
          List.fold_left
            (fun acc i ->
              Int64.logor acc
                (Int64.shift_left (Int64.of_int ((st.(i) lsr (16 * j)) land 0xFFFF)) (16 * i)))
            0L [ 0; 1; 2; 3 ]
        in
        let want = Rectangle_ref.encrypt reference b in
        if got <> want then
          Alcotest.failf "pass %d lane %d: key %s plain %Lx lanes %Lx want %Lx" pass j key_hex b
            got want)
      blocks
  done

(* A block's keystream words against one [keystream32] per word, for
   every nonce (ω is row 3's top byte) and addresses up to 2^30 - 4;
   and both refuse the same bad inputs. *)
let test_keystream_words_vs_per_word () =
  let rng = Prng.create ~seed:0x6B57L in
  let top = (1 lsl 30) - 4 in
  let addr () =
    match Prng.int_below rng 4 with
    | 0 -> top - (4 * Prng.int_below rng 16)
    | 1 -> 4 * Prng.int_below rng 16
    | _ -> 4 * Prng.int_below rng (1 lsl 28)
  in
  let per_word key ~nonce ~prev_pcs ~pc =
    Array.mapi (fun i prev_pc -> Ctr.keystream32 key ~nonce ~prev_pc ~pc:(pc + (4 * i))) prev_pcs
  in
  let refused f = match f () with _ -> false | exception Invalid_argument _ -> true in
  for nonce = 0 to 255 do
    let key = Rectangle.key_of_hex (random_key_hex rng) in
    for _ = 1 to 8 do
      let n = if Prng.int_below rng 2 = 0 then 8 else Prng.int_below rng 11 in
      let prev_pcs = Array.init n (fun _ -> addr ()) in
      let pc = min (addr ()) (top - (4 * max 0 (n - 1))) in
      let got = Ctr.keystream_words key ~nonce ~prev_pcs ~pc in
      let want = per_word key ~nonce ~prev_pcs ~pc in
      if got <> want then Alcotest.failf "nonce %d pc 0x%x: %d words differ" nonce pc n;
      (* one bad input of each kind *)
      let bad_nonce = if Prng.int_below rng 2 = 0 then 256 + nonce else -1 - nonce in
      let bad_addr () =
        match Prng.int_below rng 3 with
        | 0 -> 0x2
        | 1 -> 0x8000_0000
        | _ -> top + 4
      in
      let cases =
        [ (bad_nonce, prev_pcs, pc);
          (nonce, Array.mapi (fun i p -> if i = n / 2 then bad_addr () else p) prev_pcs, pc);
          (nonce, prev_pcs, bad_addr ());
          (nonce, prev_pcs, top - (4 * max 0 (n - 2))) ]
      in
      List.iter
        (fun (nonce, prev_pcs, pc) ->
          let a = refused (fun () -> Ctr.keystream_words key ~nonce ~prev_pcs ~pc)
          and b = refused (fun () -> per_word key ~nonce ~prev_pcs ~pc) in
          if a <> b then
            Alcotest.failf "nonce %d pc 0x%x, %d words: batch refuses %b, per word %b" nonce pc n a b)
        cases
    done
  done

(* Batched MACs against [Cbc_mac.mac] of each message's blocks, for
   counts that are and are not a multiple of three and for batches
   mixing execution-block (6 words) and multiplexor-block (5 words)
   lengths with others. *)
let test_mac_batch_vs_mac () =
  let rng = Prng.create ~seed:0xBA7CL in
  let blocks_of words =
    List.init ((Array.length words + 1) / 2) (fun k ->
        let w i = if i < Array.length words then Int64.of_int (words.(i) land 0xFFFF_FFFF) else 0L in
        Int64.logor (w (2 * k)) (Int64.shift_left (w ((2 * k) + 1)) 32))
  in
  for round = 1 to 400 do
    let key = Rectangle.key_of_hex (random_key_hex rng) in
    let count = Prng.int_below rng 11 in
    let length () =
      match round mod 3 with
      | 0 -> 6
      | 1 -> if Prng.int_below rng 2 = 0 then 5 else 6
      | _ -> Prng.int_below rng 10
    in
    let messages =
      Array.init count (fun _ -> Array.init (length ()) (fun _ -> Prng.next32 rng))
    in
    let tags = Cbc_mac.mac_words_batch key messages in
    Alcotest.(check int) "one tag per message" count (Array.length tags);
    Array.iteri
      (fun i m ->
        let want = Cbc_mac.mac key (blocks_of m) in
        if tags.(i) <> want || Cbc_mac.mac_words key m <> want then
          Alcotest.failf "round %d: message %d of %d (%d words): %Lx, want %Lx" round i count
            (Array.length m) tags.(i) want)
      messages
  done

(* Slice-by-8 CRC-32 against the bit-at-a-time definition, for every
   offset and length up to 40 bytes. *)
let test_crc32_vs_bitwise () =
  let rng = Prng.create ~seed:0xC3C8L in
  let b = Bytes.init 81 (fun _ -> Char.chr (Prng.int_below rng 256)) in
  let bitwise off len =
    let crc = ref 0xFFFF_FFFF in
    for i = off to off + len - 1 do
      crc := !crc lxor Char.code (Bytes.get b i);
      for _ = 1 to 8 do
        crc := if !crc land 1 = 1 then (!crc lsr 1) lxor 0xEDB88320 else !crc lsr 1
      done
    done;
    !crc lxor 0xFFFF_FFFF
  in
  for off = 0 to 40 do
    for len = 0 to 40 do
      let got = Hash.crc32 b ~off ~len and want = bitwise off len in
      if got <> want then Alcotest.failf "off %d len %d: %08x, want %08x" off len got want
    done
  done;
  Alcotest.(check int) "whole buffer" (bitwise 0 81) (Hash.crc32 b)

let suite =
  [
    Alcotest.test_case "random-100k-fast-vs-ref" `Quick test_random_differential;
    Alcotest.test_case "kat-replay-both-impls" `Quick test_kat_both_impls;
    Alcotest.test_case "keyschedule-replay-both-impls" `Quick test_keyschedule_both_impls;
    Alcotest.test_case "sub-column-fast-vs-ref" `Quick test_sub_column_differential;
    Alcotest.test_case "three-lanes-vs-ref" `Quick test_three_lanes_vs_ref;
    Alcotest.test_case "keystream-words-vs-per-word" `Quick test_keystream_words_vs_per_word;
    Alcotest.test_case "mac-batch-vs-mac" `Quick test_mac_batch_vs_mac;
    Alcotest.test_case "crc32-slice-by-8-vs-bitwise" `Quick test_crc32_vs_bitwise;
  ]
