(* Tests for RECTANGLE-80, CTR-mode instruction encryption and
   CBC-MAC. *)

module Rectangle = Sofia.Crypto.Rectangle
module Ctr = Sofia.Crypto.Ctr
module Cbc_mac = Sofia.Crypto.Cbc_mac
module Keys = Sofia.Crypto.Keys
module Prng = Sofia.Util.Prng
module Word = Sofia.Util.Word

let check_int = Alcotest.(check int)
let check_i64 = Alcotest.(check int64)

let key1 = Rectangle.key_of_hex "00112233445566778899"
let key2 = Rectangle.key_of_hex "ffeeddccbbaa99887766"

let test_sbox_tables () =
  let s = Rectangle.Internal.sbox and si = Rectangle.Internal.sbox_inv in
  Alcotest.(check (array int)) "published S-box"
    [| 0x6; 0x5; 0xC; 0xA; 0x1; 0xE; 0x7; 0x9; 0xB; 0x0; 0x3; 0xD; 0x8; 0xF; 0x4; 0x2 |]
    s;
  for x = 0 to 15 do
    check_int "inverse" x si.(s.(x))
  done;
  (* the S-box is a permutation with no fixed points *)
  for x = 0 to 15 do
    Alcotest.(check bool) "no fixed point" true (s.(x) <> x)
  done

let test_sub_column_roundtrip () =
  let rng = Prng.create ~seed:5L in
  for _ = 1 to 100 do
    let st = Array.init 4 (fun _ -> Prng.next32 rng land 0xFFFF) in
    let copy = Array.copy st in
    Rectangle.Internal.sub_column st;
    Rectangle.Internal.inv_sub_column st;
    Alcotest.(check (array int)) "subcolumn inverse" copy st
  done

let test_shift_row_roundtrip () =
  let rng = Prng.create ~seed:6L in
  for _ = 1 to 100 do
    let st = Array.init 4 (fun _ -> Prng.next32 rng land 0xFFFF) in
    let copy = Array.copy st in
    Rectangle.Internal.shift_row st;
    Rectangle.Internal.inv_shift_row st;
    Alcotest.(check (array int)) "shiftrow inverse" copy st
  done

let test_shift_row_offsets () =
  let st = [| 1; 1; 1; 1 |] in
  Rectangle.Internal.shift_row st;
  check_int "row0 unrotated" 1 st.(0);
  check_int "row1 by 1" 2 st.(1);
  check_int "row2 by 12" (1 lsl 12) st.(2);
  check_int "row3 by 13" (1 lsl 13) st.(3)

let test_block_rows_roundtrip () =
  let rng = Prng.create ~seed:7L in
  for _ = 1 to 100 do
    let b = Prng.next64 rng in
    check_i64 "rows roundtrip" b
      (Rectangle.Internal.block_of_rows (Rectangle.Internal.rows_of_block b))
  done

let test_round_constants () =
  let rc = Rectangle.Internal.round_constants in
  check_int "count" 25 (Array.length rc);
  check_int "rc0" 1 rc.(0);
  check_int "rc1" 2 rc.(1);
  check_int "rc2" 4 rc.(2);
  check_int "rc3" 9 rc.(3) (* feedback = bit4 xor bit2 of 0b00100 = 1 *);
  Array.iter (fun c -> Alcotest.(check bool) "5-bit" true (c >= 1 && c <= 31)) rc;
  (* LFSR must not repeat within the 25 rounds (period 31) *)
  let sorted = Array.copy rc in
  Array.sort compare sorted;
  for i = 1 to 24 do
    Alcotest.(check bool) "distinct" true (sorted.(i) <> sorted.(i - 1))
  done

let test_subkeys () =
  let sk = Rectangle.subkeys key1 in
  check_int "26 subkeys" 26 (Array.length sk);
  let distinct = List.sort_uniq compare (Array.to_list sk) in
  Alcotest.(check bool) "subkeys differ" true (List.length distinct >= 25)

let test_encrypt_decrypt_roundtrip () =
  let rng = Prng.create ~seed:8L in
  for _ = 1 to 200 do
    let p = Prng.next64 rng in
    check_i64 "roundtrip k1" p (Rectangle.decrypt key1 (Rectangle.encrypt key1 p));
    check_i64 "roundtrip k2" p (Rectangle.decrypt key2 (Rectangle.encrypt key2 p))
  done

let test_keys_matter () =
  let p = 0x0123_4567_89AB_CDEFL in
  Alcotest.(check bool) "different keys, different ciphertext" true
    (not (Int64.equal (Rectangle.encrypt key1 p) (Rectangle.encrypt key2 p)));
  Alcotest.(check bool) "ciphertext differs from plaintext" true
    (not (Int64.equal (Rectangle.encrypt key1 p) p))

let test_avalanche () =
  (* flipping one plaintext bit should flip roughly half the ciphertext
     bits *)
  let rng = Prng.create ~seed:9L in
  let total = ref 0 in
  let trials = 200 in
  for _ = 1 to trials do
    let p = Prng.next64 rng in
    let bit = Prng.int_below rng 64 in
    let p' = Int64.logxor p (Int64.shift_left 1L bit) in
    let d = Int64.logxor (Rectangle.encrypt key1 p) (Rectangle.encrypt key1 p') in
    total := !total + Word.popcount64 d
  done;
  let mean = float_of_int !total /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "avalanche mean %.1f in [26,38]" mean)
    true
    (mean > 26.0 && mean < 38.0)

let test_key_parsing () =
  let a = Rectangle.key_of_hex "00000000000000000000" in
  let b = Rectangle.key_of_rows [| 0; 0; 0; 0; 0 |] in
  check_i64 "hex/rows agree" (Rectangle.encrypt a 1L) (Rectangle.encrypt b 1L);
  let c = Rectangle.key_of_bytes (Bytes.make 10 '\255') in
  let d = Rectangle.key_of_rows [| 0xFFFF; 0xFFFF; 0xFFFF; 0xFFFF; 0xFFFF |] in
  check_i64 "bytes/rows agree" (Rectangle.encrypt c 1L) (Rectangle.encrypt d 1L);
  Alcotest.check_raises "bad hex length" (Invalid_argument "Rectangle.key_of_hex: need 20 hex digits")
    (fun () -> ignore (Rectangle.key_of_hex "0011"));
  Alcotest.check_raises "bad rows" (Invalid_argument "Rectangle.key_of_rows: need 5 rows")
    (fun () -> ignore (Rectangle.key_of_rows [| 1; 2 |]))

(* ---------------- CTR ---------------- *)

let test_counter_packing () =
  let c = Ctr.counter ~nonce:0xAB ~prev_pc:0x100 ~pc:0x104 in
  check_i64 "layout"
    (Int64.logor
       (Int64.shift_left 0xABL 56)
       (Int64.logor (Int64.shift_left (Int64.of_int (0x100 / 4)) 28) (Int64.of_int (0x104 / 4))))
    c;
  (* injectivity over a sample *)
  let seen = Hashtbl.create 64 in
  for p = 0 to 20 do
    for q = 0 to 20 do
      let c = Ctr.counter ~nonce:1 ~prev_pc:(4 * p) ~pc:(4 * q) in
      Alcotest.(check bool) "injective" false (Hashtbl.mem seen c);
      Hashtbl.replace seen c ()
    done
  done

let test_counter_validation () =
  let bad f = match f () with exception Invalid_argument _ -> () | _ -> Alcotest.fail "expected" in
  bad (fun () -> Ctr.counter ~nonce:256 ~prev_pc:0 ~pc:0);
  bad (fun () -> Ctr.counter ~nonce:0 ~prev_pc:2 ~pc:0);
  bad (fun () -> Ctr.counter ~nonce:0 ~prev_pc:0 ~pc:(4 * (1 lsl 28)))

let test_crypt_word_involution () =
  let rng = Prng.create ~seed:10L in
  for _ = 1 to 100 do
    let w = Prng.next32 rng in
    let c = Ctr.crypt_word key1 ~nonce:3 ~prev_pc:0x20 ~pc:0x40 w in
    Alcotest.(check bool) "ciphertext differs" true (c <> w);
    check_int "involution" w (Ctr.crypt_word key1 ~nonce:3 ~prev_pc:0x20 ~pc:0x40 c)
  done

let test_keystream_edge_sensitivity () =
  (* the whole point of SOFIA's CFI: a different prevPC gives a
     different keystream *)
  let k = Ctr.keystream32 key1 ~nonce:1 ~prev_pc:0x100 ~pc:0x200 in
  Alcotest.(check bool) "prev_pc matters" true
    (k <> Ctr.keystream32 key1 ~nonce:1 ~prev_pc:0x104 ~pc:0x200);
  Alcotest.(check bool) "pc matters" true
    (k <> Ctr.keystream32 key1 ~nonce:1 ~prev_pc:0x100 ~pc:0x204);
  Alcotest.(check bool) "nonce matters" true
    (k <> Ctr.keystream32 key1 ~nonce:2 ~prev_pc:0x100 ~pc:0x200)

(* ---------------- CBC-MAC ---------------- *)

let test_mac_basic () =
  let m = Cbc_mac.mac key1 [ 1L; 2L; 3L ] in
  check_i64 "deterministic" m (Cbc_mac.mac key1 [ 1L; 2L; 3L ]);
  Alcotest.(check bool) "order matters" true
    (not (Int64.equal m (Cbc_mac.mac key1 [ 3L; 2L; 1L ])));
  Alcotest.(check bool) "key matters" true
    (not (Int64.equal m (Cbc_mac.mac key2 [ 1L; 2L; 3L ])));
  Alcotest.(check bool) "content matters" true
    (not (Int64.equal m (Cbc_mac.mac key1 [ 1L; 2L; 4L ])))

let test_mac_words_packing () =
  (* two 32-bit words pack into one block, first word in the low half *)
  let m1 = Cbc_mac.mac_words key1 [| 0xAAAA; 0xBBBB |] in
  let m2 = Cbc_mac.mac key1 [ Int64.logor 0xAAAAL (Int64.shift_left 0xBBBBL 32) ] in
  check_i64 "pair packing" m2 m1;
  (* odd word count zero-pads *)
  let m3 = Cbc_mac.mac_words key1 [| 0xAAAA |] in
  check_i64 "odd padding" (Cbc_mac.mac key1 [ 0xAAAAL ]) m3

let test_tag_split_join () =
  let rng = Prng.create ~seed:11L in
  for _ = 1 to 50 do
    let t = Prng.next64 rng in
    let m1, m2 = Cbc_mac.split_tag t in
    check_i64 "split/join" t (Cbc_mac.join_tag m1 m2)
  done

let test_verify_words () =
  let words = [| 10; 20; 30; 40; 50; 60 |] in
  let m1, m2 = Cbc_mac.split_tag (Cbc_mac.mac_words key1 words) in
  Alcotest.(check bool) "accepts valid" true (Cbc_mac.verify_words key1 words ~m1 ~m2);
  Alcotest.(check bool) "rejects tampered word" false
    (Cbc_mac.verify_words key1 [| 10; 20; 31; 40; 50; 60 |] ~m1 ~m2);
  Alcotest.(check bool) "rejects tampered tag" false
    (Cbc_mac.verify_words key1 words ~m1:(m1 lxor 1) ~m2);
  Alcotest.(check bool) "rejects wrong key" false (Cbc_mac.verify_words key2 words ~m1 ~m2)

let test_keys_module () =
  let k = Keys.generate ~seed:1L in
  let k' = Keys.generate ~seed:1L in
  Alcotest.(check string) "deterministic" (Keys.fingerprint k) (Keys.fingerprint k');
  let k2 = Keys.generate ~seed:2L in
  Alcotest.(check bool) "seeds differ" true (Keys.fingerprint k <> Keys.fingerprint k2);
  (* the three keys of a device are pairwise different *)
  let p = 0x1234_5678_9ABC_DEF0L in
  Alcotest.(check bool) "k1 <> k2" true
    (not (Int64.equal (Rectangle.encrypt k.Keys.k1 p) (Rectangle.encrypt k.Keys.k2 p)));
  Alcotest.(check bool) "k2 <> k3" true
    (not (Int64.equal (Rectangle.encrypt k.Keys.k2 p) (Rectangle.encrypt k.Keys.k3 p)))

(* ---------------- properties ---------------- *)

let prop_cipher_roundtrip =
  QCheck.Test.make ~count:500 ~name:"rectangle decrypt (encrypt p) = p"
    QCheck.(pair int64 int64)
    (fun (seed, p) ->
      let key = Rectangle.random_key (Prng.create ~seed) in
      Int64.equal (Rectangle.decrypt key (Rectangle.encrypt key p)) p)

let prop_cipher_injective =
  QCheck.Test.make ~count:500 ~name:"rectangle is injective on distinct blocks"
    QCheck.(pair int64 int64)
    (fun (a, b) ->
      QCheck.assume (not (Int64.equal a b));
      not (Int64.equal (Rectangle.encrypt key1 a) (Rectangle.encrypt key1 b)))

(* The round loop keeps its rows in locals and the S-box is one
   function per output row, so no round allocates: minor words are
   exact for one binary, and they pin what a wall-clock floor would
   measure the host for. One block costs its 4-row buffer and the boxed
   result (5 + 3 words); an S-box returning a tuple costs 5 words a
   round, 125 a block. Six words MAC in three passes of one lane, for
   the same 8 words; the list of boxed blocks it replaced cost 421. *)
let minor_words f =
  ignore (f ());
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

let test_cipher_allocation () =
  let block = Rectangle.encrypt key1 0x0123_4567_89AB_CDEFL in
  let one = minor_words (fun () -> Rectangle.encrypt key1 block) in
  let words = Array.init 6 (fun i -> i * 77) in
  let mac = minor_words (fun () -> Cbc_mac.mac_words key2 words) in
  Printf.printf "encrypt %.0f minor words, mac_words of 6 %.0f\n" one mac;
  Alcotest.(check bool) (Printf.sprintf "encrypt: %.0f minor words <= 8" one) true (one <= 8.0);
  Alcotest.(check bool) (Printf.sprintf "mac_words of 6: %.0f minor words <= 8" mac) true
    (mac <= 8.0)

let suite =
  [
    Alcotest.test_case "S-box tables" `Quick test_sbox_tables;
    Alcotest.test_case "SubColumn inverse" `Quick test_sub_column_roundtrip;
    Alcotest.test_case "ShiftRow inverse" `Quick test_shift_row_roundtrip;
    Alcotest.test_case "ShiftRow offsets" `Quick test_shift_row_offsets;
    Alcotest.test_case "block/rows round trip" `Quick test_block_rows_roundtrip;
    Alcotest.test_case "round constants" `Quick test_round_constants;
    Alcotest.test_case "subkeys" `Quick test_subkeys;
    Alcotest.test_case "encrypt/decrypt round trip" `Quick test_encrypt_decrypt_roundtrip;
    Alcotest.test_case "keys matter" `Quick test_keys_matter;
    Alcotest.test_case "avalanche" `Quick test_avalanche;
    Alcotest.test_case "key parsing" `Quick test_key_parsing;
    Alcotest.test_case "counter packing" `Quick test_counter_packing;
    Alcotest.test_case "counter validation" `Quick test_counter_validation;
    Alcotest.test_case "crypt_word involution" `Quick test_crypt_word_involution;
    Alcotest.test_case "keystream edge sensitivity" `Quick test_keystream_edge_sensitivity;
    Alcotest.test_case "CBC-MAC basics" `Quick test_mac_basic;
    Alcotest.test_case "CBC-MAC word packing" `Quick test_mac_words_packing;
    Alcotest.test_case "tag split/join" `Quick test_tag_split_join;
    Alcotest.test_case "verify_words" `Quick test_verify_words;
    Alcotest.test_case "device key set" `Quick test_keys_module;
    Alcotest.test_case "cipher and MAC minor words pinned" `Quick test_cipher_allocation;
    QCheck_alcotest.to_alcotest prop_cipher_roundtrip;
    QCheck_alcotest.to_alcotest prop_cipher_injective;
  ]
