(* Unit tests for Sofia_util: word helpers, PRNG, statistics, hashes,
   the LRU map and the NDJSON line splitter. *)

module Word = Sofia.Util.Word
module Prng = Sofia.Util.Prng
module Stats = Sofia.Util.Stats
module Hash = Sofia.Util.Hash
module Lru = Sofia.Util.Lru
module Lines = Sofia.Util.Lines

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let test_masking () =
  check_int "u32 of -1" 0xFFFF_FFFF (Word.u32 (-1));
  check_int "u32 of 2^32" 0 (Word.u32 0x1_0000_0000);
  check_int "u16" 0xFFFF (Word.u16 (-1));
  check_int "u8" 0xAB (Word.u8 0x1AB);
  check_int "add32 wraps" 0 (Word.add32 0xFFFF_FFFF 1);
  check_int "sub32 wraps" 0xFFFF_FFFF (Word.sub32 0 1);
  check_int "mul32 wraps" (Word.u32 (0xFFFF_FFFF * 2)) (Word.mul32 0xFFFF_FFFF 2)

let test_signed32 () =
  check_int "positive" 5 (Word.signed32 5);
  check_int "minus one" (-1) (Word.signed32 0xFFFF_FFFF);
  check_int "int_min" (-0x8000_0000) (Word.signed32 0x8000_0000);
  check_int "int_max" 0x7FFF_FFFF (Word.signed32 0x7FFF_FFFF)

let test_sign_extend () =
  check_int "16-bit neg" (-1) (Word.sign_extend ~bits:16 0xFFFF);
  check_int "16-bit pos" 0x7FFF (Word.sign_extend ~bits:16 0x7FFF);
  check_int "12-bit neg" (-2048) (Word.sign_extend ~bits:12 0x800);
  check_int "ignores high bits" (-1) (Word.sign_extend ~bits:8 0xABFF)

let test_bit_fields () =
  check_int "bits mid" 0xB (Word.bits ~lo:4 ~width:4 0xAB3);
  check_int "bits top" 0xA (Word.bits ~lo:8 ~width:4 0xAB3);
  check_int "set_bits" 0xA53 (Word.set_bits ~lo:4 ~width:4 ~value:5 0xAB3);
  check_int "set_bits truncates value" 0xA53 (Word.set_bits ~lo:4 ~width:4 ~value:0xF5 0xAB3)

let test_rotations () =
  check_int "rotl16 by 1" 0x0001 (Word.rotl16 0x8000 1);
  check_int "rotl16 by 0" 0x1234 (Word.rotl16 0x1234 0);
  check_int "rotl16 by 16" 0x1234 (Word.rotl16 0x1234 16);
  check_int "rotl16 by 12" ((0x1234 lsl 12) land 0xFFFF lor (0x1234 lsr 4)) (Word.rotl16 0x1234 12);
  check_int "rotl32 by 1" 1 (Word.rotl32 0x8000_0000 1);
  check_int "rotl32 by 8" 0x3456_7812 (Word.rotl32 0x1234_5678 8)

let test_popcount () =
  check_int "zero" 0 (Word.popcount 0);
  check_int "all 32" 32 (Word.popcount 0xFFFF_FFFF);
  check_int "alternating" 16 (Word.popcount 0x5555_5555);
  check_int "popcount64 all" 64 (Word.popcount64 (-1L));
  check_int "popcount64 one" 1 (Word.popcount64 0x8000_0000_0000_0000L)

let test_hex () =
  Alcotest.(check string) "hex32" "0xdeadbeef" (Word.hex32 0xDEAD_BEEF);
  Alcotest.(check string) "hex64" "0x00000000deadbeef" (Word.hex64 0xDEAD_BEEFL)

let test_bytes_roundtrip () =
  let b = Word.bytes_of_word32_le 0x1234_5678 in
  check_int "byte 0 is LSB" 0x78 (Bytes.get_uint8 b 0);
  check_int "byte 3 is MSB" 0x12 (Bytes.get_uint8 b 3);
  check_int "roundtrip" 0x1234_5678 (Word.word32_of_bytes_le b 0)

let test_prng_determinism () =
  let a = Prng.create ~seed:42L and b = Prng.create ~seed:42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next64 a) (Prng.next64 b)
  done;
  let c = Prng.create ~seed:43L in
  Alcotest.(check bool) "different seed differs" true
    (not (Int64.equal (Prng.next64 a) (Prng.next64 c)))

let test_prng_copy () =
  let a = Prng.create ~seed:7L in
  ignore (Prng.next64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.next64 a) (Prng.next64 b)

let test_prng_ranges () =
  let rng = Prng.create ~seed:1L in
  for _ = 1 to 1000 do
    let v = Prng.int_below rng 10 in
    Alcotest.(check bool) "int_below in range" true (v >= 0 && v < 10);
    let w = Prng.int_in rng ~lo:(-5) ~hi:5 in
    Alcotest.(check bool) "int_in in range" true (w >= -5 && w <= 5);
    let f = Prng.float rng in
    Alcotest.(check bool) "float in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_prng_shuffle_is_permutation () =
  let rng = Prng.create ~seed:3L in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_prng_split_independent () =
  let a = Prng.create ~seed:9L in
  let child = Prng.split a in
  Alcotest.(check bool) "child differs from parent" true
    (not (Int64.equal (Prng.next64 child) (Prng.next64 a)))

let test_stats_basic () =
  check_float "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check_float "mean empty" 0.0 (Stats.mean []);
  check_float "median odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  check_float "median even" 2.5 (Stats.median [ 1.0; 2.0; 3.0; 4.0 ]);
  check_float "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ]);
  check_float "stddev constant" 0.0 (Stats.stddev [ 5.0; 5.0; 5.0 ]);
  check_float "overhead" 50.0 (Stats.percent_overhead ~baseline:100.0 ~measured:150.0)

let test_stats_fit () =
  let a, b = Stats.linear_fit [ (0.0, 1.0); (1.0, 3.0); (2.0, 5.0) ] in
  check_float "slope" 2.0 a;
  check_float "intercept" 1.0 b

(* Stats.percentile keeps the fleet router's nearest-rank rounding: the
   formula it replaced, on random ascending samples *)
let prop_percentile_nearest_rank =
  QCheck.Test.make ~count:1000 ~name:"percentile = the router's nearest-rank formula"
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 64) (float_range 0.0 1000.0))
        (oneof [ float_range 0.001 100.0; oneofl [ 50.0; 99.0; 100.0 ] ]))
    (fun (xs, p) ->
      let sorted = Array.of_list (List.sort compare xs) in
      let n = Array.length sorted in
      Stats.percentile sorted p
      = sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n /. 100.0)) - 1)))

let check_hex64 msg want got =
  Alcotest.(check string) msg (Printf.sprintf "%016Lx" want) (Printf.sprintf "%016Lx" got)

let test_hash_kats () =
  check_int "crc32 check value" 0xCBF43926 (Hash.crc32 (Bytes.of_string "123456789"));
  check_int "crc32 empty" 0 (Hash.crc32 Bytes.empty);
  check_hex64 "fnv1a64 \"\"" 0xcbf29ce484222325L (Hash.fnv1a64 "");
  check_hex64 "fnv1a64 a" 0xaf63dc4c8601ec8cL (Hash.fnv1a64 "a");
  check_hex64 "fnv1a64 foobar" 0x85944171f73967e8L (Hash.fnv1a64 "foobar")

let test_hash_ranges () =
  let b = Bytes.init 300 (fun i -> Char.chr ((i * 37) land 0xFF)) in
  List.iter
    (fun (off, len) ->
      let sub = Bytes.sub b off len in
      check_int (Printf.sprintf "crc32 %d+%d" off len) (Hash.crc32 sub) (Hash.crc32 b ~off ~len);
      check_hex64
        (Printf.sprintf "fnv1a64 %d+%d" off len)
        (Hash.fnv1a64 (Bytes.to_string sub))
        (Hash.fnv1a64 (Bytes.to_string b) ~off ~len))
    [ (0, 300); (0, 0); (7, 0); (1, 299); (36, 100); (299, 1) ];
  Alcotest.check_raises "crc32 past the end" (Invalid_argument "Hash.crc32") (fun () ->
      ignore (Hash.crc32 b ~off:200 ~len:101));
  Alcotest.check_raises "fnv1a64 negative offset" (Invalid_argument "Hash.fnv1a64") (fun () ->
      ignore (Hash.fnv1a64 "abc" ~off:(-1)))

(* The disk store names a file by two FNV-1a-64 hashes of one identity
   string, the second from its own basis. *)
let test_hash_basis () =
  let module Fs = Sofia.Store_fs.Store_fs in
  let module Envelope = Sofia.Store_fs.Envelope in
  let dir = Filename.temp_dir "sofia-hash" "" in
  let keys = Sofia.Crypto.Keys.generate ~seed:0x4A5B1L in
  let backend = Sofia.Transform.Backend_id.Sofia and source = "start: halt\n" and nonce = 9 in
  let fs = Fs.open_store ~dir () in
  Fs.store_artifact fs ~backend ~keys ~nonce ~source ~sfi:(Bytes.make 8 'x') ~expansion:1.0
    ~issues:None ~mac_tag:0L;
  let written = Sys.readdir dir in
  Array.iter (fun n -> Sys.remove (Filename.concat dir n)) written;
  Sys.rmdir dir;
  let tag = Envelope.kind_tag ~backend Envelope.Artifact in
  let id =
    String.concat "\x00"
      [ source; Sofia.Crypto.Keys.fingerprint keys; string_of_int nonce; string_of_int tag;
        string_of_int Fs.artifact_codec_version ]
  in
  Alcotest.(check (array string))
    "file name"
    [| Printf.sprintf "%016Lx%016Lx.k%d.sfc" (Hash.fnv1a64 id)
         (Hash.fnv1a64 ~basis:0x84222325CBF29CE4L id) tag |]
    written

(* The LRU against a list model kept most recently used first: every
   find and add returns what the model does, the whole recency order
   (and so each victim) matches after every step, the length never
   passes the cap, and the hit, miss and eviction counters agree. *)
let prop_lru_model =
  QCheck.Test.make ~count:1000 ~name:"lru = list model (victim, length, counts)"
    QCheck.(
      pair (int_range 1 5)
        (list_of_size Gen.(0 -- 80) (triple bool (int_range 0 7) small_nat)))
    (fun (cap, ops) ->
      let t = Lru.create cap in
      let model = ref [] and hits = ref 0 and misses = ref 0 and evictions = ref 0 in
      let promote k x = model := (k, x) :: List.remove_assoc k !model in
      List.for_all
        (fun (is_find, k, v) ->
          let agrees =
            if is_find then begin
              let want = List.assoc_opt k !model in
              (match want with
               | Some x ->
                 incr hits;
                 promote k x
               | None -> incr misses);
              Lru.find t k = want
            end
            else begin
              let want =
                match List.assoc_opt k !model with
                | Some x ->
                  promote k x;
                  x
                | None ->
                  if List.length !model = cap then begin
                    model := List.filteri (fun i _ -> i < cap - 1) !model;
                    incr evictions
                  end;
                  model := (k, v) :: !model;
                  v
              in
              Lru.add t k v = want
            end
          in
          agrees
          && Lru.to_list t = !model
          && Lru.length t <= cap
          && Lru.hits t = !hits
          && Lru.misses t = !misses
          && Lru.evictions t = !evictions)
        ops)

let test_lru_rejects_zero_cap () =
  Alcotest.check_raises "cap 0" (Invalid_argument "Lru.create: capacity must be at least 1")
    (fun () -> ignore (Lru.create 0))

(* Any chunking of a byte stream yields the lines String.split_on_char
   gives, the unterminated tail included. The read buffer is reused and
   never cleared, so bytes past each chunk's length are stale and must
   be ignored. The bytes next to '\n' in value (0x0b, 0x8a, 0x00) probe
   the splitter's word-at-a-time scan. *)
let prop_lines_any_chunking =
  QCheck.Test.make ~count:1000 ~name:"lines: any chunking = split_on_char"
    QCheck.(
      pair
        (string_gen_of_size Gen.(0 -- 300)
           (Gen.oneofl [ 'a'; '"'; ' '; '{'; '\n'; '\x0b'; '\x8a'; '\x00' ]))
        (list_of_size Gen.(1 -- 12) (int_range 1 32)))
    (fun (s, sizes) ->
      let t = Lines.create () in
      let chunk = Bytes.make 32 '\n' in
      let got = ref [] in
      let sizes = Array.of_list sizes in
      let rec go off i =
        if off < String.length s then begin
          let n = min sizes.(i mod Array.length sizes) (String.length s - off) in
          Bytes.blit_string s off chunk 0 n;
          got := List.rev_append (Lines.feed t chunk n) !got;
          go (off + n) (i + 1)
        end
      in
      go 0 0;
      let pending = Lines.pending t in
      let rest = Option.value ~default:(Lines.Line "") (Lines.take_rest t) in
      rest = Lines.Line (String.sub s (String.length s - pending) pending)
      && Lines.pending t = 0
      && List.rev (rest :: !got)
         = List.map (fun l -> Lines.Line l) (String.split_on_char '\n' s))

(* A line past the cap is never held: it comes back as one [Too_long]
   whether it crosses the cap inside one chunk or across many, the
   lines around it are untouched, and a line of exactly the cap is
   kept. *)
let test_lines_cap () =
  let cap = Lines.max_line in
  let feed_all t chunks = List.concat_map (fun c -> Lines.feed t c (Bytes.length c)) chunks in
  let show = function
    | Lines.Line l -> Printf.sprintf "Line %d bytes" (String.length l)
    | Lines.Too_long -> "Too_long"
  in
  let check name want got =
    Alcotest.(check (list string)) name (List.map show want) (List.map show got)
  in
  (* inside one chunk: the over-long line starts and ends in it *)
  let t = Lines.create () in
  check "one chunk" [ Lines.Line "a"; Lines.Too_long; Lines.Line "b" ]
    (feed_all t [ Bytes.of_string ("a\n" ^ String.make (cap + 1) 'x' ^ "\nb\n") ]);
  Alcotest.(check int) "nothing pending" 0 (Lines.pending t);
  (* across chunks: 64 KiB pieces, the buffered tail never passes the cap *)
  let t = Lines.create () in
  let piece = Bytes.make 65536 'y' in
  let most = ref 0 in
  let head = feed_all t [ Bytes.of_string "{\"id\":" ] in
  let body =
    List.concat_map
      (fun _ ->
        let l = Lines.feed t piece (Bytes.length piece) in
        most := max !most (Lines.pending t);
        l)
      (List.init 40 Fun.id)
  in
  let tail = feed_all t [ Bytes.of_string "tail\nnext\n" ] in
  check "across chunks" [ Lines.Too_long; Lines.Line "next" ] (head @ body @ tail);
  Alcotest.(check bool) "tail bounded by the cap" true (!most <= cap);
  (* the cap itself is kept, split across two chunks *)
  let t = Lines.create () in
  let half = Bytes.make (cap / 2) 'z' in
  Alcotest.(check bool) "exactly the cap is kept" true
    (feed_all t [ half; half; Bytes.of_string "\n" ] = [ Lines.Line (String.make cap 'z') ]);
  (* an over-long last line without its newline *)
  let t = Lines.create () in
  check "over-long tail" [] (feed_all t [ Bytes.make (cap + 1) 'w' ]);
  Alcotest.(check (option string)) "take_rest" (Some "Too_long")
    (Option.map show (Lines.take_rest t));
  Alcotest.(check (option string)) "then nothing" None (Option.map show (Lines.take_rest t))

let suite =
  [
    Alcotest.test_case "word masking and wrap-around" `Quick test_masking;
    Alcotest.test_case "signed32 reinterpretation" `Quick test_signed32;
    Alcotest.test_case "sign extension" `Quick test_sign_extend;
    Alcotest.test_case "bit field extract/insert" `Quick test_bit_fields;
    Alcotest.test_case "rotations" `Quick test_rotations;
    Alcotest.test_case "popcount" `Quick test_popcount;
    Alcotest.test_case "hex formatting" `Quick test_hex;
    Alcotest.test_case "little-endian byte round trip" `Quick test_bytes_roundtrip;
    Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
    Alcotest.test_case "prng copy" `Quick test_prng_copy;
    Alcotest.test_case "prng ranges" `Quick test_prng_ranges;
    Alcotest.test_case "prng shuffle is a permutation" `Quick test_prng_shuffle_is_permutation;
    Alcotest.test_case "prng split independence" `Quick test_prng_split_independent;
    Alcotest.test_case "statistics basics" `Quick test_stats_basic;
    Alcotest.test_case "least-squares fit" `Quick test_stats_fit;
    QCheck_alcotest.to_alcotest prop_percentile_nearest_rank;
    Alcotest.test_case "hash known answers" `Quick test_hash_kats;
    Alcotest.test_case "hash sub-ranges" `Quick test_hash_ranges;
    Alcotest.test_case "hash basis names store files" `Quick test_hash_basis;
    QCheck_alcotest.to_alcotest prop_lru_model;
    Alcotest.test_case "lru rejects a zero cap" `Quick test_lru_rejects_zero_cap;
    QCheck_alcotest.to_alcotest prop_lines_any_chunking;
    Alcotest.test_case "lines: an over-long line is dropped, not held" `Quick test_lines_cap;
  ]
