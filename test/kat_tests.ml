(* RECTANGLE-80 known-answer and statistical tests.

   The committed vector file pins the cipher's exact input/output
   behaviour (S-box, ShiftRow, key schedule, block packing): any future
   "refactor" that changes a single output bit fails the replay. The
   avalanche test is the statistical complement — it can never be
   satisfied by an accidentally-linear or truncated cipher. *)

module Rectangle = Sofia.Crypto.Rectangle
module Prng = Sofia.Util.Prng

let vectors_path = Filename.concat "vectors" "rectangle_kat.txt"

let load_vectors () =
  let ic = open_in vectors_path in
  let vectors = ref [] in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" && line.[0] <> '#' then
         Scanf.sscanf line "%s %Lx %Lx" (fun key plain cipher ->
             vectors := (key, plain, cipher) :: !vectors)
     done
   with End_of_file -> close_in ic);
  List.rev !vectors

let test_kat_replay () =
  let vectors = load_vectors () in
  Alcotest.(check bool) "at least 64 vectors" true (List.length vectors >= 64);
  List.iteri
    (fun i (key_hex, plain, cipher) ->
      let key = Rectangle.key_of_hex key_hex in
      Alcotest.(check int64)
        (Printf.sprintf "vector %d: encrypt %s %Lx" i key_hex plain)
        cipher (Rectangle.encrypt key plain);
      Alcotest.(check int64)
        (Printf.sprintf "vector %d: decrypt %s %Lx" i key_hex cipher)
        plain (Rectangle.decrypt key cipher))
    vectors

let popcount64 v =
  let c = ref 0 in
  for bit = 0 to 63 do
    if Int64.(logand (shift_right_logical v bit) 1L) = 1L then incr c
  done;
  !c

(* A single flipped plaintext bit must flip about half of the 64
   ciphertext bits. The [28, 36] bracket is ~13 standard deviations
   wide around the ideal 32 (sigma = 4/sqrt(1000) ~ 0.13 for the mean
   of 1000 Binomial(64, 1/2) draws) — it will never fire by chance, but
   catches any structural weakening immediately. *)
let test_avalanche () =
  let rng = Prng.create ~seed:0xA5A1_7L in
  let trials = 1000 in
  let flipped = ref 0 in
  for _ = 1 to trials do
    let key = Rectangle.random_key rng in
    let plain = Prng.next64 rng in
    let bit = Prng.int_below rng 64 in
    let plain' = Int64.logxor plain (Int64.shift_left 1L bit) in
    let d = Int64.logxor (Rectangle.encrypt key plain) (Rectangle.encrypt key plain') in
    flipped := !flipped + popcount64 d
  done;
  let mean = float_of_int !flipped /. float_of_int trials in
  if mean < 28.0 || mean > 36.0 then
    Alcotest.failf "avalanche mean %.2f outside [28, 36] over %d trials" mean trials

(* The cold provisioning path — assembler output and errors, image
   digest, attest MAC, store envelope and file names, shard routes — is
   replayed by regenerating the pinned file and comparing it line by
   line, so the first differing line names the layer that moved. *)
let read_lines ic =
  let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> acc in
  List.rev (go [])

let test_cold_path_replay () =
  let pinned =
    In_channel.with_open_text (Filename.concat "vectors" "cold_path.txt") read_lines
  in
  let ic = Unix.open_process_args_in "../tools/gen_kat.exe" [| "gen_kat"; "--cold-path" |] in
  let fresh = read_lines ic in
  (match Unix.close_process_in ic with
   | Unix.WEXITED 0 -> ()
   | _ -> Alcotest.fail "gen_kat --cold-path failed");
  Alcotest.(check bool) "at least 150 vectors" true (List.length pinned >= 150);
  List.iteri
    (fun i (want, got) -> Alcotest.(check string) (Printf.sprintf "line %d" (i + 1)) want got)
    (List.combine pinned fresh)

let suite =
  [
    Alcotest.test_case "kat-replay" `Quick test_kat_replay;
    Alcotest.test_case "avalanche" `Quick test_avalanche;
    Alcotest.test_case "cold-path replay" `Quick test_cold_path_replay;
  ]
