(* Tests for the independent image verifier and the on-disk binary
   format. *)

module Verify = Sofia.Transform.Verify
module Binary_format = Sofia.Transform.Binary_format
module Image = Sofia.Transform.Image
module Transform = Sofia.Transform.Transform
module Assembler = Sofia.Asm.Assembler
module Keys = Sofia.Crypto.Keys
module Machine = Sofia.Cpu.Machine

let keys = Keys.generate ~seed:0xF00DL

let sample_source =
  {|
start:
  li   a0, 4
  call f
loop:
  addi a0, a0, -1
  st   a0, 0(sp)
  bnez a0, loop
  halt
f:
  mul  a0, a0, a0
  ret
|}

let sample () =
  let program = Assembler.assemble sample_source in
  (program, Transform.protect_exn ~keys ~nonce:0x11 program)

let no_issues issues =
  if issues <> [] then
    Alcotest.fail
      (String.concat "; " (List.map (fun i -> Format.asprintf "%a" Verify.pp_issue i) issues))

let test_clean_image_verifies () =
  let program, image = sample () in
  no_issues (Verify.check ~keys image);
  no_issues (Verify.check_against_source ~keys program image)

let test_all_workloads_verify () =
  List.iter
    (fun (w : Sofia.Workloads.Workload.t) ->
      let program = Sofia.Workloads.Workload.assemble w in
      let image = Transform.protect_exn ~keys ~nonce:0x22 program in
      match Verify.check_against_source ~keys program image with
      | [] -> ()
      | issues ->
        Alcotest.fail
          (Printf.sprintf "%s: %s" w.Sofia.Workloads.Workload.name
             (String.concat "; " (List.map (fun i -> Format.asprintf "%a" Verify.pp_issue i) issues))))
    (Sofia.Workloads.Registry.all ())

let test_wrong_keys_fail_verification () =
  let _, image = sample () in
  let wrong = Keys.generate ~seed:0xBAD2L in
  Alcotest.(check bool) "mac issues found" true
    (List.exists
       (function Verify.Mac_words_wrong _ | Verify.Ciphertext_mismatch _ -> true | _ -> false)
       (Verify.check ~keys:wrong image))

(* One flipped ciphertext bit is reported at its address: in the
   sample's first block, and mid-image in every benchmark workload. *)
let test_tampered_ciphertext_detected () =
  let tamper_detected name (image : Image.t) ~addr ~mask =
    let old = Option.get (Image.fetch image addr) in
    let tampered = Image.with_tampered_word image ~address:addr ~value:(old lxor mask) in
    Alcotest.(check bool) (name ^ ": ciphertext mismatch reported") true
      (List.exists
         (function Verify.Ciphertext_mismatch { address } -> address = addr | _ -> false)
         (Verify.check ~keys tampered))
  in
  let _, image = sample () in
  tamper_detected "sample" image ~addr:(image.Image.text_base + 16) ~mask:1;
  List.iter
    (fun (w : Sofia.Workloads.Workload.t) ->
      let image =
        Transform.protect_exn ~keys ~nonce:0x66 (Sofia.Workloads.Workload.assemble w)
      in
      let mid = image.Image.blocks.(Array.length image.Image.blocks / 2) in
      tamper_detected w.Sofia.Workloads.Workload.name image ~addr:(mid.Image.base + 12)
        ~mask:0x10000)
    (Sofia.Workloads.Registry.benchmark_suite ())

let test_altered_instruction_detected () =
  let program, image = sample () in
  (* flip a plaintext instruction in the block view: coverage check
     must notice the divergence from the source *)
  let blocks = Array.copy image.Image.blocks in
  let b = blocks.(0) in
  let insns = Array.copy b.Image.insns in
  let victim =
    (* find a slot carrying an original instruction *)
    let found = ref (-1) in
    Array.iteri (fun i o -> if !found < 0 && o <> None then found := i) b.Image.orig_indices;
    !found
  in
  insns.(victim) <- Sofia.Isa.Insn.Alu_i (Add, Sofia.Isa.Reg.a 7, Sofia.Isa.Reg.a 7, 99);
  blocks.(0) <- { b with Image.insns };
  let forged = { image with Image.blocks } in
  Alcotest.(check bool) "instruction change reported" true
    (List.exists
       (function Verify.Instruction_changed _ -> true | _ -> false)
       (Verify.check_against_source ~keys program forged))

(* The verifier reads what the image ships and reports every fault
   as an issue: each case below either got no issue or raised before
   the verifier compared blocks with the flat text and checked counts
   and predecessors before deriving a keystream. *)

let issues_of name image =
  match Verify.check ~keys image with
  | issues -> issues
  | exception e -> Alcotest.failf "%s: raised %s" name (Printexc.to_string e)

let mismatch_at issues address =
  List.mem (Verify.Ciphertext_mismatch { address }) issues

let with_block (image : Image.t) i f =
  let blocks = Array.copy image.Image.blocks in
  blocks.(i) <- f blocks.(i);
  { image with Image.blocks }

(* the flat text is what [Binary_format] writes and the core fetches;
   the blocks keep their own, untouched copies *)
let test_flat_text_is_checked () =
  let _, image = sample () in
  let cipher = Array.map (fun w -> w lxor 0xFFFF_FFFF) image.Image.cipher in
  let flipped = { image with Image.cipher } in
  let issues = issues_of "flipped text" flipped in
  Array.iteri
    (fun i _ ->
      let address = image.Image.text_base + (4 * i) in
      if not (mismatch_at issues address) then Alcotest.failf "word 0x%x not reported" address)
    cipher;
  let r = Sofia.Cpu.Sofia_runner.run ~keys flipped in
  Alcotest.(check bool) "and the core resets on it" true
    (match r.Machine.outcome with Machine.Cpu_reset _ -> true | _ -> false);
  (* a text one block short: the last block's words are not shipped *)
  let n = Array.length image.Image.cipher in
  let short = { image with Image.cipher = Array.sub image.Image.cipher 0 (n - 8) } in
  let issues = issues_of "short text" short in
  let last = image.Image.blocks.(Array.length image.Image.blocks - 1) in
  for w = 0 to 7 do
    Alcotest.(check bool) (Printf.sprintf "unshipped word %d" w) true
      (mismatch_at issues (last.Image.base + (4 * w)))
  done

let cut_first_block image =
  with_block image 0 (fun b -> { b with Image.cipher_words = Array.sub b.Image.cipher_words 0 5 })

let check_cut name (image : Image.t) =
  no_issues (Verify.check ~keys image);
  let issues = issues_of name (cut_first_block image) in
  let base = image.Image.blocks.(0).Image.base in
  List.iter
    (fun w ->
      Alcotest.(check bool) (Printf.sprintf "%s: word %d reported" name w) true
        (mismatch_at issues (base + (4 * w))))
    [ 5; 6; 7 ];
  Alcotest.(check int) (name ^ ": only those") 3 (List.length issues)

let test_short_sofia_block () = check_cut "sofia" (snd (sample ()))

let test_short_scfp_block () =
  check_cut "scfp"
    (Transform.protect_exn ~backend:Sofia.Transform.Backend_id.Scfp ~keys ~nonce:0x11
       (Assembler.assemble sample_source))

let test_too_few_ports () =
  let _, image = sample () in
  let base = image.Image.blocks.(0).Image.base in
  (* an execution block with no port: word 0 has no declared edge *)
  let issues = issues_of "no ports" (with_block image 0 (fun b -> { b with Image.entry_prev_pcs = [] })) in
  Alcotest.(check bool) "entry count" true
    (List.mem (Verify.Wrong_entry_count { base; got = 0 }) issues);
  Alcotest.(check bool) "word 0 not shown to decrypt" true (mismatch_at issues base);
  (* a multiplexor block with one port: its second entry word *)
  match
    List.find_opt
      (fun (_, (b : Image.block)) -> b.Image.kind = Sofia.Transform.Block.Mux)
      (List.mapi (fun i b -> (i, b)) (Array.to_list image.Image.blocks))
  with
  | None -> Alcotest.fail "sample has no multiplexor block"
  | Some (i, m) ->
    let issues =
      issues_of "one mux port"
        (with_block image i (fun b ->
             { b with Image.entry_prev_pcs = [ List.hd b.Image.entry_prev_pcs ] }))
    in
    Alcotest.(check bool) "mux entry count" true
      (List.mem (Verify.Wrong_entry_count { base = m.Image.base; got = 1 }) issues);
    Alcotest.(check bool) "mux word 1" true (mismatch_at issues (m.Image.base + 4));
    Alcotest.(check bool) "mux word 0 still decrypts" false (mismatch_at issues m.Image.base)

let test_unholdable_predecessor () =
  let _, image = sample () in
  let base = image.Image.blocks.(0).Image.base in
  List.iter
    (fun prev_pc ->
      let issues =
        issues_of (Printf.sprintf "predecessor 0x%x" prev_pc)
          (with_block image 0 (fun b -> { b with Image.entry_prev_pcs = [ prev_pc ] }))
      in
      Alcotest.(check bool) "unknown predecessor" true
        (List.mem (Verify.Unknown_predecessor { base; prev_pc }) issues);
      Alcotest.(check bool) "word 0 reported" true (mismatch_at issues base);
      Alcotest.(check bool) "word 1 still decrypts" false (mismatch_at issues (base + 4)))
    [ 0x2; 0x8000_0000 ]

(* ---------------- binary format ---------------- *)

let test_serialize_roundtrip () =
  let _, image = sample () in
  let bytes = Binary_format.serialize image in
  match Binary_format.deserialize bytes with
  | Error e -> Alcotest.fail (Format.asprintf "%a" Binary_format.pp_error e)
  | Ok l ->
    Alcotest.(check int) "nonce" image.Image.nonce l.Binary_format.Loaded.nonce;
    Alcotest.(check int) "entry" image.Image.entry l.Binary_format.Loaded.entry;
    Alcotest.(check int) "text base" image.Image.text_base l.Binary_format.Loaded.text_base;
    Alcotest.(check int) "data base" image.Image.data_base l.Binary_format.Loaded.data_base;
    Alcotest.(check bool) "cipher equal" true (l.Binary_format.Loaded.cipher = image.Image.cipher);
    Alcotest.(check bool) "data equal" true
      (Bytes.equal l.Binary_format.Loaded.data image.Image.data)

let test_loaded_image_runs () =
  let _, image = sample () in
  let bytes = Binary_format.serialize image in
  let loaded =
    match Binary_format.deserialize bytes with Ok l -> l | Error _ -> Alcotest.fail "load"
  in
  let r1 = Sofia.Cpu.Sofia_runner.run ~keys image in
  let r2 = Sofia.Cpu.Sofia_runner.run ~keys (Binary_format.image_of_loaded loaded) in
  Alcotest.(check bool) "same outcome" true (r1.Machine.outcome = r2.Machine.outcome);
  Alcotest.(check (list int)) "same outputs" r1.Machine.outputs r2.Machine.outputs

let test_format_rejects_garbage () =
  let bad k = match k with Ok _ -> Alcotest.fail "accepted garbage" | Error _ -> () in
  bad (Binary_format.deserialize (Bytes.of_string "short"));
  bad (Binary_format.deserialize (Bytes.make 64 'x'));
  let _, image = sample () in
  let bytes = Binary_format.serialize image in
  (* corrupt one payload byte: checksum must catch it *)
  Bytes.set_uint8 bytes 0x30 (Bytes.get_uint8 bytes 0x30 lxor 0xFF);
  (match Binary_format.deserialize bytes with
   | Error Binary_format.Checksum_mismatch -> ()
   | Error e -> Alcotest.fail (Format.asprintf "wrong error %a" Binary_format.pp_error e)
   | Ok _ -> Alcotest.fail "accepted corrupted payload");
  (* truncation *)
  let bytes = Binary_format.serialize image in
  match Binary_format.deserialize (Bytes.sub bytes 0 (Bytes.length bytes - 8)) with
  | Error Binary_format.Truncated -> ()
  | Error e -> Alcotest.fail (Format.asprintf "wrong error %a" Binary_format.pp_error e)
  | Ok _ -> Alcotest.fail "accepted truncated image"

let test_file_roundtrip () =
  let _, image = sample () in
  let path = Filename.temp_file "sofia" ".sfi" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Binary_format.save image ~path;
      match Binary_format.load ~path with
      | Ok l -> Alcotest.(check bool) "cipher" true (l.Binary_format.Loaded.cipher = image.Image.cipher)
      | Error e -> Alcotest.fail (Format.asprintf "%a" Binary_format.pp_error e))

let suite =
  [
    Alcotest.test_case "clean image verifies" `Quick test_clean_image_verifies;
    Alcotest.test_case "all workloads verify" `Quick test_all_workloads_verify;
    Alcotest.test_case "wrong keys fail verification" `Quick test_wrong_keys_fail_verification;
    Alcotest.test_case "tampered ciphertext detected" `Quick test_tampered_ciphertext_detected;
    Alcotest.test_case "altered instruction detected" `Quick test_altered_instruction_detected;
    Alcotest.test_case "the shipped text is checked" `Quick test_flat_text_is_checked;
    Alcotest.test_case "a SOFIA block cut short is reported" `Quick test_short_sofia_block;
    Alcotest.test_case "an SCFP block cut short is reported" `Quick test_short_scfp_block;
    Alcotest.test_case "too few entry ports are reported" `Quick test_too_few_ports;
    Alcotest.test_case "an unholdable predecessor is reported" `Quick
      test_unholdable_predecessor;
    Alcotest.test_case "serialize round trip" `Quick test_serialize_roundtrip;
    Alcotest.test_case "loaded image runs identically" `Quick test_loaded_image_runs;
    Alcotest.test_case "format rejects garbage" `Quick test_format_rejects_garbage;
    Alcotest.test_case "file round trip" `Quick test_file_roundtrip;
  ]
