(* PR 8's SCFP sponge-CFI backend battery.

   The SCFP backend claims exact semantic preservation (a protected
   image computes what the plaintext program computes), engine
   equivalence (fast = ref, bit-for-bit, same as the SOFIA battery in
   engine_tests.ml), byte-reproducible serialization, an independent
   verifier that re-derives the whole patch table, and the tentpole
   security property: every single-bit flip in any fetched block —
   tag word, ciphertext word or patch word — resets the core before
   anything from the tampered block retires, at the same edge index
   under both engines. Plus the SCFP-only edge rules: misaligned
   entries, unpatched edges and cross-bound return redirects all
   diverge the sponge state. *)

module Machine = Sofia.Cpu.Machine
module Memory = Sofia.Cpu.Memory
module Run_config = Sofia.Cpu.Run_config
module Runner = Sofia.Cpu.Sofia_runner
module Image = Sofia.Transform.Image
module Block = Sofia.Transform.Block
module Backend_id = Sofia.Transform.Backend_id
module Transform = Sofia.Transform.Transform
module Binary_format = Sofia.Transform.Binary_format
module Verify = Sofia.Transform.Verify
module Scfp = Sofia.Transform.Scfp
module Insn = Sofia.Isa.Insn
module Workload = Sofia.Workloads.Workload
module Keys = Sofia.Crypto.Keys

let keys = Keys.generate ~seed:0x5CF9_2026L
let nonce = 0x2B

let fast = { Run_config.default with Run_config.engine = Run_config.Fast }
let refc = { Run_config.default with Run_config.engine = Run_config.Ref }

let protect ~backend w = Transform.protect_exn ~backend ~keys ~nonce (Workload.assemble w)

let run ?config ?fault image =
  let stream = ref [] in
  let result =
    Runner.run ?config ?fault ~on_retire:(fun ~pc ~insn:_ -> stream := pc :: !stream) ~keys image
  in
  (result, List.rev !stream)

let outcome_t = Alcotest.testable Machine.pp_outcome ( = )

(* ---- every registry workload: correct outputs, fast = ref ---- *)

let test_workload (w : Workload.t) () =
  let image = protect ~backend:Backend_id.Scfp w in
  Alcotest.(check bool) "image tagged scfp" true (image.Image.backend = Backend_id.Scfp);
  Alcotest.(check bool) "patch table present" true
    (Array.length image.Image.patches
    = Array.length image.Image.blocks * Scfp.patch_words_per_block);
  let rf, sf = run ~config:fast image and rr, sr = run ~config:refc image in
  Alcotest.check outcome_t "fast = ref outcome" rr.Machine.outcome rf.Machine.outcome;
  Alcotest.(check bool) "fast = ref run_result bit-identical" true (rf = rr);
  Alcotest.(check bool) "fast = ref retired stream" true (sf = sr);
  Alcotest.(check (list int)) "expected outputs" w.Workload.expected_outputs rf.Machine.outputs

(* ---- serialization: v2 container, byte-reproducible ---- *)

let test_serialization () =
  let w = List.hd (Sofia.Workloads.Registry.benchmark_suite ()) in
  let image = protect ~backend:Backend_id.Scfp w in
  let b1 = Binary_format.serialize image in
  let b2 = Binary_format.serialize image in
  Alcotest.(check bool) "serialize is deterministic" true (Bytes.equal b1 b2);
  (* v2 header: version, backend tag, patch word count *)
  let word off = Sofia.Util.Word.word32_of_bytes_le b1 off in
  Alcotest.(check int) "v2 version word" 2 (word 0x04);
  Alcotest.(check int) "backend tag" (Backend_id.tag Backend_id.Scfp) (word 0x24);
  Alcotest.(check int) "patch word count" (Array.length image.Image.patches) (word 0x28);
  (* SOFIA images still serialize as frozen v1 *)
  let sofia_image = protect ~backend:Backend_id.Sofia w in
  Alcotest.(check int) "sofia stays v1" 1
    (Sofia.Util.Word.word32_of_bytes_le (Binary_format.serialize sofia_image) 0x04);
  (* round-trip: the loaded image runs identically on both engines *)
  match Binary_format.deserialize b1 with
  | Error e -> Alcotest.failf "deserialize failed: %a" Binary_format.pp_error e
  | Ok loaded ->
    Alcotest.(check bool) "loaded backend is scfp" true
      (loaded.Binary_format.Loaded.backend = Backend_id.Scfp);
    let reloaded = Binary_format.image_of_loaded loaded in
    let orig, _ = run ~config:fast image in
    let rf, _ = run ~config:fast reloaded and rr, _ = run ~config:refc reloaded in
    Alcotest.(check bool) "reloaded fast = reloaded ref" true (rf = rr);
    Alcotest.check outcome_t "reloaded = original outcome" orig.Machine.outcome rf.Machine.outcome;
    Alcotest.(check (list int)) "reloaded = original outputs" orig.Machine.outputs
      rf.Machine.outputs

(* ---- independent verifier: clean images pass, tampers are found ---- *)

let test_verify () =
  let w = List.hd (Sofia.Workloads.Registry.benchmark_suite ()) in
  let program = Workload.assemble w in
  let image = Transform.protect_exn ~backend:Backend_id.Scfp ~keys ~nonce program in
  Alcotest.(check int) "clean scfp image verifies" 0
    (List.length (Verify.check_against_source ~keys program image));
  (* a flipped ciphertext word decrypts to garbage *)
  let b = image.Image.blocks.(Array.length image.Image.blocks / 2) in
  let address = b.Image.base + Block.first_insn_offset Block.Exec in
  let value = Option.get (Image.fetch image address) lxor 0x40 in
  let tampered = Image.with_tampered_word image ~address ~value in
  Alcotest.(check bool) "tampered ciphertext detected" true (Verify.check ~keys tampered <> []);
  (* a flipped patch word fails the patch re-derivation *)
  let patches = Array.copy image.Image.patches in
  patches.(Array.length patches / 2) <- patches.(Array.length patches / 2) lxor 1;
  let patched = { image with Image.patches } in
  let issues = Verify.check ~keys patched in
  Alcotest.(check bool) "tampered patch detected" true
    (List.exists (function Verify.Patch_mismatch _ -> true | _ -> false) issues)

(* ---- SCFP edge rules ---- *)

let test_edge_rules () =
  let w = List.hd (Sofia.Workloads.Registry.benchmark_suite ()) in
  let image = protect ~backend:Backend_id.Scfp w in
  let entry = image.Image.entry in
  let violation = function
    | Runner.Fetch_violation v -> Machine.violation_label v
    | Runner.Block_ok _ -> "accepted"
  in
  (* the reset edge accepts only the image entry *)
  Alcotest.(check bool) "reset edge to entry accepted" true
    (match Runner.fetch_block ~keys ~image ~target:entry ~prev_pc:Block.reset_prev_pc with
    | Runner.Block_ok _ -> true
    | Runner.Fetch_violation _ -> false);
  let other = if entry = image.Image.text_base then entry + Block.size_bytes else image.Image.text_base in
  Alcotest.(check string) "reset edge elsewhere diverges" "state_divergence"
    (violation (Runner.fetch_block ~keys ~image ~target:other ~prev_pc:Block.reset_prev_pc));
  (* mid-block entries are no ports under SCFP *)
  Alcotest.(check string) "offset +4 is misaligned" "misaligned_entry"
    (violation (Runner.fetch_block ~keys ~image ~target:(entry + 4) ~prev_pc:Block.reset_prev_pc));
  (* an edge from a non-exit prevPC has no defined state *)
  Alcotest.(check string) "non-exit prevPC diverges" "state_divergence"
    (violation (Runner.fetch_block ~keys ~image ~target:other ~prev_pc:(entry + 8)));
  (* a wild redirect between unrelated blocks diverges *)
  let n = Array.length image.Image.blocks in
  let u = image.Image.blocks.(n / 3).Image.base and t = image.Image.blocks.(2 * n / 3).Image.base in
  if t <> u + Block.size_bytes then
    Alcotest.(check string) "unpatched edge diverges" "state_divergence"
      (violation (Runner.fetch_block ~keys ~image ~target:t ~prev_pc:(u + Block.exit_offset)))

(* ---- return-redirect binding: a return diverted to a foreign but
   individually-valid return point must diverge (the link patch binds
   the unique source's exit state) ---- *)

let test_link_binding () =
  let jalr_pred_of image (b : Image.block) =
    List.find_map
      (fun p ->
        let pbase = p - Block.exit_offset in
        match Array.find_opt (fun (c : Image.block) -> c.Image.base = pbase) image.Image.blocks with
        | Some c
          when (match c.Image.insns.(Array.length c.Image.insns - 1) with
               | Insn.Jalr _ -> true
               | _ -> false) ->
          Some c.Image.base
        | Some _ | None -> None)
      b.Image.entry_prev_pcs
  in
  let checked = ref 0 in
  List.iter
    (fun (w : Workload.t) ->
      let image = protect ~backend:Backend_id.Scfp w in
      let rps =
        Array.to_list image.Image.blocks
        |> List.filter_map (fun (b : Image.block) ->
               Option.map (fun u -> (b.Image.base, u)) (jalr_pred_of image b))
      in
      List.iter
        (fun (_t1, u1) ->
          List.iter
            (fun (t2, u2) ->
              if u1 <> u2 then begin
                incr checked;
                match
                  Runner.fetch_block ~keys ~image ~target:t2
                    ~prev_pc:(u1 + Block.exit_offset)
                with
                | Runner.Fetch_violation (Machine.State_divergence _) -> ()
                | o ->
                  Alcotest.failf
                    "return redirect 0x%08x->0x%08x (owner 0x%08x) not caught: %s" u1 t2 u2
                    (match o with
                    | Runner.Block_ok _ -> "accepted"
                    | Runner.Fetch_violation v -> Machine.violation_label v)
              end)
            rps)
        rps)
    (Sofia.Workloads.Registry.all ());
  if !checked = 0 then
    Alcotest.fail "no cross-return-point pair found in the registry; property not exercised"

(* ---- the tentpole tamper property, backend-parametrised: every
   single-bit flip in any fetched word resets the core before anything
   from the tampered block retires, at the same edge index under both
   engines ---- *)

let prop_tamper_bit =
  QCheck.Test.make ~count:60
    ~name:"single-bit flips reset identically under both engines and backends"
    QCheck.(triple (int_range 1 1_000_000) (int_range 0 100_000) (int_range 0 31))
    (fun (seed, word_pick, bit) ->
      let src = Property_tests.generate_program ~seed:(Int64.of_int seed) in
      let program = Sofia.Asm.Assembler.assemble src in
      List.for_all
        (fun backend ->
          let image = Transform.protect_exn ~backend ~keys ~nonce program in
          let words = Image.word_count image in
          let address = image.Image.text_base + (4 * (word_pick mod words)) in
          let value = Option.get (Image.fetch image address) lxor (1 lsl bit) in
          let tampered = Image.with_tampered_word image ~address ~value in
          let rf, sf = run ~config:fast tampered and rr, sr = run ~config:refc tampered in
          let block_base = address - ((address - image.Image.text_base) mod Block.size_bytes) in
          rf = rr && sf = sr
          &&
          match rf.Machine.outcome with
          | Machine.Cpu_reset _ ->
            (* detection latency 0, per edge: a tampered instruction
               slot never retires. Under SOFIA a multiplexor block's
               entry words are path-specific, so an untampered path may
               legitimately retire the block's instructions; under SCFP
               every fetch absorbs all eight words, so nothing from the
               tampered block ever retires. *)
            (match backend with
            | Backend_id.Sofia -> List.for_all (fun pc -> pc <> address) sf
            | Backend_id.Scfp ->
              List.for_all (fun pc -> pc < block_base || pc >= block_base + Block.size_bytes) sf)
          | Machine.Halted _ ->
            (* the tampered word was never fetched: bit-identical to
               the clean run *)
            let clean, _ = run ~config:fast image in
            rf.Machine.outputs = clean.Machine.outputs
            && rf.Machine.outcome = clean.Machine.outcome
          | Machine.Out_of_fuel -> false)
        Backend_id.all)

(* ---- transient fetch faults under SCFP: fast = ref ---- *)

let test_transient_faults () =
  let w = List.hd (Sofia.Workloads.Registry.benchmark_suite ()) in
  let image = protect ~backend:Backend_id.Scfp w in
  List.iter
    (fun (n, bit) ->
      let rf, sf = run ~config:fast ~fault:(n, bit) image in
      let rr, sr = run ~config:refc ~fault:(n, bit) image in
      Alcotest.(check bool)
        (Printf.sprintf "fault(%d,%d) fast = ref" n bit)
        true
        (rf = rr && sf = sr))
    [ (1, 3); (2, 64); (5, 200); (40, 97) ]

let suite =
  List.map
    (fun (w : Workload.t) ->
      Alcotest.test_case ("scfp: " ^ w.Workload.name) `Quick (test_workload w))
    (Sofia.Workloads.Registry.all ())
  @ [
      Alcotest.test_case "v2 serialization round-trip" `Quick test_serialization;
      Alcotest.test_case "independent verifier" `Quick test_verify;
      Alcotest.test_case "scfp edge rules" `Quick test_edge_rules;
      Alcotest.test_case "return-redirect binding" `Quick test_link_binding;
      Alcotest.test_case "transient faults (scfp)" `Quick test_transient_faults;
      QCheck_alcotest.to_alcotest prop_tamper_bit;
    ]
