(* Tests for the assembler, program representation and disassembler. *)

module Assembler = Sofia.Asm.Assembler
module Program = Sofia.Asm.Program
module Disasm = Sofia.Asm.Disasm
module Insn = Sofia.Isa.Insn
module Reg = Sofia.Isa.Reg
module Encoding = Sofia.Isa.Encoding

let check_int = Alcotest.(check int)

let asm = Assembler.assemble

let expect_error src =
  match asm src with
  | exception Assembler.Error _ -> ()
  | _ -> Alcotest.fail "expected assembly error"

let test_basic_instructions () =
  let p = asm "add a0, a1, a2\naddi t0, t1, -5\nld s0, 8(sp)\nst s0, -4(fp)\nhalt 3\n" in
  check_int "count" 5 (Array.length p.Program.text);
  Alcotest.(check bool) "add" true
    (Insn.equal p.Program.text.(0) (Insn.Alu_r (Add, Reg.a 0, Reg.a 1, Reg.a 2)));
  Alcotest.(check bool) "addi" true
    (Insn.equal p.Program.text.(1) (Insn.Alu_i (Add, Reg.t 0, Reg.t 1, -5)));
  Alcotest.(check bool) "ld" true (Insn.equal p.Program.text.(2) (Insn.Load (W32, Reg.s 0, Reg.sp, 8)));
  Alcotest.(check bool) "st" true
    (Insn.equal p.Program.text.(3) (Insn.Store (W32, Reg.s 0, Reg.fp, -4)));
  Alcotest.(check bool) "halt" true (Insn.equal p.Program.text.(4) (Insn.Halt 3))

let test_labels_and_branches () =
  let p = asm "start:\n  beq a0, zero, done\n  addi a0, a0, -1\n  j start\ndone:\n  halt\n" in
  (* beq at index 0, done at index 3 -> offset 3 *)
  Alcotest.(check bool) "forward branch" true
    (Insn.equal p.Program.text.(0) (Insn.Branch (Eq, Reg.a 0, Reg.zero, 3)));
  (* j at index 2, start at 0 -> offset -2 *)
  Alcotest.(check bool) "backward jump" true (Insn.equal p.Program.text.(2) (Insn.Jal (Reg.zero, -2)));
  check_int "entry is start" 0 p.Program.entry

let test_li_expansion () =
  let p = asm "li a0, 5\nli a1, -3\nli a2, 0x12345678\nli a3, 100000\n" in
  check_int "small lis are 1 word, big are 2" 6 (Array.length p.Program.text);
  Alcotest.(check bool) "small" true
    (Insn.equal p.Program.text.(0) (Insn.Alu_i (Add, Reg.a 0, Reg.zero, 5)));
  Alcotest.(check bool) "big hi" true (Insn.equal p.Program.text.(2) (Insn.Lui (Reg.a 2, 0x1234)));
  Alcotest.(check bool) "big lo" true
    (Insn.equal p.Program.text.(3) (Insn.Alu_i (Or, Reg.a 2, Reg.a 2, 0x5678)))

let test_pseudo_instructions () =
  let p = asm "mv a0, a1\nneg a2, a3\nsubi a4, a4, 7\nnop\nret\ncall f\nf: ret\n" in
  Alcotest.(check bool) "mv" true
    (Insn.equal p.Program.text.(0) (Insn.Alu_i (Add, Reg.a 0, Reg.a 1, 0)));
  Alcotest.(check bool) "neg" true
    (Insn.equal p.Program.text.(1) (Insn.Alu_r (Sub, Reg.a 2, Reg.zero, Reg.a 3)));
  Alcotest.(check bool) "subi" true
    (Insn.equal p.Program.text.(2) (Insn.Alu_i (Add, Reg.a 4, Reg.a 4, -7)));
  Alcotest.(check bool) "nop" true (Insn.equal p.Program.text.(3) Insn.nop);
  Alcotest.(check bool) "ret" true (Insn.equal p.Program.text.(4) (Insn.Jalr (Reg.zero, Reg.ra, 0)));
  Alcotest.(check bool) "call" true (Insn.equal p.Program.text.(5) (Insn.Jal (Reg.ra, 1)))

let test_data_directives () =
  let p =
    asm
      ".data\nw: .word 1, -1, 0x10\nb: .byte 1, 2, 3\ns: .space 5\nz: .asciz \"hi\"\n.align 4\nq: .word 9\n"
  in
  let d = p.Program.data in
  check_int "word 0" 1 (Sofia.Util.Word.word32_of_bytes_le d 0);
  check_int "word 1 masked" 0xFFFF_FFFF (Sofia.Util.Word.word32_of_bytes_le d 4);
  check_int "word 2" 0x10 (Sofia.Util.Word.word32_of_bytes_le d 8);
  check_int "bytes" 2 (Bytes.get_uint8 d 13);
  check_int "asciz h" (Char.code 'h') (Bytes.get_uint8 d 20);
  check_int "asciz terminator" 0 (Bytes.get_uint8 d 22);
  (match Program.symbol p "q" with
   | Some a -> check_int "aligned" 0 ((a - p.Program.data_base) mod 4)
   | None -> Alcotest.fail "q missing");
  (match Program.symbol p "b" with
   | Some a -> check_int "b addr" (p.Program.data_base + 12) a
   | None -> Alcotest.fail "b missing")

(* [.word] reads plain decimal and hex literals in place; every token
   must still mean what [int_of_string] makes of it, and a token it
   rejects must not assemble (as an undefined symbol). *)
let test_word_literals_match_int_of_string () =
  let rng = Sofia.Util.Prng.create ~seed:0x3A11L in
  let below n = Sofia.Util.Prng.int_below rng n in
  let pick a = a.(below (Array.length a)) in
  let digits = "0123456789abcdefABCDEF_xX" in
  for _ = 1 to 3000 do
    let sign = pick [| ""; ""; "-"; "+" |] in
    let prefix = pick [| ""; ""; "0x"; "0X"; "0o"; "0b"; "0u" |] in
    let body = String.init (1 + below 20) (fun _ -> digits.[below (String.length digits)]) in
    let token = sign ^ prefix ^ body in
    let src = ".data\n.word " ^ token ^ "\n" in
    match (int_of_string_opt token, asm src) with
    | Some v, p ->
      check_int token (v land 0xFFFF_FFFF) (Sofia.Util.Word.word32_of_bytes_le p.Program.data 0)
    | None, _ -> Alcotest.failf "%S assembled, but int_of_string rejects it" token
    | exception Assembler.Error _ ->
      if int_of_string_opt token <> None then Alcotest.failf "%S did not assemble" token
  done

let test_equ_and_char_literals () =
  let p = asm ".equ K, 42\nli a0, K\nli a1, 'A'\nli a2, '\\n'\n" in
  (* K is a symbol, so li uses the 2-word form; char literals are plain *)
  Alcotest.(check bool) "equ hi" true (Insn.equal p.Program.text.(0) (Insn.Lui (Reg.a 0, 0)));
  Alcotest.(check bool) "equ lo" true
    (Insn.equal p.Program.text.(1) (Insn.Alu_i (Or, Reg.a 0, Reg.a 0, 42)));
  Alcotest.(check bool) "char" true
    (Insn.equal p.Program.text.(2) (Insn.Alu_i (Add, Reg.a 1, Reg.zero, 65)));
  Alcotest.(check bool) "newline" true
    (Insn.equal p.Program.text.(3) (Insn.Alu_i (Add, Reg.a 2, Reg.zero, 10)));
  (* a char literal is one token: the comment characters and the comma
     it holds neither end the line nor split the operands *)
  let li_char c =
    match (asm (Printf.sprintf "li t0, %s ; comment, with 'quotes'\n" c)).Program.text with
    | [| Insn.Alu_i (Add, rd, rs, v) |] when Reg.equal rd (Reg.t 0) && Reg.equal rs Reg.zero -> v
    | _ -> Alcotest.failf "li t0, %s: unexpected expansion" c
  in
  check_int "';'" 59 (li_char "';'");
  check_int "'#'" 35 (li_char "'#'");
  check_int "','" 44 (li_char "','");
  check_int "'\\''" 39 (li_char "'\\''");
  let p = asm ".data\nb: .byte 'x', ',', ';', '#', '\\0'\n" in
  Alcotest.(check string) ".byte" "x,;#\000" (Bytes.to_string p.Program.data);
  (* the same holds where the literal stands in for a mnemonic *)
  match asm "x: ';'\n" with
  | _ -> Alcotest.fail "x: ';' assembled"
  | exception Assembler.Error { line; message } ->
    check_int "head line" 1 line;
    Alcotest.(check string) "head message" "unknown mnemonic \"';'\"" message

let test_targets_annotation () =
  let p = asm "start:\n.targets f, g\n  jalr t0\n  halt\nf: ret\ng: ret\n" in
  let jalr_addr = Program.address_of_index p 0 in
  let f = Option.get (Program.symbol p "f") in
  let g = Option.get (Program.symbol p "g") in
  Alcotest.(check (list int)) "targets recorded" [ f; g ] (Program.targets_of p jalr_addr)

let test_la_relocs () =
  let p = asm "start:\n  la a0, f\n  la a1, buf\n  halt\nf: ret\n.data\nbuf: .word 0\n" in
  (* only the text symbol f gets a relocation *)
  check_int "one la reloc" 1 (List.length p.Program.la_relocs);
  (match p.Program.la_relocs with
   | [ { Program.hi_index; lo_index; la_symbol } ] ->
     check_int "hi" 0 hi_index;
     check_int "lo" 1 lo_index;
     Alcotest.(check string) "symbol" "f" la_symbol
   | _ -> Alcotest.fail "unexpected relocs")

let test_data_word_relocs () =
  let p = asm "start: halt\nf: ret\n.data\ntable: .word f, 7, f\n" in
  check_int "two data relocs" 2 (List.length p.Program.data_word_relocs);
  (* a literal that also names an all-digit text label is relocated as
     that label, though the word keeps the literal's value; [.byte]
     never relocates *)
  let p = asm "start: halt\n1: ret\n.data\n.word 1, 2\n.byte 1\n" in
  Alcotest.(check (list (pair int string))) "digit label" [ (0, "1") ] p.Program.data_word_relocs;
  check_int "literal value" 1 (Sofia.Util.Word.word32_of_bytes_le p.Program.data 0)

let test_errors () =
  expect_error "bogus a0, a1\n";
  expect_error "add a0, a1\n";
  expect_error "ld a0, a1\n";
  expect_error "x: nop\nx: nop\n";
  expect_error "j nowhere\n";
  expect_error "li a0, f\nf: ret\n" (* li of code address must be la *);
  expect_error "addi a0, a0, 99999\n";
  expect_error ".data\n.word\n.text\nbadlabel nop\n";
  expect_error "add a0, a1, 5\n"

let test_comments_and_whitespace () =
  let p = asm "  ; full comment line\n\tadd a0, a0, a0  # trailing\n\n# another\nhalt\n" in
  check_int "two instructions" 2 (Array.length p.Program.text)

let test_program_addressing () =
  let p = asm "nop\nnop\nnop\n" in
  check_int "address of 2" (p.Program.text_base + 8) (Program.address_of_index p 2);
  Alcotest.(check (option int)) "index of" (Some 2)
    (Program.index_of_address p (p.Program.text_base + 8));
  Alcotest.(check (option int)) "unaligned" None
    (Program.index_of_address p (p.Program.text_base + 6));
  Alcotest.(check (option int)) "past end" None
    (Program.index_of_address p (p.Program.text_base + 12));
  check_int "text size" 12 (Program.text_size_bytes p)

let test_disasm_roundtrip () =
  let src = "start:\n  li a0, 77\n  beqz a0, start\n  call f\n  halt\nf:\n  mul a0, a0, a0\n  ret\n" in
  let p = asm src in
  let entries = Disasm.disassemble ~base:p.Program.text_base (Program.encoded_text p) in
  List.iteri
    (fun i (e : Disasm.entry) ->
      match e.Disasm.insn with
      | Some insn ->
        Alcotest.(check bool) "disasm matches" true (Insn.equal insn p.Program.text.(i))
      | None -> Alcotest.fail "valid program word failed to disassemble")
    entries

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_listing_renders () =
  let p = asm "start: nop\nhalt\n" in
  let s = Format.asprintf "%a" Program.pp_listing p in
  Alcotest.(check bool) "mentions start" true (contains ~needle:"start" s);
  Alcotest.(check bool) "mentions halt" true (contains ~needle:"halt" s)

(* The assembler's speed-up came from allocating less: each line is
   lexed in place, by index, and only tokens are copied. Minor words
   are exact for one binary and input, so they pin that win where a
   wall-clock floor would measure the host: 27,241 words for the
   256-sample ADPCM source (18 KB) with OCaml 5.1, and a lexer that
   copies each line and splits its operands through a buffer costs
   thousands more. *)
let test_assemble_adpcm_allocation () =
  let source = (Sofia.Workloads.Adpcm.workload ~samples:256 ()).Sofia.Workloads.Workload.source in
  ignore (asm source);
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (asm source));
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) (Printf.sprintf "%.0f minor words <= 28,000" words) true (words <= 28_000.0)

let suite =
  [
    Alcotest.test_case "basic instructions" `Quick test_basic_instructions;
    Alcotest.test_case "labels and branches" `Quick test_labels_and_branches;
    Alcotest.test_case "li expansion" `Quick test_li_expansion;
    Alcotest.test_case "pseudo instructions" `Quick test_pseudo_instructions;
    Alcotest.test_case "data directives" `Quick test_data_directives;
    Alcotest.test_case ".equ and char literals" `Quick test_equ_and_char_literals;
    Alcotest.test_case ".word literals match int_of_string" `Quick
      test_word_literals_match_int_of_string;
    Alcotest.test_case ".targets annotation" `Quick test_targets_annotation;
    Alcotest.test_case "la relocations" `Quick test_la_relocs;
    Alcotest.test_case ".word code-pointer relocations" `Quick test_data_word_relocs;
    Alcotest.test_case "error reporting" `Quick test_errors;
    Alcotest.test_case "comments and whitespace" `Quick test_comments_and_whitespace;
    Alcotest.test_case "program addressing" `Quick test_program_addressing;
    Alcotest.test_case "disassembler round trip" `Quick test_disasm_roundtrip;
    Alcotest.test_case "listing renders" `Quick test_listing_renders;
    Alcotest.test_case "assemble-adpcm minor words pinned" `Quick test_assemble_adpcm_allocation;
  ]
