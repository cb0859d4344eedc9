(* Unit + property tests for the SLEON-32 ISA: registers, semantics,
   encoding. *)

module Reg = Sofia.Isa.Reg
module Insn = Sofia.Isa.Insn
module Encoding = Sofia.Isa.Encoding

let check_int = Alcotest.(check int)

(* ---------------- registers ---------------- *)

let test_reg_bounds () =
  Alcotest.check_raises "negative" (Invalid_argument "Reg.of_int: -1") (fun () ->
    ignore (Reg.of_int (-1)));
  Alcotest.check_raises "32" (Invalid_argument "Reg.of_int: 32") (fun () ->
    ignore (Reg.of_int 32));
  check_int "roundtrip" 17 (Reg.to_int (Reg.of_int 17))

let test_reg_names () =
  Alcotest.(check string) "zero" "zero" (Reg.name Reg.zero);
  Alcotest.(check string) "ra" "ra" (Reg.name Reg.ra);
  Alcotest.(check string) "sp" "sp" (Reg.name Reg.sp);
  Alcotest.(check string) "a0" "a0" (Reg.name (Reg.a 0));
  Alcotest.(check string) "s7" "s7" (Reg.name (Reg.s 7));
  Alcotest.(check string) "t3" "t3" (Reg.name (Reg.t 3));
  Alcotest.(check string) "plain" "r1" (Reg.name (Reg.of_int 1))

let test_reg_of_name () =
  for i = 0 to 31 do
    let r = Reg.of_int i in
    match Reg.of_name (Reg.name r) with
    | Some r' -> check_int "name roundtrip" i (Reg.to_int r')
    | None -> Alcotest.fail "name did not parse back"
  done;
  Alcotest.(check bool) "rejects r32" true (Reg.of_name "r32" = None);
  Alcotest.(check bool) "rejects a8" true (Reg.of_name "a8" = None);
  Alcotest.(check bool) "rejects junk" true (Reg.of_name "abc" = None);
  Alcotest.(check bool) "accepts r0" true (Reg.of_name "r0" = Some Reg.zero);
  (* the index is whatever int_of_string reads after the letter *)
  Alcotest.(check bool) "accepts a07" true (Reg.of_name "a07" = Some (Reg.a 7));
  Alcotest.(check bool) "accepts t0x1" true (Reg.of_name "t0x1" = Some (Reg.t 1));
  Alcotest.(check bool) "accepts r+31" true (Reg.of_name "r+31" = Some Reg.ra);
  Alcotest.(check bool) "rejects s" true (Reg.of_name "s" = None);
  Alcotest.(check bool) "rejects t-1" true (Reg.of_name "t-1" = None)

(* ---------------- semantics ---------------- *)

let test_eval_cond () =
  let t c a b = Insn.eval_cond c a b in
  Alcotest.(check bool) "eq" true (t Insn.Eq 5 5);
  Alcotest.(check bool) "ne" true (t Insn.Ne 5 6);
  (* signed: 0xFFFFFFFF is -1 *)
  Alcotest.(check bool) "lt signed" true (t Insn.Lt 0xFFFF_FFFF 0);
  Alcotest.(check bool) "ge signed" true (t Insn.Ge 0 0xFFFF_FFFF);
  Alcotest.(check bool) "gt signed" true (t Insn.Gt 1 0xFFFF_FFFF);
  Alcotest.(check bool) "le signed" true (t Insn.Le 0xFFFF_FFFF 0xFFFF_FFFF);
  (* unsigned: 0xFFFFFFFF is max *)
  Alcotest.(check bool) "ltu" true (t Insn.Ltu 0 0xFFFF_FFFF);
  Alcotest.(check bool) "geu" true (t Insn.Geu 0xFFFF_FFFF 0);
  Alcotest.(check bool) "gtu" true (t Insn.Gtu 0xFFFF_FFFF 0xFFFF_FFFE);
  Alcotest.(check bool) "leu" true (t Insn.Leu 0xFFFF_FFFE 0xFFFF_FFFF)

let test_eval_alu () =
  let e op a b = Insn.eval_alu op a b in
  check_int "add wraps" 0 (e Insn.Add 0xFFFF_FFFF 1);
  check_int "sub wraps" 0xFFFF_FFFF (e Insn.Sub 0 1);
  check_int "and" 0x0F00 (e Insn.And 0xFF00 0x0FF0);
  check_int "or" 0xFFF0 (e Insn.Or 0xFF00 0x0FF0);
  check_int "xor" 0xF0F0 (e Insn.Xor 0xFF00 0x0FF0);
  check_int "sll masks shift" (e Insn.Sll 1 1) (e Insn.Sll 1 33);
  check_int "srl logical" 0x7FFF_FFFF (e Insn.Srl 0xFFFF_FFFE 1);
  check_int "sra arithmetic" 0xFFFF_FFFF (e Insn.Sra 0xFFFF_FFFE 1);
  check_int "mul wraps" (Sofia.Util.Word.u32 (123456789 * 97)) (e Insn.Mul 123456789 97);
  check_int "div signed" 0xFFFF_FFFE (e Insn.Div 0xFFFF_FFFC 2) (* -4 / 2 = -2 *);
  check_int "div by zero is all-ones" 0xFFFF_FFFF (e Insn.Div 42 0);
  check_int "rem signed" 0xFFFF_FFFF (e Insn.Rem 0xFFFF_FFFD 2) (* -3 mod 2 = -1 *);
  check_int "rem by zero is dividend" 42 (e Insn.Rem 42 0);
  check_int "slt true" 1 (e Insn.Slt 0xFFFF_FFFF 0);
  check_int "slt false" 0 (e Insn.Slt 0 0xFFFF_FFFF);
  check_int "sltu" 1 (e Insn.Sltu 0 0xFFFF_FFFF)

let test_classification () =
  Alcotest.(check bool) "store" true (Insn.is_store (Insn.Store (W32, Reg.a 0, Reg.sp, 0)));
  Alcotest.(check bool) "load" true (Insn.is_load (Insn.Load (W8, Reg.a 0, Reg.sp, 0)));
  Alcotest.(check bool) "branch is cf" true
    (Insn.is_control_flow (Insn.Branch (Eq, Reg.zero, Reg.zero, 1)));
  Alcotest.(check bool) "jal is cf" true (Insn.is_control_flow (Insn.Jal (Reg.ra, 1)));
  Alcotest.(check bool) "halt is cf" true (Insn.is_control_flow (Insn.Halt 0));
  Alcotest.(check bool) "nop is not cf" false (Insn.is_control_flow Insn.nop);
  Alcotest.(check bool) "jalr is indirect" true
    (Insn.is_indirect (Insn.Jalr (Reg.zero, Reg.ra, 0)));
  Alcotest.(check bool) "branch is conditional" true
    (Insn.is_conditional (Insn.Branch (Ne, Reg.a 0, Reg.a 1, -4)))

(* ---------------- encoding ---------------- *)

let representative_insns : Insn.t list =
  let r = Reg.of_int in
  [
    Insn.nop;
    Insn.Alu_r (Add, r 1, r 2, r 3);
    Insn.Alu_r (Sub, r 31, r 30, r 29);
    Insn.Alu_r (Mul, r 5, r 5, r 5);
    Insn.Alu_r (Div, r 7, r 8, r 9);
    Insn.Alu_r (Rem, r 7, r 8, r 9);
    Insn.Alu_r (Sltu, r 1, r 1, r 1);
    Insn.Alu_i (Add, r 4, r 4, -32768);
    Insn.Alu_i (Add, r 4, r 4, 32767);
    Insn.Alu_i (And, r 4, r 4, 0xFFFF);
    Insn.Alu_i (Or, r 4, r 4, 0);
    Insn.Alu_i (Xor, r 4, r 4, 0xABCD);
    Insn.Alu_i (Sll, r 4, r 4, 31);
    Insn.Alu_i (Srl, r 4, r 4, 0);
    Insn.Alu_i (Sra, r 4, r 4, 15);
    Insn.Alu_i (Slt, r 4, r 4, -1);
    Insn.Alu_i (Sltu, r 4, r 4, 65535);
    Insn.Lui (r 10, 0xFFFF);
    Insn.Lui (r 10, 0);
    Insn.Load (W32, r 1, r 2, -32768);
    Insn.Load (W8, r 1, r 2, 32767);
    Insn.Store (W32, r 3, r 4, 1000);
    Insn.Store (W8, r 3, r 4, -1000);
    Insn.Branch (Eq, r 1, r 2, -2048);
    Insn.Branch (Leu, r 1, r 2, 2047);
    Insn.Jal (Reg.zero, -(1 lsl 20));
    Insn.Jal (Reg.ra, (1 lsl 20) - 1);
    Insn.Jalr (Reg.zero, Reg.ra, 0);
    Insn.Jalr (Reg.ra, r 20, -4);
    Insn.Halt 0;
    Insn.Halt ((1 lsl 26) - 1);
  ]

let test_encode_decode_roundtrip () =
  List.iter
    (fun insn ->
      let w = Encoding.encode insn in
      match Encoding.decode w with
      | Some insn' ->
        Alcotest.(check bool)
          (Printf.sprintf "roundtrip %s" (Insn.to_string insn))
          true (Insn.equal insn insn')
      | None -> Alcotest.fail (Printf.sprintf "decode failed for %s" (Insn.to_string insn)))
    representative_insns

let test_zero_word_is_nop () =
  match Encoding.decode 0 with
  | Some insn -> Alcotest.(check bool) "all-zero word is nop" true (Insn.equal insn Insn.nop)
  | None -> Alcotest.fail "zero word must decode"

let test_encode_range_errors () =
  let expect_fail name f =
    match f () with
    | exception Encoding.Encode_error _ -> ()
    | _ -> Alcotest.fail (name ^ ": expected Encode_error")
  in
  expect_fail "imm too big" (fun () -> Encoding.encode (Insn.Alu_i (Add, Reg.a 0, Reg.a 0, 32768)));
  expect_fail "imm too small" (fun () ->
    Encoding.encode (Insn.Alu_i (Add, Reg.a 0, Reg.a 0, -32769)));
  expect_fail "negative logical imm" (fun () ->
    Encoding.encode (Insn.Alu_i (And, Reg.a 0, Reg.a 0, -1)));
  expect_fail "shift amount 32" (fun () -> Encoding.encode (Insn.Alu_i (Sll, Reg.a 0, Reg.a 0, 32)));
  expect_fail "branch offset" (fun () ->
    Encoding.encode (Insn.Branch (Eq, Reg.a 0, Reg.a 0, 2048)));
  expect_fail "jal offset" (fun () -> Encoding.encode (Insn.Jal (Reg.ra, 1 lsl 20)));
  expect_fail "sub has no imm form" (fun () ->
    Encoding.encode (Insn.Alu_i (Sub, Reg.a 0, Reg.a 0, 1)));
  expect_fail "halt code range" (fun () -> Encoding.encode (Insn.Halt (1 lsl 26)))

let test_decode_invalid () =
  let invalid name w =
    match Encoding.decode w with
    | None -> ()
    | Some i -> Alcotest.fail (Printf.sprintf "%s decoded to %s" name (Insn.to_string i))
  in
  invalid "unknown major opcode" (0x3F lsl 26);
  invalid "alu-r bad funct" 0x0000_000D (* funct 13 *);
  invalid "branch bad cond" ((0x0F lsl 26) lor (10 lsl 22));
  invalid "shift with garbage bits" ((0x05 lsl 26) lor 0x20);
  invalid "lui with nonzero rs1 field" ((0x0A lsl 26) lor (1 lsl 16))

let test_valid_word_fraction () =
  let f = Encoding.valid_word_fraction ~samples:20000 ~seed:77L in
  (* 19 valid opcodes of 64, some with extra constraints *)
  Alcotest.(check bool)
    (Printf.sprintf "fraction %.3f plausible" f)
    true
    (f > 0.20 && f < 0.32)

(* ---------------- properties ---------------- *)

let arbitrary_insn =
  let open QCheck in
  let reg = Gen.map Reg.of_int (Gen.int_range 0 31) in
  let alu_r_op =
    Gen.oneofl
      [ Insn.Add; Insn.Sub; Insn.And; Insn.Or; Insn.Xor; Insn.Sll; Insn.Srl; Insn.Sra; Insn.Mul;
        Insn.Div; Insn.Rem; Insn.Slt; Insn.Sltu ]
  in
  let gen =
    Gen.oneof
      [
        Gen.map4 (fun op a b c -> Insn.Alu_r (op, a, b, c)) alu_r_op reg reg reg;
        Gen.map3 (fun a b imm -> Insn.Alu_i (Add, a, b, imm)) reg reg (Gen.int_range (-32768) 32767);
        Gen.map3 (fun a b imm -> Insn.Alu_i (Xor, a, b, imm)) reg reg (Gen.int_range 0 65535);
        Gen.map3 (fun a b imm -> Insn.Alu_i (Sra, a, b, imm)) reg reg (Gen.int_range 0 31);
        Gen.map2 (fun a imm -> Insn.Lui (a, imm)) reg (Gen.int_range 0 65535);
        Gen.map3 (fun a b off -> Insn.Load (W32, a, b, off)) reg reg (Gen.int_range (-32768) 32767);
        Gen.map3 (fun a b off -> Insn.Store (W8, a, b, off)) reg reg (Gen.int_range (-32768) 32767);
        Gen.map3
          (fun a b off -> Insn.Branch (Ne, a, b, off))
          reg reg (Gen.int_range (-2048) 2047);
        Gen.map2 (fun a off -> Insn.Jal (a, off)) reg (Gen.int_range (-(1 lsl 20)) ((1 lsl 20) - 1));
        Gen.map3 (fun a b off -> Insn.Jalr (a, b, off)) reg reg (Gen.int_range (-32768) 32767);
        Gen.map (fun c -> Insn.Halt c) (Gen.int_range 0 ((1 lsl 26) - 1));
      ]
  in
  make ~print:Insn.to_string gen

let prop_encode_decode =
  QCheck.Test.make ~count:2000 ~name:"decode (encode i) = i" arbitrary_insn (fun insn ->
    match Encoding.decode (Encoding.encode insn) with
    | Some insn' -> Insn.equal insn insn'
    | None -> false)

let prop_decode_canonical =
  QCheck.Test.make ~count:5000 ~name:"encode (decode w) = w for valid w"
    QCheck.(map (fun x -> x land 0xFFFF_FFFF) int)
    (fun w ->
      match Encoding.decode w with
      | None -> true
      | Some insn -> Encoding.encode insn = w)

let suite =
  [
    Alcotest.test_case "register bounds" `Quick test_reg_bounds;
    Alcotest.test_case "register names" `Quick test_reg_names;
    Alcotest.test_case "register name parsing" `Quick test_reg_of_name;
    Alcotest.test_case "condition evaluation" `Quick test_eval_cond;
    Alcotest.test_case "ALU semantics" `Quick test_eval_alu;
    Alcotest.test_case "instruction classification" `Quick test_classification;
    Alcotest.test_case "encode/decode round trip" `Quick test_encode_decode_roundtrip;
    Alcotest.test_case "zero word is nop" `Quick test_zero_word_is_nop;
    Alcotest.test_case "encode range errors" `Quick test_encode_range_errors;
    Alcotest.test_case "decode rejects invalid words" `Quick test_decode_invalid;
    Alcotest.test_case "random word validity fraction" `Quick test_valid_word_fraction;
    QCheck_alcotest.to_alcotest prop_encode_decode;
    QCheck_alcotest.to_alcotest prop_decode_canonical;
  ]
