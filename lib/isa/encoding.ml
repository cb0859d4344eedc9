open Sofia_util

exception Encode_error of string

let op_alu_r = 0x00
let op_lui = 0x0A
let op_ld = 0x0B
let op_ldb = 0x0C
let op_st = 0x0D
let op_stb = 0x0E
let op_branch = 0x0F
let op_jal = 0x10
let op_jalr = 0x11
let op_halt = 0x12

let funct_of_alu : Insn.alu_op -> int = function
  | Add -> 0
  | Sub -> 1
  | And -> 2
  | Or -> 3
  | Xor -> 4
  | Sll -> 5
  | Srl -> 6
  | Sra -> 7
  | Mul -> 8
  | Div -> 9
  | Rem -> 10
  | Slt -> 11
  | Sltu -> 12

let alu_of_funct : int -> Insn.alu_op option = function
  | 0 -> Some Add
  | 1 -> Some Sub
  | 2 -> Some And
  | 3 -> Some Or
  | 4 -> Some Xor
  | 5 -> Some Sll
  | 6 -> Some Srl
  | 7 -> Some Sra
  | 8 -> Some Mul
  | 9 -> Some Div
  | 10 -> Some Rem
  | 11 -> Some Slt
  | 12 -> Some Sltu
  | _ -> None

(* Immediate-form ALU ops each get their own major opcode. *)
let op_of_alu_i : Insn.alu_op -> int option = function
  | Add -> Some 0x01
  | And -> Some 0x02
  | Or -> Some 0x03
  | Xor -> Some 0x04
  | Sll -> Some 0x05
  | Srl -> Some 0x06
  | Sra -> Some 0x07
  | Slt -> Some 0x08
  | Sltu -> Some 0x09
  | Sub | Mul | Div | Rem -> None

let alu_i_of_op : int -> Insn.alu_op option = function
  | 0x01 -> Some Add
  | 0x02 -> Some And
  | 0x03 -> Some Or
  | 0x04 -> Some Xor
  | 0x05 -> Some Sll
  | 0x06 -> Some Srl
  | 0x07 -> Some Sra
  | 0x08 -> Some Slt
  | 0x09 -> Some Sltu
  | _ -> None

let cond_code : Insn.cond -> int = function
  | Eq -> 0
  | Ne -> 1
  | Lt -> 2
  | Ge -> 3
  | Ltu -> 4
  | Geu -> 5
  | Gt -> 6
  | Le -> 7
  | Gtu -> 8
  | Leu -> 9

let cond_of_code : int -> Insn.cond option = function
  | 0 -> Some Eq
  | 1 -> Some Ne
  | 2 -> Some Lt
  | 3 -> Some Ge
  | 4 -> Some Ltu
  | 5 -> Some Geu
  | 6 -> Some Gt
  | 7 -> Some Le
  | 8 -> Some Gtu
  | 9 -> Some Leu
  | _ -> None

let imm16_signed_fits imm = imm >= -32768 && imm <= 32767
let imm16_unsigned_fits imm = imm >= 0 && imm <= 65535
let branch_offset_fits woff = woff >= -2048 && woff <= 2047
let jal_offset_fits woff = woff >= -(1 lsl 20) && woff <= (1 lsl 20) - 1

(* Whether an immediate-form ALU op uses a zero-extended immediate
   (logical ops, sltiu) rather than a sign-extended one. *)
let imm_zero_extended : Insn.alu_op -> bool = function
  | And | Or | Xor | Sltu -> true
  | Add | Slt | Sll | Srl | Sra | Sub | Mul | Div | Rem -> false

let check cond msg = if not cond then raise (Encode_error msg)

(* Formatted messages are built only once a check has failed: the
   encoder runs on every instruction the assembler and the
   transformation emit. *)
let fail fmt = Printf.ksprintf (fun msg -> raise (Encode_error msg)) fmt

let field_signed16 imm =
  if not (imm16_signed_fits imm) then fail "signed imm16 out of range: %d" imm;
  imm land 0xFFFF

let make ~op rest = Word.u32 ((op lsl 26) lor rest)

let encode (insn : Insn.t) =
  let r = Reg.to_int in
  match insn with
  | Alu_r (op, rd, rs1, rs2) ->
    make ~op:op_alu_r
      ((r rd lsl 21) lor (r rs1 lsl 16) lor (r rs2 lsl 11) lor funct_of_alu op)
  | Alu_i (op, rd, rs1, imm) ->
    let major =
      match op_of_alu_i op with
      | Some m -> m
      | None ->
        fail "%s has no immediate form" (Insn.to_string insn)
    in
    let field =
      match op with
      | Sll | Srl | Sra ->
        check (imm >= 0 && imm <= 31) "shift amount out of range";
        imm
      | _ when imm_zero_extended op ->
        if not (imm16_unsigned_fits imm) then fail "unsigned imm16 out of range: %d" imm;
        imm
      | _ -> field_signed16 imm
    in
    make ~op:major ((r rd lsl 21) lor (r rs1 lsl 16) lor field)
  | Lui (rd, imm) ->
    check (imm16_unsigned_fits imm) "lui immediate out of range";
    make ~op:op_lui ((r rd lsl 21) lor imm)
  | Load (w, rd, base, off) ->
    let op = match w with Insn.W32 -> op_ld | Insn.W8 -> op_ldb in
    make ~op ((r rd lsl 21) lor (r base lsl 16) lor field_signed16 off)
  | Store (w, src, base, off) ->
    let op = match w with Insn.W32 -> op_st | Insn.W8 -> op_stb in
    make ~op ((r src lsl 21) lor (r base lsl 16) lor field_signed16 off)
  | Branch (c, rs1, rs2, woff) ->
    if not (branch_offset_fits woff) then fail "branch offset out of range: %d" woff;
    make ~op:op_branch
      ((cond_code c lsl 22) lor (r rs1 lsl 17) lor (r rs2 lsl 12) lor (woff land 0xFFF))
  | Jal (rd, woff) ->
    if not (jal_offset_fits woff) then fail "jal offset out of range: %d" woff;
    make ~op:op_jal ((r rd lsl 21) lor (woff land 0x1FFFFF))
  | Jalr (rd, rs1, off) ->
    make ~op:op_jalr ((r rd lsl 21) lor (r rs1 lsl 16) lor field_signed16 off)
  | Halt code ->
    check (code >= 0 && code < 1 lsl 26) "halt code out of range";
    make ~op:op_halt code

let decode w =
  let w = Word.u32 w in
  let op = Word.bits ~lo:26 ~width:6 w in
  let rd () = Reg.of_int (Word.bits ~lo:21 ~width:5 w) in
  let rs1 () = Reg.of_int (Word.bits ~lo:16 ~width:5 w) in
  let imm16 = Word.bits ~lo:0 ~width:16 w in
  let simm16 = Word.sign_extend ~bits:16 w in
  if op = op_alu_r then
    match alu_of_funct (Word.bits ~lo:0 ~width:11 w) with
    | Some a -> Some (Insn.Alu_r (a, rd (), rs1 (), Reg.of_int (Word.bits ~lo:11 ~width:5 w)))
    | None -> None
  else
    match alu_i_of_op op with
    | Some a ->
      (match a with
       | Sll | Srl | Sra ->
         (* Bits [15:5] are must-be-zero for shifts. *)
         if imm16 lsr 5 <> 0 then None else Some (Insn.Alu_i (a, rd (), rs1 (), imm16))
       | _ ->
         let imm = if imm_zero_extended a then imm16 else simm16 in
         Some (Insn.Alu_i (a, rd (), rs1 (), imm)))
    | None ->
      if op = op_lui then
        if Word.bits ~lo:16 ~width:5 w <> 0 then None else Some (Insn.Lui (rd (), imm16))
      else if op = op_ld then Some (Insn.Load (W32, rd (), rs1 (), simm16))
      else if op = op_ldb then Some (Insn.Load (W8, rd (), rs1 (), simm16))
      else if op = op_st then Some (Insn.Store (W32, rd (), rs1 (), simm16))
      else if op = op_stb then Some (Insn.Store (W8, rd (), rs1 (), simm16))
      else if op = op_branch then
        match cond_of_code (Word.bits ~lo:22 ~width:4 w) with
        | Some c ->
          let brs1 = Reg.of_int (Word.bits ~lo:17 ~width:5 w) in
          let brs2 = Reg.of_int (Word.bits ~lo:12 ~width:5 w) in
          Some (Insn.Branch (c, brs1, brs2, Word.sign_extend ~bits:12 w))
        | None -> None
      else if op = op_jal then Some (Insn.Jal (rd (), Word.sign_extend ~bits:21 w))
      else if op = op_jalr then Some (Insn.Jalr (rd (), rs1 (), simm16))
      else if op = op_halt then Some (Insn.Halt (Word.bits ~lo:0 ~width:26 w))
      else None

let valid_word_fraction ~samples ~seed =
  let rng = Prng.create ~seed in
  let valid = ref 0 in
  for _ = 1 to samples do
    match decode (Prng.next32 rng) with
    | Some _ -> incr valid
    | None -> ()
  done;
  float_of_int !valid /. float_of_int samples
