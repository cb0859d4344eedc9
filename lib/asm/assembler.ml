module Insn = Sofia_isa.Insn
module Reg = Sofia_isa.Reg
module Encoding = Sofia_isa.Encoding

exception Error of { line : int; message : string }

let err line fmt = Printf.ksprintf (fun message -> raise (Error { line; message })) fmt

(* ------------------------------------------------------------------ *)
(* Lexing: each line is scanned in place, by index, into label /        *)
(* mnemonic / operand tokens; only the tokens themselves are copied.   *)
(* ------------------------------------------------------------------ *)

(* [String.trim]'s notion of white space *)
let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012'

let is_ident_char c =
  c = '_' || c = '.' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

let skip_space s a b =
  let a = ref a in
  while !a < b && is_space (String.unsafe_get s !a) do incr a done;
  !a

let skip_space_back s a b =
  let b = ref b in
  while !b > a && is_space (String.unsafe_get s (!b - 1)) do decr b done;
  !b

(* Length of the char literal ['c'] or ['\c'] opening at [i] (a single
   quote), or 1 when none does: a literal is one token, so a comment
   character, comma or double quote inside it neither ends the line
   nor splits an operand. *)
let quote_len s i stop =
  if i + 3 < stop && s.[i + 1] = '\\' && s.[i + 3] = '\'' then 4
  else if i + 2 < stop && s.[i + 2] = '\'' then 3
  else 1

(* End of the code on [start, stop): the first [;] or [#] outside a
   string or char literal. *)
let code_end s start stop =
  let i = ref start and in_string = ref false and cut = ref stop in
  while !i < !cut do
    match String.unsafe_get s !i with
    | '"' ->
      in_string := not !in_string;
      incr i
    | '\'' when not !in_string -> i := !i + quote_len s !i stop
    | (';' | '#') when not !in_string -> cut := !i
    | _ -> incr i
  done;
  !cut

(* The operands on [start, stop): split on commas outside strings and
   char literals, each trimmed, empty ones dropped, and made by
   [make s a b] from its range. *)
let split_operands s start stop make =
  let acc = ref [] and from = ref start and i = ref start and in_string = ref false in
  let token a b =
    let a = skip_space s a b in
    let b = skip_space_back s a b in
    if a < b then acc := make s a b :: !acc
  in
  while !i < stop do
    match String.unsafe_get s !i with
    | '"' ->
      in_string := not !in_string;
      incr i
    | '\'' when not !in_string -> i := !i + quote_len s !i stop
    | ',' when not !in_string ->
      token !from !i;
      incr i;
      from := !i
    | _ -> incr i
  done;
  token !from stop;
  List.rev !acc

let token s a b = String.sub s a (b - a)

let digit_value = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
  | _ -> 16

(* A plain decimal or hexadecimal literal on [a, b), read in place;
   [None] for every other form, which {!parse_int_literal} reads from a
   copy. The digit limits keep the value clear of [int_of_string]'s
   overflow rules, so the two readings always agree. *)
let literal_at s a b =
  let neg = s.[a] = '-' in
  let a = if neg || s.[a] = '+' then a + 1 else a in
  let hex = b - a > 2 && s.[a] = '0' && (s.[a + 1] = 'x' || s.[a + 1] = 'X') in
  let base, a, max_digits = if hex then (16, a + 2, 15) else (10, a, 18) in
  if a >= b || b - a > max_digits then None
  else begin
    let v = ref 0 and ok = ref true in
    for i = a to b - 1 do
      let d = digit_value (String.unsafe_get s i) in
      if d >= base then ok := false else v := (!v * base) + d
    done;
    if !ok then Some (if neg then - !v else !v) else None
  end

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

type operand = string

(* A [.word] or [.byte] value. [Lit (v, pos, len)] was read in place
   from [src] at [pos, pos+len), which is kept for the rare digit-named
   label the same text could also denote. *)
type datum = Lit of int * int * int | Expr of operand

type stmt =
  | Label of string
  | Directive of string * operand list
  | Values of string * datum list  (** [.word] and [.byte] *)
  | Mnemonic of string * operand list

let datum s a b =
  match literal_at s a b with Some v -> Lit (v, a, b - a) | None -> Expr (token s a b)

type line_stmts = { line : int; stmts : stmt list }

(* End of the head word at [a]: the first space or tab. *)
let head_end s a stop =
  let h = ref a in
  while !h < stop && match String.unsafe_get s !h with ' ' | '\t' -> false | _ -> true do
    incr h
  done;
  !h

(* Source line [lineno], which occupies [start, stop) of [src]. *)
let parse_line src lineno start stop =
  (* leading labels: [ident:], possibly several *)
  let rec labels a acc =
    let a = skip_space src a stop in
    let j = ref a in
    while !j < stop && is_ident_char (String.unsafe_get src !j) do incr j done;
    if !j > a && !j < stop && String.unsafe_get src !j = ':' then
      labels (!j + 1) (Label (String.sub src a (!j - a)) :: acc)
    else (a, acc)
  in
  (* a label holds no quote, [;] or [#], so the comment may be cut after them *)
  let a, stmts = labels start [] in
  let stop = code_end src a stop in
  let h = head_end src a stop in
  let hb = skip_space_back src a h in
  let stmts =
    if hb <= a then stmts
    else
      let operands make = split_operands src h stop make in
      match token src a hb with
      | (".word" | ".byte") as head -> Values (head, operands datum) :: stmts
      | head when head.[0] = '.' -> Directive (head, operands token) :: stmts
      | head -> Mnemonic (String.lowercase_ascii head, operands token) :: stmts
  in
  { line = lineno; stmts = List.rev stmts }

let parse_lines src =
  let n = String.length src in
  let rec go start lineno acc =
    let stop = match String.index_from_opt src start '\n' with Some i -> i | None -> n in
    let acc = parse_line src lineno start stop :: acc in
    if stop >= n then List.rev acc else go (stop + 1) (lineno + 1) acc
  in
  go 0 1 []

(* ------------------------------------------------------------------ *)
(* Operand parsing                                                     *)
(* ------------------------------------------------------------------ *)

let parse_reg line s =
  match Reg.of_name s with
  | Some r -> r
  | None -> err line "expected register, got %S" s

let trim = String.trim

(* An integer literal starts with a digit or a sign ([int_of_string]'s
   own rule), so symbols and registers are turned away without the
   cost of a failed conversion. *)
let parse_int_literal s =
  let s = trim s in
  if s = "" then None
  else if String.length s >= 3 && s.[0] = '\'' && s.[String.length s - 1] = '\'' then
    if String.length s = 3 then Some (Char.code s.[1])
    else if s = "'\\n'" then Some 10
    else if s = "'\\t'" then Some 9
    else if s = "'\\0'" then Some 0
    else if s = "'\\''" then Some 39
    else None
  else
    match s.[0] with
    | '0' .. '9' | '-' | '+' -> int_of_string_opt s
    | _ -> None

(* A value operand: integer literal, or symbol (resolved via [lookup]),
   optionally with a trailing [+n] / [-n]. *)
let parse_value line lookup s =
  match parse_int_literal s with
  | Some v -> v
  | None ->
    let sym, off =
      (* find a +/- that is not the leading sign *)
      let idx = ref None in
      String.iteri (fun i c -> if i > 0 && (c = '+' || c = '-') && !idx = None then idx := Some i) s;
      match !idx with
      | Some i ->
        let off_str = String.sub s i (String.length s - i) in
        (match int_of_string_opt off_str with
         | Some off -> (trim (String.sub s 0 i), off)
         | None -> (s, 0))
      | None -> (s, 0)
    in
    (match lookup sym with
     | Some v -> v + off
     | None -> err line "undefined symbol %S" sym)

(* [off(base)] memory operand. *)
let parse_mem line lookup s =
  match String.index_opt s '(' with
  | None -> err line "expected off(base) operand, got %S" s
  | Some i ->
    if s.[String.length s - 1] <> ')' then err line "expected off(base) operand, got %S" s;
    let off_str = trim (String.sub s 0 i) in
    let base_str = trim (String.sub s (i + 1) (String.length s - i - 2)) in
    let off = if off_str = "" then 0 else parse_value line lookup off_str in
    (off, parse_reg line base_str)

(* ------------------------------------------------------------------ *)
(* Mnemonic tables                                                     *)
(* ------------------------------------------------------------------ *)

let alu_r_op : string -> Insn.alu_op option = function
  | "add" -> Some Add | "sub" -> Some Sub | "and" -> Some And | "or" -> Some Or
  | "xor" -> Some Xor | "sll" -> Some Sll | "srl" -> Some Srl | "sra" -> Some Sra
  | "mul" -> Some Mul | "div" -> Some Div | "rem" -> Some Rem | "slt" -> Some Slt
  | "sltu" -> Some Sltu
  | _ -> None

let alu_i_op : string -> Insn.alu_op option = function
  | "addi" -> Some Add | "andi" -> Some And | "ori" -> Some Or | "xori" -> Some Xor
  | "slli" -> Some Sll | "srli" -> Some Srl | "srai" -> Some Sra | "slti" -> Some Slt
  | "sltiu" -> Some Sltu
  | _ -> None

let branch_op : string -> Insn.cond option = function
  | "beq" -> Some Eq | "bne" -> Some Ne | "blt" -> Some Lt | "bge" -> Some Ge
  | "bltu" -> Some Ltu | "bgeu" -> Some Geu | "bgt" -> Some Gt | "ble" -> Some Le
  | "bgtu" -> Some Gtu | "bleu" -> Some Leu
  | _ -> None

(* Number of words a mnemonic expands to; needed by pass 1. [li] with a
   literal that fits signed-16 is one word, all other [li]/[la] are two
   words, everything else is one. *)
let expansion_size mnemonic args =
  match (mnemonic, args) with
  | "li", [ _; v ] ->
    (match parse_int_literal v with
     | Some x when Encoding.imm16_signed_fits x -> 1
     | Some _ | None -> 2)
  | "la", _ -> 2
  | _ -> 1

(* ------------------------------------------------------------------ *)
(* Pass 1: layout                                                      *)
(* ------------------------------------------------------------------ *)

type section = Text | Data

let align_up x a = (x + a - 1) / a * a

let value_width d = if d = ".word" then 4 else 1

let data_size_of_directive line d args =
  match d with
  | ".space" ->
    (match args with
     | [ n ] ->
       (match parse_int_literal n with
        | Some v when v >= 0 -> (1, v)
        | Some _ | None -> err line ".space expects a non-negative literal")
     | _ -> err line ".space expects one operand")
  | ".ascii" | ".asciz" ->
    (match args with
     | [ s ] when String.length s >= 2 && s.[0] = '"' && s.[String.length s - 1] = '"' ->
       let body = String.sub s 1 (String.length s - 2) in
       (1, String.length body + if d = ".asciz" then 1 else 0)
     | _ -> err line "%s expects a quoted string" d)
  | _ -> err line "directive %s not allowed here" d

(* ------------------------------------------------------------------ *)
(* Assembly                                                            *)
(* ------------------------------------------------------------------ *)

let assemble ?(text_base = Program.default_text_base) ?(data_base = Program.default_data_base)
    src =
  let parsed = parse_lines src in

  (* -------- pass 1: compute symbol table -------- *)
  let symbols : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let equs : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let text_words = ref 0 in
  let data_off = ref 0 in
  let section = ref Text in
  let digit_labels = ref false in
  List.iter
    (fun { line; stmts } ->
      List.iter
        (fun stmt ->
          match stmt with
          | Label name ->
            if Hashtbl.mem symbols name || Hashtbl.mem equs name then
              err line "duplicate label %S" name;
            if name.[0] >= '0' && name.[0] <= '9' then digit_labels := true;
            let addr =
              match !section with
              | Text -> text_base + (4 * !text_words)
              | Data -> data_base + !data_off
            in
            Hashtbl.replace symbols name addr
          | Directive (".text", _) -> section := Text
          | Directive (".data", _) -> section := Data
          | Directive (".equ", args) ->
            (match args with
             | [ name; v ] ->
               (match parse_int_literal v with
                | Some value ->
                  if Hashtbl.mem symbols name || Hashtbl.mem equs name then
                    err line "duplicate symbol %S" name;
                  Hashtbl.replace equs name value
                | None -> err line ".equ expects a literal value")
             | _ -> err line ".equ expects: name, value")
          | Directive (".targets", _) | Directive (".global", _) -> ()
          | Directive (".align", args) ->
            (match (args, !section) with
             | [ n ], Data ->
               (match parse_int_literal n with
                | Some a when a > 0 -> data_off := align_up !data_off a
                | Some _ | None -> err line ".align expects a positive literal")
             | [ n ], Text ->
               (match parse_int_literal n with
                | Some a when a > 0 && a mod 4 = 0 ->
                  text_words := align_up (4 * !text_words) a / 4
                | Some _ | None -> err line ".align in .text expects a multiple of 4")
             | _, _ -> err line ".align expects one operand")
          | Directive (d, args) ->
            (match !section with
             | Data ->
               let align, size = data_size_of_directive line d args in
               data_off := align_up !data_off align + size
             | Text -> err line "directive %s not allowed in .text" d)
          | Values (d, items) ->
            (match !section with
             | Data ->
               let w = value_width d in
               data_off := align_up !data_off w + (w * List.length items)
             | Text -> err line "directive %s not allowed in .text" d)
          | Mnemonic (m, args) ->
            (match !section with
             | Text -> text_words := !text_words + expansion_size m args
             | Data -> err line "instruction in .data section"))
        stmts)
    parsed;

  let lookup name =
    match Hashtbl.find_opt symbols name with
    | Some v -> Some v
    | None -> Hashtbl.find_opt equs name
  in
  let text_end = text_base + (4 * !text_words) in
  let is_text_symbol name =
    match Hashtbl.find_opt symbols name with
    | Some a -> a >= text_base && a < text_end
    | None -> false
  in

  (* -------- pass 2: emit -------- *)
  let text = ref [] in
  let ntext = ref 0 in
  let current_line = ref 0 in
  (* validate encodability here so range problems carry a source line *)
  let emit insn =
    (match Encoding.encode insn with
     | (_ : int) -> ()
     | exception Encoding.Encode_error message -> err !current_line "%s" message);
    text := insn :: !text;
    incr ntext
  in
  (* pass 1 sized the data section exactly; padding is the zero fill *)
  let data = Bytes.make !data_off '\000' in
  let data_len = ref 0 in
  let pad_data_to off = if off > !data_len then data_len := off in
  let indirect_targets = ref [] in
  let pending_targets = ref None in
  let la_relocs = ref [] in
  let data_word_relocs = ref [] in
  let section = ref Text in

  (* Must mirror [expansion_size] exactly: a literal that fits
     signed-16 is one [addi]; anything else (big literal or symbol,
     whatever its resolved value) is the two-word [lui]+[ori] form. *)
  let emit_li rd raw v =
    let one_word =
      match parse_int_literal raw with
      | Some x -> Encoding.imm16_signed_fits x
      | None -> false
    in
    let v32 = v land 0xFFFF_FFFF in
    if one_word then emit (Insn.Alu_i (Add, rd, Reg.zero, v))
    else begin
      emit (Insn.Lui (rd, (v32 lsr 16) land 0xFFFF));
      emit (Insn.Alu_i (Or, rd, rd, v32 land 0xFFFF))
    end
  in

  let branch_target line cur_addr s =
    match parse_int_literal s with
    | Some woff -> woff
    | None ->
      let target = parse_value line lookup s in
      if (target - cur_addr) mod 4 <> 0 then err line "branch target %S not word-aligned" s;
      (target - cur_addr) / 4
  in

  let emit_insn line m args =
    current_line := line;
    let cur_addr = text_base + (4 * !ntext) in
    (match !pending_targets with
     | Some ts ->
       indirect_targets := (cur_addr, ts) :: !indirect_targets;
       pending_targets := None
     | None -> ());
    match (m, args) with
    | "nop", [] -> emit Insn.nop
    | ("li" | "la"), [ rd; v ] ->
      let rd = parse_reg line rd in
      if m = "la" then begin
        let addr = parse_value line lookup v in
        if is_text_symbol v then
          la_relocs :=
            { Program.hi_index = !ntext; lo_index = !ntext + 1; la_symbol = v } :: !la_relocs;
        emit (Insn.Lui (rd, (addr lsr 16) land 0xFFFF));
        emit (Insn.Alu_i (Or, rd, rd, addr land 0xFFFF))
      end
      else begin
        if parse_int_literal v = None && is_text_symbol v then
          err line "li of code address %S: use la so the SOFIA transformation can relocate it" v;
        emit_li rd v (parse_value line lookup v)
      end
    | "mv", [ rd; rs ] -> emit (Insn.Alu_i (Add, parse_reg line rd, parse_reg line rs, 0))
    | "neg", [ rd; rs ] -> emit (Insn.Alu_r (Sub, parse_reg line rd, Reg.zero, parse_reg line rs))
    | "subi", [ rd; rs; imm ] ->
      emit (Insn.Alu_i (Add, parse_reg line rd, parse_reg line rs, -parse_value line lookup imm))
    | "lui", [ rd; imm ] -> emit (Insn.Lui (parse_reg line rd, parse_value line lookup imm))
    | "ld", [ rd; mem ] ->
      let off, base = parse_mem line lookup mem in
      emit (Insn.Load (W32, parse_reg line rd, base, off))
    | "ldb", [ rd; mem ] ->
      let off, base = parse_mem line lookup mem in
      emit (Insn.Load (W8, parse_reg line rd, base, off))
    | "st", [ rs; mem ] ->
      let off, base = parse_mem line lookup mem in
      emit (Insn.Store (W32, parse_reg line rs, base, off))
    | "stb", [ rs; mem ] ->
      let off, base = parse_mem line lookup mem in
      emit (Insn.Store (W8, parse_reg line rs, base, off))
    | "beqz", [ rs; t ] ->
      emit (Insn.Branch (Eq, parse_reg line rs, Reg.zero, branch_target line cur_addr t))
    | "bnez", [ rs; t ] ->
      emit (Insn.Branch (Ne, parse_reg line rs, Reg.zero, branch_target line cur_addr t))
    | "j", [ t ] -> emit (Insn.Jal (Reg.zero, branch_target line cur_addr t))
    | "jal", [ t ] -> emit (Insn.Jal (Reg.ra, branch_target line cur_addr t))
    | "jal", [ rd; t ] -> emit (Insn.Jal (parse_reg line rd, branch_target line cur_addr t))
    | "call", [ t ] -> emit (Insn.Jal (Reg.ra, branch_target line cur_addr t))
    | "jalr", [ rs ] -> emit (Insn.Jalr (Reg.ra, parse_reg line rs, 0))
    | "jalr", [ rd; rs; imm ] ->
      emit (Insn.Jalr (parse_reg line rd, parse_reg line rs, parse_value line lookup imm))
    | "ret", [] -> emit (Insn.Jalr (Reg.zero, Reg.ra, 0))
    | "halt", [] -> emit (Insn.Halt 0)
    | "halt", [ c ] -> emit (Insn.Halt (parse_value line lookup c))
    | _, _ ->
      (match alu_r_op m with
       | Some op ->
         (match args with
          | [ rd; rs1; rs2 ] ->
            emit (Insn.Alu_r (op, parse_reg line rd, parse_reg line rs1, parse_reg line rs2))
          | _ -> err line "%s expects rd, rs1, rs2" m)
       | None ->
         (match alu_i_op m with
          | Some op ->
            (match args with
             | [ rd; rs1; imm ] ->
               emit
                 (Insn.Alu_i (op, parse_reg line rd, parse_reg line rs1, parse_value line lookup imm))
             | _ -> err line "%s expects rd, rs1, imm" m)
          | None ->
            (match branch_op m with
             | Some c ->
               (match args with
                | [ rs1; rs2; t ] ->
                  emit
                    (Insn.Branch
                       (c, parse_reg line rs1, parse_reg line rs2, branch_target line cur_addr t))
                | _ -> err line "%s expects rs1, rs2, target" m)
             | None -> err line "unknown mnemonic %S" m)))
  in

  (* A [.word] naming a text symbol is a code pointer the transformation
     relocates; a literal can name one only if some label is all digits. *)
  let emit_values line d items =
    let word = d = ".word" in
    pad_data_to (align_up !data_len (value_width d));
    List.iter
      (fun item ->
        let v =
          match item with
          | Lit (v, pos, len) ->
            if word && !digit_labels then begin
              let a = String.sub src pos len in
              if is_text_symbol a then data_word_relocs := (!data_len, a) :: !data_word_relocs
            end;
            v
          | Expr a ->
            if word && is_text_symbol a then
              data_word_relocs := (!data_len, a) :: !data_word_relocs;
            parse_value line lookup a
        in
        if word then Bytes.set_int32_le data !data_len (Int32.of_int v)
        else Bytes.set_uint8 data !data_len (v land 0xFF);
        data_len := !data_len + value_width d)
      items
  in

  let emit_data line d args =
    match d with
    | ".space" ->
      (match args with
       | [ n ] ->
         (match parse_int_literal n with
          | Some v -> pad_data_to (!data_len + v)
          | None -> err line ".space expects a literal")
       | _ -> err line ".space expects one operand")
    | ".ascii" | ".asciz" ->
      (match args with
       | [ s ] ->
         let len = String.length s - 2 in
         Bytes.blit_string s 1 data !data_len len;
         data_len := !data_len + len + if d = ".asciz" then 1 else 0
       | _ -> err line "%s expects a string" d)
    | _ -> err line "directive %s not allowed here" d
  in

  List.iter
    (fun { line; stmts } ->
      List.iter
        (fun stmt ->
          match stmt with
          | Label _ -> ()
          | Directive (".text", _) -> section := Text
          | Directive (".data", _) -> section := Data
          | Directive (".equ", _) | Directive (".global", _) -> ()
          | Directive (".targets", args) ->
            let ts = List.map (fun a -> parse_value line lookup a) args in
            pending_targets := Some ts
          | Directive (".align", args) ->
            (match (args, !section) with
             | [ n ], Data ->
               (match parse_int_literal n with
                | Some a -> pad_data_to (align_up !data_len a)
                | None -> err line ".align expects a literal")
             | [ n ], Text ->
               (match parse_int_literal n with
                | Some a ->
                  let target = align_up (4 * !ntext) a / 4 in
                  while !ntext < target do emit Insn.nop done
                | None -> err line ".align expects a literal")
             | _, _ -> err line ".align expects one operand")
          | Directive (d, args) ->
            (match !section with
             | Data -> emit_data line d args
             | Text -> err line "directive %s not allowed in .text" d)
          | Values (d, items) ->
            (match !section with
             | Data -> emit_values line d items
             | Text -> err line "directive %s not allowed in .text" d)
          | Mnemonic (m, args) ->
            (match !section with
             | Text -> emit_insn line m args
             | Data -> err line "instruction in .data section"))
        stmts)
    parsed;

  let text_arr = Array.of_list (List.rev !text) in
  let entry =
    match Hashtbl.find_opt symbols "start" with Some a -> a | None -> text_base
  in
  {
    Program.text = text_arr;
    text_base;
    data;
    data_base;
    entry;
    symbols = Hashtbl.fold (fun k v acc -> (k, v) :: acc) symbols [];
    indirect_targets = !indirect_targets;
    la_relocs = !la_relocs;
    data_word_relocs = !data_word_relocs;
  }
