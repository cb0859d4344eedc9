(** Two-pass assembler for SLEON-32.

    Mirrors the paper's toolchain position: "the source code is
    compiled into assembly instructions" and the SOFIA transformation
    then operates on that assembly (§III). This assembler turns the
    textual form into a {!Program.t}; the transformation library
    consumes the result.

    Syntax (one statement per line; [;] or [#] starts a comment):

    {v
    start:                        ; labels
      li   a0, 0x12345678        ; pseudo: addi / lui+ori
      la   a1, table             ; pseudo: lui+ori of a symbol
      add  a0, a0, a1
      ld   t0, 4(a1)             ; loads/stores: off(base)
      st   t0, 0(sp)
      beq  t0, zero, done        ; branches take labels (or literal
      call f                     ;   word offsets)
      jalr t1                    ; indirect call through t1
      halt
    .targets f, g                ; CFG annotation: next instruction is
      jalr t2                    ;   an indirect jump to f or g
    .data
    table: .word 1, 2, 3, sym    ; symbols allowed as word values
    buf:   .space 64
    msg:   .asciz "hello"
    .equ   LIMIT, 100            ; assembly-time constants
    v}

    Pseudo-instructions: [nop], [li], [la], [mv], [neg], [subi],
    [beqz], [bnez], [j], [jal lbl], [call], [jalr rs], [ret],
    [halt \[code\]].

    Directives: [.text], [.data], [.word], [.byte], [.space],
    [.ascii], [.asciz], [.align], [.equ], [.targets]. *)

exception Error of { line : int; message : string }
(** Raised on any lexical, syntactic or resolution error, with the
    1-based source line. *)

val assemble : ?text_base:int -> ?data_base:int -> string -> Program.t
(** [assemble src] assembles a full source string. The entry point is
    the [start] label when defined, else the first text address.
    @raise Error on malformed input. *)
