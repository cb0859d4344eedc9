(** NDJSON framing: split a byte stream that arrives in arbitrary
    chunks into ['\n']-terminated lines of at most {!max_line} bytes,
    and push buffered output into a nonblocking fd without ever waiting
    on its reader.

    Each {!feed} scans only the bytes it is given and buffers only the
    unterminated tail, so a long line costs time linear in its length
    however it is chunked, and the caller can reuse one read buffer for
    every call. Lines are returned exactly as sent, without the
    newline; blank lines included — what to do with them is the
    caller's choice. A line longer than {!max_line} is never held
    whole: once its tail passes the cap, the tail is dropped and the
    rest of the line is skipped up to its newline, so {!pending} never
    exceeds the cap. *)

type line =
  | Line of string
  | Too_long  (** a line of more than {!max_line} bytes, which was dropped *)

type t
(** The unterminated tail carried between reads. *)

val max_line : int
(** The longest line kept, newline excluded: 1 MiB. The longest request
    line of the benchmark corpus is about 18.4 KB. The longest line an
    honest fleet child writes is an answer with all 65,536 recorded
    outputs, about 721 KB: the router renames every job on the child
    hop, and the engine clips a failure's text to 1 KiB, so no request
    makes a child's answer longer. *)

val create : unit -> t

val feed : t -> Bytes.t -> int -> line list
(** [feed t chunk n] takes the first [n] bytes of [chunk] and returns
    every line they complete, in order. [chunk] is not retained. *)

val pending : t -> int
(** Bytes of the unterminated tail (0 while an over-long line is being
    skipped). *)

val take_rest : t -> line option
(** The unterminated tail, which is then dropped — at end of stream, a
    last line without its newline; [None] when nothing is pending. *)

val clear : t -> unit
(** Drop the unterminated tail. *)

val flush : Buffer.t -> Unix.file_descr -> bool
(** The write side: write as much of the buffer as [fd] takes now and
    keep the rest, for when [select] reports a nonblocking [fd]
    writable again. [false]: the reader is gone (EPIPE, ECONNRESET,
    EBADF), and the buffer is dropped. *)
