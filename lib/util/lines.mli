(** NDJSON framing: split a byte stream that arrives in arbitrary
    chunks into ['\n']-terminated lines, and push buffered output into
    a nonblocking fd without ever waiting on its reader.

    Each {!feed} scans only the bytes it is given and buffers only the
    unterminated tail, so a long line costs time linear in its length
    however it is chunked, and the caller can reuse one read buffer for
    every call. Lines are returned exactly as sent, without the
    newline; blank lines included — what to do with them is the
    caller's choice. *)

type t
(** The unterminated tail carried between reads. *)

val create : unit -> t

val feed : t -> Bytes.t -> int -> string list
(** [feed t chunk n] takes the first [n] bytes of [chunk] and returns
    every line they complete, in order. [chunk] is not retained. *)

val pending : t -> int
(** Bytes of the unterminated tail. *)

val take_rest : t -> string
(** The unterminated tail (possibly [""]), which is then dropped — at
    end of stream, a last line without its newline. *)

val clear : t -> unit
(** Drop the unterminated tail. *)

val flush : Buffer.t -> Unix.file_descr -> bool
(** The write side: write as much of the buffer as [fd] takes now and
    keep the rest, for when [select] reports a nonblocking [fd]
    writable again. [false]: the reader is gone (EPIPE, ECONNRESET,
    EBADF), and the buffer is dropped. *)
