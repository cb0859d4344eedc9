(** Fleet child mechanics: spawning a real [sofia_cli serve --stdin]
    process on two close-on-exec pipes — its stdin carries the
    router's NDJSON requests, its stdout the responses, and EOF on its
    stdout means it exited — and counting it up once it answers one
    ping on them.

    Nothing here blocks on a child that is up: requests wait in a
    per-child output buffer that the router's select loop drains
    ({!flush}), and reads happen only after [select] said there is
    something to read. Policy (windows, redispatch, breaker,
    quarantine) lives in {!Supervisor}; this module only knows how to
    start, feed, read, reap and kill one child. *)

type proc = {
  shard : int;
  mutable pid : int;  (** [-1] when not running *)
  mutable rfd : Unix.file_descr option;  (** our end of the child's stdout *)
  mutable wfd : Unix.file_descr option;  (** our end of its stdin, nonblocking *)
  out : Buffer.t;  (** request bytes its stdin has not taken yet *)
  lines : Sofia_util.Lines.t;  (** the partial line between reads *)
}

exception Child_failed of string
(** A child exited before answering its ready ping, never answered it
    within {!ready_timeout_s}, or could not be spawned; the message
    names its shard. *)

val ready_timeout_s : float
(** How long a fresh child may take to answer its ready ping: 10 s. *)

val start : cli:string -> args:string list -> shard:int -> proc
(** Spawn [cli args] on the two pipes (stderr inherited) and queue its
    ready ping. The child is not up until {!await_ready} says so.
    @raise Child_failed when the process cannot be spawned. *)

val await_ready : proc list -> unit
(** Wait until every child in the list has answered its ready ping,
    all of them concurrently, for {!ready_timeout_s} at most.
    @raise Child_failed naming the first shard that exited first or
    stayed silent; the caller kills the children. *)

val restart : proc -> cli:string -> args:string list -> unit
(** Kill what is left of the old process, then {!start} a fresh one on
    new pipes and {!await_ready} it.
    @raise Child_failed as those do; the failed child is killed. *)

val send_line : proc -> string -> bool
(** Queue one line and write what the child's stdin takes now; the rest
    waits for {!flush}. [false] = the child's stdin is gone. *)

val flush : proc -> unit
(** Push queued request bytes after [select] reported the child's stdin
    writable. A child whose stdin is gone loses its write end; its
    stdout reaching EOF reports the death. *)

val drain_input : proc -> Bytes.t -> [ `Lines of Sofia_util.Lines.line list | `Eof ]
(** Read what select said is there into the given scratch buffer
    (reused across calls; not retained); complete non-blank lines only
    (a partial line waits in [lines] for the next readable event). A
    line past {!Sofia_util.Lines.max_line} comes back as [Too_long],
    which the supervisor treats like any torn line: as a death. *)

val close_input : proc -> unit
(** Close our end of the child's stdin: it reads EOF, drains and
    exits. Its stdout stays open until it has, so its last answers
    never meet a closed pipe. *)

val close_fds : proc -> unit
(** Close our ends of both pipes. *)

val reap : proc -> timeout_s:float -> bool
(** Wait for the child to exit, [timeout_s] at most; [true] iff it did. *)

val kill : proc -> unit
(** SIGKILL + reap — the supervision move OCaml domains never allowed. *)
