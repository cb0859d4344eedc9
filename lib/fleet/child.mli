(** Fleet child mechanics: spawning a real [sofia_cli serve --socket
    PATH --once] process and talking to it over one persistent
    Unix-socket connection with buffered NDJSON line I/O.

    Policy (windows, redispatch, breaker, quarantine) lives in
    {!Router}; this module only knows how to start, feed, read, reap
    and kill one child. *)

type proc = {
  shard : int;
  socket_path : string;
  mutable pid : int;  (** [-1] when not running *)
  mutable fd : Unix.file_descr option;
  lines : Sofia_util.Lines.t;  (** the partial line between reads *)
}

exception Child_failed of string
(** A child exited before binding its socket, or never bound it within
    the connect timeout. *)

val find_cli : unit -> string option
(** Locate the [sofia_cli] binary: [$SOFIA_CLI], the running executable
    itself (when it {e is} sofia_cli), or the usual spots in the same
    [_build] tree. *)

val spawn : cli:string -> args:string list -> int
(** Fork+exec; stdin/stdout on [/dev/null], stderr inherited. Returns
    the pid. *)

val start :
  cli:string ->
  args:string list ->
  shard:int ->
  socket_path:string ->
  proc
(** {!spawn} then poll-connect to [socket_path] until the child binds
    (10 s at most).
    @raise Child_failed on exit-before-bind or timeout. *)

val restart : proc -> cli:string -> args:string list -> unit
(** Fresh process on the same socket path (the serve side handles the
    stale socket file); resets the line buffer. *)

val send_line : proc -> string -> bool
(** Blocking full write of one line; [false] = connection dead. *)

val drain_input : proc -> Bytes.t -> [ `Lines of string list | `Eof ]
(** Read what select said is there into the given scratch buffer
    (reused across calls; not retained); complete non-blank lines only
    (a partial line waits in [lines] for the next readable event). *)

val alive : int -> bool
val signal : proc -> int -> unit
val close_fd : proc -> unit

val reap : proc -> timeout_s:float -> bool
val kill : proc -> unit
(** SIGKILL + reap — the supervision move OCaml domains never allowed. *)

val stop_gently : proc -> timeout_s:float -> unit
(** Close our end (a [--once] child drains and exits at EOF), escalate
    to {!kill} if it does not exit in time. *)
