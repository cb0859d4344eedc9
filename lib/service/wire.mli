(** Newline-delimited JSON transport for the engine: pipe mode (stdin →
    stdout, the CI-friendly form) and a Unix-domain socket accept loop.

    One request per input line; responses are streamed back one line
    each, {e in completion order} (the [seq]/[completion] fields let
    the client reorder). A line that fails to parse never crashes the
    server: it is answered immediately with
    [{"id":...,"status":"error","error":...}], counted in
    [service_errors], and reported as a [service_error] obs event —
    the serving layer's no-backtrace guarantee.

    {b Graceful drain.} With [~signals:true] the server installs
    SIGINT/SIGTERM handlers implementing the drain protocol: the first
    signal stops admission (the blocking read/accept is interrupted; a
    signal landing anywhere else only sets a flag the loop checks, so
    no critical section is ever torn), every already-admitted job runs
    to its terminal response, the stats are returned with
    [interrupted = true], and the socket file is removed. A second
    signal exits the process with status 130. Responses are written
    whole-line under a mutex and the process never dies mid-write, so
    no client ever sees a torn NDJSON response.

    {b Client disconnect.} A client that goes away mid-stream
    (EPIPE/ECONNRESET, reaching OCaml as [Sys_error] from the buffered
    flush — ignore SIGPIPE process-wide, as the CLI does) latches a
    per-connection [client_gone] flag: later responses are dropped,
    the jobs still settle, counters stay conserved, and the server
    moves on to the next connection. *)

type stats = {
  received : int;  (** input lines (blank lines skipped) *)
  malformed : int;  (** lines that never became a job *)
  completed : int;
  rejected : int;
  timed_out : int;
  failed : int;
  interrupted : bool;  (** terminated by a drain signal, not EOF *)
}

val ok : stats -> bool
(** No malformed line and no failed/rejected/timed-out job — the
    CLI's exit-code criterion. *)

exception Bind_error of string
(** [serve_socket] refuses to start: the path is a {e live} socket
    (another server answered a probe connect), exists but is not a
    socket, or cannot be bound. The message is the full diagnostic.
    A {e stale} socket (probe refused) is unlinked and rebound
    silently — the crash-recovery path. *)

val prepare_socket_path : string -> unit
(** Make [path] safe to bind: probe-connect an existing socket file and
    unlink it only if the probe is refused (stale leftover of a crash);
    a live server or a non-socket file raises {!Bind_error}. Used by
    {!serve_socket} and by the fleet router's listener. *)

val serve_channels :
  ?obs:Sofia_obs.Obs.t ->
  ?signals:bool ->
  config:Engine.config ->
  in_channel ->
  out_channel ->
  stats * Engine.t
(** Read requests until EOF (or the first drain signal, with
    [~signals:true]), stream responses, then drain and shut the engine
    down. Output writes are serialised across worker domains. The
    (shut-down) engine is returned for its metrics and store
    counters.

    A client that stops reading (its pipe or socket closed) loses only
    its responses: the first failed write stops all writing, the jobs
    still run to their terminal states, and the bytes left in the
    output channel's buffer are dropped by pointing its descriptor at
    [/dev/null], so no later flush — the one at process exit included
    — raises. The stats, and the CLI's exit status derived from them
    ({!ok}), are the same as for a client that read everything. *)

val serve_socket :
  ?obs:Sofia_obs.Obs.t ->
  ?signals:bool ->
  config:Engine.config ->
  path:string ->
  once:bool ->
  unit ->
  stats * Engine.t
(** Bind a Unix-domain socket at [path] (recovering a stale one; see
    {!Bind_error}), accept connections one at a time, and speak the
    same protocol per connection (a fresh engine each). [once] returns
    after the first connection — the testable form; otherwise loops
    until a drain signal ([~signals:true]) and the returned stats are
    those of the last connection. The socket file is always removed on
    the way out.

    @raise Bind_error if the path cannot be taken over safely. *)
