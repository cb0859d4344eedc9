(* One fleet child: a real `sofia_cli serve --socket PATH --once`
   process plus the router's single persistent connection to it. The
   router treats the child as untrusted-but-supervised: everything here
   is mechanics (spawn, connect, buffered line I/O, kill, reap); the
   policy — windows, redispatch, breaker, quarantine — lives in
   Router. *)

type proc = {
  shard : int;
  socket_path : string;
  mutable pid : int;  (* -1 when not running *)
  mutable fd : Unix.file_descr option;
  lines : Sofia_util.Lines.t;  (* partial-line accumulation between selects *)
}

(* Resolve the sofia_cli binary for spawning children. Callers that ARE
   sofia_cli (the `fleet` command) hit the first case; test
   and bench executables live in the same _build tree, so the relative
   candidates cover them. SOFIA_CLI overrides everything. *)
let find_cli () =
  let exe = Sys.executable_name in
  let dir = Filename.dirname exe in
  let candidates =
    (match Sys.getenv_opt "SOFIA_CLI" with Some p -> [ p ] | None -> [])
    @ (if Filename.basename exe = "sofia_cli.exe" then [ exe ] else [])
    @ [
        Filename.concat dir "sofia_cli.exe";
        Filename.concat dir "../bin/sofia_cli.exe";
        Filename.concat dir "../../bin/sofia_cli.exe";
        "_build/default/bin/sofia_cli.exe";
        "../bin/sofia_cli.exe";
      ]
  in
  List.find_opt
    (fun p -> Sys.file_exists p && not (Sys.is_directory p))
    candidates

let devnull_in () = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0
let devnull_out () = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0

(* stdin/stdout are /dev/null (the child serves over its socket; its
   stdout is unused), stderr is inherited so child serve stats and
   crashes stay visible behind the router's own stderr. *)
let spawn ~cli ~args =
  let argv = Array.of_list (cli :: args) in
  let ni = devnull_in () and no = devnull_out () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close ni with Unix.Unix_error _ -> ());
      try Unix.close no with Unix.Unix_error _ -> ())
    (fun () -> Unix.create_process cli argv ni no Unix.stderr)

exception Child_failed of string

let alive pid =
  pid > 0
  &&
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false

(* Connect to the child's socket, polling until it binds. A child that
   exits before binding (bad flag, Bind_error) fails fast instead of
   burning the whole timeout. *)
let connect_with_timeout ~socket_path ~pid ~timeout_s =
  let deadline = Sofia_util.Clock.mono_s () +. timeout_s in
  let rec loop () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if not (alive pid) then
        raise
          (Child_failed
             (Printf.sprintf "shard child (pid %d) exited before binding %s" pid
                socket_path));
      if Sofia_util.Clock.mono_s () > deadline then
        raise
          (Child_failed
             (Printf.sprintf "shard child (pid %d) never bound %s within %.1fs" pid
                socket_path timeout_s));
      Unix.sleepf 0.005;
      loop ()
    | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e
  in
  loop ()

(* how long a freshly spawned child may take to bind its socket *)
let connect_timeout_s = 10.0

let start ~cli ~args ~shard ~socket_path =
  let pid = spawn ~cli ~args in
  let fd = connect_with_timeout ~socket_path ~pid ~timeout_s:connect_timeout_s in
  { shard; socket_path; pid; fd = Some fd; lines = Sofia_util.Lines.create () }

let restart p ~cli ~args =
  Sofia_util.Lines.clear p.lines;
  let pid = spawn ~cli ~args in
  let fd = connect_with_timeout ~socket_path:p.socket_path ~pid ~timeout_s:connect_timeout_s in
  p.pid <- pid;
  p.fd <- Some fd

(* Full blocking write of one NDJSON line; [false] means the connection
   is dead (EPIPE/reset — the caller escalates to death handling). The
   router runs with SIGPIPE ignored. *)
let send_line p line =
  match p.fd with
  | None -> false
  | Some fd -> (
    let data = Bytes.of_string (line ^ "\n") in
    let len = Bytes.length data in
    let rec push off =
      if off >= len then true
      else
        match Unix.write fd data off (len - off) with
        | n -> push (off + n)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> push off
    in
    try push 0
    with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) -> false)

(* After select reported readability: read what is there into the
   caller's [chunk] and return the complete non-blank lines; the partial
   tail waits for the next read. [`Eof] covers both an orderly close and
   a died child (its socket end closes with it). *)
let drain_input p chunk =
  match p.fd with
  | None -> `Eof
  | Some fd -> (
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> `Eof
    | n ->
      `Lines
        (List.filter (fun l -> String.trim l <> "") (Sofia_util.Lines.feed p.lines chunk n))
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Lines []
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _) ->
      `Eof)

let close_fd p =
  match p.fd with
  | Some fd ->
    p.fd <- None;
    (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ()

let signal p s = if p.pid > 0 then try Unix.kill p.pid s with Unix.Unix_error _ -> ()

(* Wait for exit up to [timeout_s]; true iff reaped. *)
let reap p ~timeout_s =
  if p.pid <= 0 then true
  else begin
    let deadline = Sofia_util.Clock.mono_s () +. timeout_s in
    let rec loop () =
      match Unix.waitpid [ Unix.WNOHANG ] p.pid with
      | 0, _ ->
        if Sofia_util.Clock.mono_s () > deadline then false
        else begin
          Unix.sleepf 0.005;
          loop ()
        end
      | _ ->
        p.pid <- -1;
        true
      | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
        p.pid <- -1;
        true
    in
    loop ()
  end

(* Hard stop: SIGKILL and reap. Used for hung children (a whole process
   CAN be killed — the one supervision move the in-process watchdog of
   PR 4 never had for domains) and as the escalation when a graceful
   close is not honoured. *)
let kill p =
  close_fd p;
  signal p Sys.sigkill;
  ignore (reap p ~timeout_s:5.0)

(* Graceful stop: close our end; a `--once` child sees EOF, drains and
   exits on its own. Escalate to SIGKILL if it does not. *)
let stop_gently p ~timeout_s =
  close_fd p;
  if not (reap p ~timeout_s) then kill p
