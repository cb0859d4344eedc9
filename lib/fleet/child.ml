(* One fleet child: a real `sofia_cli serve --stdin` process on two
   close-on-exec pipes. Its stdin and stdout are one private, ordered
   stream each way, and its stdout reaches EOF when it dies, which is
   all the router needs of a transport. The router treats the child as
   untrusted-but-supervised: everything here is mechanics (spawn, the
   ready ping, buffered nonblocking line I/O, kill, reap); the policy —
   windows, redispatch, breaker, quarantine — lives in Supervisor. *)

module Lines = Sofia_util.Lines
module Clock = Sofia_util.Clock

type proc = {
  shard : int;
  mutable pid : int;  (* -1 when not running *)
  mutable rfd : Unix.file_descr option;  (* our end of its stdout *)
  mutable wfd : Unix.file_descr option;  (* our end of its stdin, nonblocking *)
  out : Buffer.t;  (* request bytes its stdin has not taken yet *)
  lines : Lines.t;  (* partial-line accumulation between selects *)
}

exception Child_failed of string

let ready_timeout_s = 10.0

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let close_input p =
  Option.iter close_quietly p.wfd;
  p.wfd <- None;
  Buffer.clear p.out

let close_fds p =
  close_input p;
  Option.iter close_quietly p.rfd;
  p.rfd <- None;
  Lines.clear p.lines

let flush p =
  match p.wfd with
  | Some fd when Buffer.length p.out > 0 && not (Lines.flush p.out fd) ->
    close_quietly fd;
    p.wfd <- None
  | _ -> ()

let send_line p line =
  Buffer.add_string p.out line;
  Buffer.add_char p.out '\n';
  flush p;
  p.wfd <> None

(* Both pipes are close-on-exec, so a child holds only its own stdin
   and stdout (dup'd onto 0 and 1) and the inherited stderr — never a
   sibling's pipe, whose EOF would then never come. stderr stays
   shared so child stats and crashes show behind the router's own. The
   ready ping is queued at once; [await_ready] reads its answer. *)
let spawn p ~cli ~args =
  let child_in, wfd = Unix.pipe ~cloexec:true () in
  let rfd, child_out = Unix.pipe ~cloexec:true () in
  match Unix.create_process cli (Array.of_list (cli :: args)) child_in child_out Unix.stderr with
  | pid ->
    close_quietly child_in;
    close_quietly child_out;
    Unix.set_nonblock wfd;
    p.pid <- pid;
    p.rfd <- Some rfd;
    p.wfd <- Some wfd;
    ignore (send_line p "{\"id\":\"ready\",\"op\":\"ping\"}")
  | exception Unix.Unix_error (e, _, _) ->
    List.iter close_quietly [ child_in; wfd; rfd; child_out ];
    raise
      (Child_failed
         (Printf.sprintf "shard child %d: cannot spawn %s: %s" p.shard cli
            (Unix.error_message e)))

let start ~cli ~args ~shard =
  let p =
    { shard; pid = -1; rfd = None; wfd = None; out = Buffer.create 4096; lines = Lines.create () }
  in
  spawn p ~cli ~args;
  p

(* After select reported readability: read what is there into the
   caller's [chunk] and return the complete non-blank lines; the partial
   tail waits for the next read. [`Eof] is the child's exit. *)
let drain_input p chunk =
  let non_blank = function Lines.Line l -> String.trim l <> "" | Lines.Too_long -> true in
  match p.rfd with
  | None -> `Eof
  | Some fd -> (
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> `Eof
    | n -> `Lines (List.filter non_blank (Lines.feed p.lines chunk n))
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Lines []
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _) -> `Eof)

(* Every fresh child's first line answers its ready ping, which a fresh
   pipe took whole at spawn. All of [ps] start up concurrently; the wait
   ends at the first one that exits or at the shared deadline. *)
let await_ready ps =
  let deadline = Clock.mono_s () +. ready_timeout_s in
  let chunk = Bytes.create 4096 in
  let failed p what =
    raise (Child_failed (Printf.sprintf "shard child %d (pid %d) %s" p.shard p.pid what))
  in
  let rec wait = function
    | [] -> ()
    | pending ->
      let left = deadline -. Clock.mono_s () in
      if left <= 0.0 then
        failed (List.hd pending)
          (Printf.sprintf "did not answer within %.0fs" ready_timeout_s);
      let rfds = List.filter_map (fun p -> p.rfd) pending in
      let readable, _, _ =
        try Unix.select rfds [] [] left with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      wait
        (List.filter
           (fun p ->
             match p.rfd with
             | Some fd when List.memq fd readable -> (
               match drain_input p chunk with
               | `Eof -> failed p "exited before answering"
               | `Lines [] -> true
               | `Lines _ -> false)
             | _ -> true)
           pending)
  in
  wait ps

(* Wait for exit up to [timeout_s]; true iff reaped. *)
let reap p ~timeout_s =
  if p.pid <= 0 then true
  else begin
    let deadline = Clock.mono_s () +. timeout_s in
    let rec loop () =
      match Unix.waitpid [ Unix.WNOHANG ] p.pid with
      | 0, _ ->
        if Clock.mono_s () > deadline then false
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
   CAN be killed, which an in-process watchdog never could do to a
   domain; SIGKILL ends a stopped process too) and as the escalation
   when a graceful close is not honoured. *)
let kill p =
  close_fds p;
  (if p.pid > 0 then try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (reap p ~timeout_s:5.0)

let restart p ~cli ~args =
  kill p;
  spawn p ~cli ~args;
  try await_ready [ p ]
  with e ->
    kill p;
    raise e
