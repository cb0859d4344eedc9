module J = Sofia_obs.Json
module Obs = Sofia_obs.Obs
module Event = Sofia_obs.Event

type stats = {
  received : int;
  malformed : int;
  completed : int;
  rejected : int;
  timed_out : int;
  failed : int;
  interrupted : bool;
}

let ok s = s.malformed = 0 && s.rejected = 0 && s.timed_out = 0 && s.failed = 0

exception Bind_error of string

(* id of an unparseable request, when the line is at least JSON *)
let salvage_id line =
  match J.parse_opt line with
  | Some j -> (match J.member "id" j with Some (J.Str id) -> Some id | _ -> None)
  | None -> None

(* ------------------------------------------------------------------ *)
(* Signal-driven graceful drain                                        *)
(*                                                                     *)
(* The first SIGINT/SIGTERM must stop admission but complete every     *)
(* in-flight job — no client may see a torn NDJSON response. An OCaml  *)
(* signal handler runs at an arbitrary poll point of the main domain,  *)
(* so raising from it unconditionally could leak out of a critical     *)
(* section (e.g. mid-submit, leaving seq allocated but the job never   *)
(* queued — drain would wedge). The handler therefore only raises      *)
(* while the main loop is parked in a known blocking call (input_line, *)
(* accept), marked by [in_block]; anywhere else it just sets the flag, *)
(* which the loop checks at its head. The second signal exits 130.     *)
(* ------------------------------------------------------------------ *)

exception Interrupted

type intr = { flag : bool ref; in_block : bool ref }

let no_intr () = { flag = ref false; in_block = ref false }

let install_handlers intr =
  let handler _ =
    if !(intr.flag) then Stdlib.exit 130
    else begin
      intr.flag := true;
      if !(intr.in_block) then raise Interrupted
    end
  in
  List.map
    (fun s -> (s, Sys.signal s (Sys.Signal_handle handler)))
    [ Sys.sigint; Sys.sigterm ]

let restore_handlers saved = List.iter (fun (s, b) -> Sys.set_signal s b) saved

(* Run a blocking call under the interruption protocol: [None] means
   "a signal asked us to drain". Exceptions other than [Interrupted]
   propagate. *)
let blocking intr f =
  if !(intr.flag) then None
  else begin
    intr.in_block := true;
    match Fun.protect ~finally:(fun () -> intr.in_block := false) f with
    | v -> Some v
    | exception Interrupted -> None
  end

let with_signals ~signals intr f =
  if not signals then f ()
  else begin
    let saved = install_handlers intr in
    Fun.protect ~finally:(fun () -> restore_handlers saved) f
  end

(* A gone client's unwritten bytes stay in [oc]'s buffer, and any later
   flush — the one at process exit included — raises on them. Point the
   channel's descriptor at /dev/null and flush them away: the client can
   never read them. *)
let drop_pending oc =
  match Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 with
  | null ->
    (try Unix.dup2 ~cloexec:false null (Unix.descr_of_out_channel oc)
     with Unix.Unix_error _ | Sys_error _ -> ());
    Unix.close null;
    (try flush oc with Sys_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let serve_channels_intr ?(obs = Obs.none) ~(intr : intr) ~config ic oc =
  (* Workers stream responses and the reader loop answers malformed
     lines; one mutex serialises the interleaved writes. A client that
     disconnects mid-stream (EPIPE/closed fd, surfacing as Sys_error
     from the buffered flush) must not crash the server or poison the
     engine: the first failed write latches [client_gone] and every
     later response is dropped on the floor while the jobs still run to
     their terminal state — the counters stay conserved. After the
     drain the bytes the failed write left buffered are dropped too
     ([drop_pending]), so the server's exit is the same as after a
     client that read everything. *)
  let out_m = Mutex.create () in
  let client_gone = ref false in
  let write_line line =
    Mutex.lock out_m;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock out_m)
      (fun () ->
        if not !client_gone then
          try
            output_string oc line;
            output_char oc '\n';
            flush oc
          with
          | Sys_error _ -> client_gone := true
          | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
            client_gone := true)
  in
  let engine =
    Engine.create ~obs ~on_response:(fun r -> write_line (Job.response_to_line r)) config
  in
  Engine.start engine;
  let received = ref 0 and malformed = ref 0 in
  let handle line =
    if String.trim line <> "" then begin
      incr received;
      match Job.request_of_line ~default_backend:config.Engine.backend line with
      | Ok req -> Engine.submit engine req
      | Error msg ->
        incr malformed;
        let m = Engine.metrics engine in
        m.Svc_metrics.service_errors <- m.Svc_metrics.service_errors + 1;
        if Obs.tracing obs then
          Obs.emit obs (Event.Service_error { kind = "bad_request"; detail = msg });
        write_line (Job.error_line ~id:(salvage_id line) msg)
    end
  in
  let rec read_loop () =
    match blocking intr (fun () -> input_line ic) with
    | None -> () (* draining on signal *)
    | Some line ->
      handle line;
      read_loop ()
    | exception End_of_file -> ()
    | exception Sys_error _ -> () (* input side torn down: drain what we have *)
    | exception Interrupted -> () (* stray late raise outside [blocking] *)
  in
  read_loop ();
  ignore (Engine.drain engine);
  Engine.shutdown engine;
  if !client_gone then drop_pending oc;
  let m = Engine.metrics engine in
  ( {
      received = !received;
      malformed = !malformed;
      completed = m.Svc_metrics.completed;
      rejected = m.Svc_metrics.rejected;
      timed_out = m.Svc_metrics.timed_out;
      failed = m.Svc_metrics.failed;
      interrupted = !(intr.flag);
    },
    engine )

let serve_channels ?obs ?(signals = false) ~config ic oc =
  let intr = no_intr () in
  with_signals ~signals intr (fun () -> serve_channels_intr ?obs ~intr ~config ic oc)

(* A stale socket file (left by a crashed server) must not block
   rebinding — but a *live* one, or a path that is not a socket at all,
   must never be deleted out from under its owner. Probing with a
   connect distinguishes the three. *)
let prepare_socket_path path =
  if Sys.file_exists path then begin
    match (Unix.stat path).Unix.st_kind with
    | Unix.S_SOCK ->
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let live =
        Fun.protect
          ~finally:(fun () -> try Unix.close probe with Unix.Unix_error _ -> ())
          (fun () ->
            try
              Unix.connect probe (Unix.ADDR_UNIX path);
              true
            with Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) -> false)
      in
      if live then
        raise
          (Bind_error
             (Printf.sprintf
                "%s: socket is live (another server is accepting on it)" path))
      else (
        try Unix.unlink path
        with Unix.Unix_error (e, _, _) ->
          raise
            (Bind_error
               (Printf.sprintf "%s: cannot remove stale socket: %s" path
                  (Unix.error_message e))))
    | _ ->
      raise
        (Bind_error
           (Printf.sprintf "%s: path exists and is not a socket; refusing to replace it"
              path))
    | exception Unix.Unix_error (e, _, _) ->
      raise
        (Bind_error
           (Printf.sprintf "%s: cannot stat: %s" path (Unix.error_message e)))
  end

let empty_stats ~interrupted =
  { received = 0; malformed = 0; completed = 0; rejected = 0; timed_out = 0;
    failed = 0; interrupted }

let serve_socket ?obs ?(signals = false) ~config ~path ~once () =
  prepare_socket_path path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind sock (Unix.ADDR_UNIX path);
     Unix.listen sock 8
   with Unix.Unix_error (e, _, _) ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise
       (Bind_error (Printf.sprintf "%s: cannot bind: %s" path (Unix.error_message e))));
  let intr = no_intr () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
    (fun () ->
      with_signals ~signals intr (fun () ->
          let serve_one fd =
            let ic = Unix.in_channel_of_descr fd in
            let oc = Unix.out_channel_of_descr fd in
            Fun.protect
              ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
              (fun () -> serve_channels_intr ?obs ~intr ~config ic oc)
          in
          let rec accept_loop last =
            if !(intr.flag) then last
            else
              match blocking intr (fun () -> Unix.accept sock) with
              | None -> last
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop last
              | Some (fd, _) ->
                let result = serve_one fd in
                if once || !(intr.flag) then Some result else accept_loop (Some result)
          in
          match accept_loop None with
          | Some (st, engine) ->
            (* the flag may have risen after the last connection's stats
               were taken (signal while parked in accept) *)
            ({ st with interrupted = st.interrupted || !(intr.flag) }, engine)
          | None ->
            (* interrupted before any client connected *)
            (empty_stats ~interrupted:!(intr.flag), Engine.create config)))
