(* The fleet router's Unix driver: N `sofia_cli serve --stdin` children,
   each on its own two pipes, behind one single-threaded select loop.
   Every supervision decision belongs to Supervisor; this module runs
   its effects on real processes and fds — the children (Child), any
   number of concurrent clients (pipes, AF_UNIX or TCP accepts), each
   child and client with its own read and write buffers so that no
   stalled reader, child or client, ever blocks the fleet — and the
   slow-client linger, signals, the persistent replay tier and the
   children's metrics files in a private temp dir. *)

module Job = Sofia_service.Job
module J = Sofia_obs.Json
module Obs = Sofia_obs.Obs
module Event = Sofia_obs.Event
module Clock = Sofia_util.Clock
module Fs = Sofia_store_fs.Store_fs
module Keys = Sofia_crypto.Keys
module Lines = Sofia_util.Lines
module S = Supervisor
include Supervisor.Types

type config = {
  children : int;
  queue : int;
  cli : string;
  store_dir : string option;
  store_budget : int;
  engine : Sofia_cpu.Run_config.engine;
  backend : Sofia_transform.Backend_id.t;
  default_deadline_ms : int option;
  window : int;
  audit_every : int;
  child_extra_args : (int -> string list) option;
  on_event : (event -> unit) option;
  replay_dir : string option;
  client_linger_ms : int;
}

let default_config =
  {
    children = 3;
    queue = 64;
    cli = "sofia_cli";
    store_dir = None;
    store_budget = 0;
    engine = Sofia_cpu.Run_config.Fast;
    backend = Sofia_transform.Backend_id.Sofia;
    default_deadline_ms = None;
    window = 32;
    audit_every = 16;
    child_extra_args = None;
    on_event = None;
    replay_dir = None;
    client_linger_ms = 5_000;
  }

let replay_cap = S.replay_cap

(* One connected client: its own NDJSON reassembly buffer on the read
   side and an elastic write buffer on the write side, so a reader that
   has stalled (full socket buffer) only delays its own responses — the
   select loop keeps pumping every other client and every child. A
   client whose buffer stays undrained past the linger is dropped; its
   jobs keep settling internally so the terminal counters conserve. *)
type client = {
  cl_id : int;
  cl_in : Unix.file_descr;
  cl_out : Unix.file_descr;
  cl_lines : Lines.t;
  cl_wbuf : Buffer.t;
  mutable cl_eof : bool;
  mutable cl_gone : bool;
  mutable cl_pending : int;  (* non-blank lines read, not yet answered *)
  mutable cl_drain_deadline : float;  (* 0.0 = buffer empty / no deadline *)
  cl_owned : bool;  (* accepted by us: we close the fds *)
}

type t = {
  cfg : config;
  dir : string;  (* the children's metrics files; ours to remove *)
  procs : Child.proc array;
  core : client S.t;
  stats : stats;
  obs : Obs.t;
  rstore : Fs.t option;  (* persistent replay tier, when configured *)
  mutable clients : client list;
  mutable next_client : int;
  mutable listen : Unix.file_descr option;
  mutable accepts_left : int;  (* 0 = no more accepts; < 0 = unlimited *)
}

(* ---- client output ------------------------------------------------ *)

(* Push as much buffered output as the client will take right now.
   Blocking fds (the legacy pipe front) drain fully — our NDJSON can
   tear only if the client never reads it; nonblocking fds (accepted
   sockets, test pipes) keep the remainder buffered for the
   select loop's write set, as each child's requests are (Child.flush).
   A vanished client flips [cl_gone]; jobs keep settling internally so
   the terminal counters still conserve. *)
let flush_client cl =
  if (not cl.cl_gone) && Buffer.length cl.cl_wbuf > 0 then
    if not (Lines.flush cl.cl_wbuf cl.cl_out) then cl.cl_gone <- true
    else if Buffer.length cl.cl_wbuf = 0 then cl.cl_drain_deadline <- 0.0

(* Every non-blank client line is answered exactly once, through here. *)
let deliver cl line =
  cl.cl_pending <- cl.cl_pending - 1;
  if not cl.cl_gone then begin
    Buffer.add_string cl.cl_wbuf line;
    Buffer.add_char cl.cl_wbuf '\n';
    flush_client cl
  end

(* ---- the persistent replay tier ----------------------------------- *)

(* A Replay envelope is sealed under the request's own derived device
   keys: the payload is the cached template rendered as one JSON
   object, and the envelope source is the router's content key — so a
   reload re-checks kind, codec, nonce, key fingerprint, CRC, CBC-MAC
   and the full source text, and store_fs additionally re-derives the
   payload's 64-bit fingerprint (store_replay meta) before a byte is
   believed. A failed check is a miss, never served. The keys are
   derived at each access: a derivation costs microseconds beside an
   envelope write that fsyncs, and a table of them would grow with
   every distinct seed. *)

let entry_payload (c : S.entry) =
  Bytes.of_string
    (J.to_string
       (J.Obj
          [ ("op", J.Str c.S.t_op); ("status", J.Str c.S.t_status);
            ("worker", J.Int c.S.t_worker); ("ts", c.S.t_ts); ("tail", J.Str c.S.t_tail) ]))

let entry_of_payload payload =
  let str fields k = match List.assoc_opt k fields with Some (J.Str s) -> Some s | _ -> None in
  match J.parse_opt (Bytes.to_string payload) with
  | Some (J.Obj fields) -> (
    match
      ( str fields "op", str fields "status", List.assoc_opt "worker" fields,
        List.assoc_opt "ts" fields, str fields "tail" )
    with
    | Some op, Some status, Some (J.Int worker), Some ts, Some tail ->
      Some { S.t_op = op; t_status = status; t_worker = worker; t_ts = ts; t_tail = tail }
    | _ -> None)
  | _ -> None

let replay_load rstore (req : Job.request) key =
  match rstore with
  | Some rs ->
    Option.bind
      (Fs.load_replay rs ~backend:req.Job.backend ~keys:(Keys.generate ~seed:req.Job.key_seed)
         ~nonce:req.Job.nonce ~source:key)
      entry_of_payload
  | None -> None

let replay_store rstore (req : Job.request) key c =
  match rstore with
  | Some rs ->
    Fs.store_replay rs ~backend:req.Job.backend ~keys:(Keys.generate ~seed:req.Job.key_seed)
      ~nonce:req.Job.nonce ~source:key ~payload:(entry_payload c)
  | None -> ()

(* ---- child spawn / args ------------------------------------------- *)

let child_args cfg dir k =
  let base =
    [
      "serve"; "--stdin"; "--shard"; string_of_int k; "--workers"; "1";
      "--queue"; string_of_int cfg.queue;
      "--json"; Filename.concat dir (Printf.sprintf "metrics-%d.json" k);
    ]
  in
  let engine = [ "--engine"; Sofia_cpu.Run_config.engine_name cfg.engine ] in
  (* passed only when non-default, so an all-SOFIA fleet spawns its
     children with the exact pre-backend command line *)
  let backend =
    match cfg.backend with
    | Sofia_transform.Backend_id.Sofia -> []
    | b -> [ "--backend"; Sofia_transform.Backend_id.name b ]
  in
  let store =
    match cfg.store_dir with
    | Some d ->
      [ "--store-dir"; Filename.concat d (Printf.sprintf "shard-%d" k) ]
      @ (if cfg.store_budget > 0 then [ "--store-budget"; string_of_int cfg.store_budget ]
         else [])
    | None -> []
  in
  let deadline =
    match cfg.default_deadline_ms with
    | Some d -> [ "--deadline-ms"; string_of_int d ]
    | None -> []
  in
  let extra = match cfg.child_extra_args with Some f -> f k | None -> [] in
  base @ engine @ backend @ store @ deadline @ extra

(* ---- metrics ------------------------------------------------------ *)

(* The per-child serve metrics documents (written by `serve --json` at
   child exit) — the fleet-wide view of disk-store hit/corrupt
   counters etc. Collected after the children have stopped. *)
let child_metrics_json t =
  J.List
    (List.filter_map
       (fun k ->
         let path = Filename.concat t.dir (Printf.sprintf "metrics-%d.json" k) in
         if Sys.file_exists path then begin
           let ic = open_in_bin path in
           let n = in_channel_length ic in
           let s = really_input_string ic n in
           close_in_noerr ic;
           Option.map
             (fun j -> J.Obj [ ("shard", J.Int k); ("metrics", j) ])
             (J.parse_opt s)
         end
         else None)
       (List.init t.cfg.children Fun.id))

let metrics_json t =
  J.Obj
    ([
       ( "fleet",
         J.Obj
           [
             ("children", J.Int t.cfg.children);
             ("window", J.Int t.cfg.window);
             ("audit_every", J.Int t.cfg.audit_every);
           ] );
       ("router", S.stats_json t.core);
       ("shards", S.shards_json t.core);
       ("children_metrics", child_metrics_json t);
     ]
    @ match t.rstore with
      | Some rs -> [ ("replay_store", Fs.counters_json rs) ]
      | None -> [])

(* ---- setup -------------------------------------------------------- *)

(* The children's metrics files live in a fresh private dir, so no
   caller's dir is ever written, swept or removed. *)
let cleanup_dir dir ~children =
  for k = 0 to children - 1 do
    try Sys.remove (Filename.concat dir (Printf.sprintf "metrics-%d.json" k))
    with Sys_error _ -> ()
  done;
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

(* Spawn every child, then wait for all of their ready pings at once.
   A child that fails takes the whole start with it: nothing is left
   running. *)
let start_children ~cli args =
  let started = ref [] in
  try
    Array.iteri (fun k a -> started := Child.start ~cli ~args:a ~shard:k :: !started) args;
    Child.await_ready !started;
    Array.of_list (List.rev !started)
  with e ->
    List.iter Child.kill !started;
    raise e

let create ?(obs = Obs.none) cfg =
  if cfg.children < 1 then invalid_arg "Router: children must be >= 1";
  let rstore = Option.map (fun d -> Fs.open_store ~obs ~dir:d ()) cfg.replay_dir in
  let dir = Filename.temp_dir ~perms:0o700 "sofia-fleet-" "" in
  let args = Array.init cfg.children (child_args cfg dir) in
  let procs =
    try start_children ~cli:cfg.cli args
    with e ->
      cleanup_dir dir ~children:cfg.children;
      raise e
  in
  let fx =
    {
      S.send = (fun k line -> Child.send_line procs.(k) line);
      kill = (fun k -> Child.kill procs.(k));
      restart =
        (fun k ->
          match Child.restart procs.(k) ~cli:cfg.cli ~args:args.(k) with
          | () -> Ok procs.(k).Child.pid
          | exception Child.Child_failed m -> Error m);
      deliver;
      load = replay_load rstore;
      store = replay_store rstore;
      wall = Clock.wall_s;
    }
  in
  let core =
    S.create ~obs ?on_event:cfg.on_event ~now:(Clock.mono_s ()) ~children:cfg.children
      ~window:cfg.window ~audit_every:cfg.audit_every ~backend:cfg.backend fx
  in
  Option.iter
    (fun f -> Array.iter (fun p -> f (Child_up (p.Child.shard, p.Child.pid))) procs)
    cfg.on_event;
  {
    cfg; dir; procs; core; stats = S.stats core; obs; rstore;
    clients = []; next_client = 0; listen = None; accepts_left = 0;
  }

let add_client t ~owned fd_in fd_out =
  let cl =
    {
      cl_id = t.next_client;
      cl_in = fd_in;
      cl_out = fd_out;
      cl_lines = Lines.create ();
      cl_wbuf = Buffer.create 4096;
      cl_eof = false;
      cl_gone = false;
      cl_pending = 0;
      cl_drain_deadline = 0.0;
      cl_owned = owned;
    }
  in
  t.next_client <- t.next_client + 1;
  t.clients <- t.clients @ [ cl ];
  cl

(* ---- main loop ---------------------------------------------------- *)

let client_active cl = not (cl.cl_eof || cl.cl_gone)

let accepting t = t.listen <> None && t.accepts_left <> 0 && not t.stats.interrupted

let clients_done t =
  (not (accepting t)) && List.for_all (fun cl -> not (client_active cl)) t.clients

let close_client_fds cl =
  if cl.cl_owned then begin
    (try Unix.close cl.cl_in with Unix.Unix_error (_, _, _) -> ());
    if cl.cl_out != cl.cl_in then
      try Unix.close cl.cl_out with Unix.Unix_error (_, _, _) -> ()
  end

let client_line t cl line =
  (match line with
   | Lines.Line l when String.trim l = "" -> ()
   | _ -> cl.cl_pending <- cl.cl_pending + 1);
  S.client_line t.core ~now:(Clock.mono_s ()) cl line

(* slow-client isolation: a client whose write buffer has not fully
   drained within the linger is dropped — its fds stop mattering, its
   jobs keep settling internally, and nobody else ever waited *)
let linger t now =
  List.iter
    (fun cl ->
      if (not cl.cl_gone) && Buffer.length cl.cl_wbuf > 0 then begin
        if cl.cl_drain_deadline = 0.0 then
          cl.cl_drain_deadline <- now +. (float_of_int t.cfg.client_linger_ms /. 1000.0)
        else if now >= cl.cl_drain_deadline then begin
          Buffer.clear cl.cl_wbuf;
          cl.cl_gone <- true;
          t.stats.slow_client_drops <- t.stats.slow_client_drops + 1;
          if Obs.tracing t.obs then
            Obs.emit t.obs
              (Event.Service_error
                 {
                   kind = "fleet_slow_client_drop";
                   detail =
                     Printf.sprintf "client %d: write buffer undrained for %dms" cl.cl_id
                       t.cfg.client_linger_ms;
                 })
        end
      end)
    t.clients

(* Past this many bytes of undrained output we stop reading new
   requests from that client — bounded memory per stalled reader. *)
let client_wbuf_cap = 1 lsl 20

let serve ?(signals = false) t =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let signal_hits = ref 0 in
  let saved = ref [] in
  if signals then begin
    let handler =
      Sys.Signal_handle
        (fun _ ->
          incr signal_hits;
          if !signal_hits >= 2 then begin
            (* second signal: stop being graceful *)
            Array.iter Child.kill t.procs;
            exit 130
          end)
    in
    List.iter
      (fun s ->
        match Sys.signal s handler with
        | old -> saved := (s, old) :: !saved
        | exception (Invalid_argument _ | Sys_error _) -> ())
      [ Sys.sigint; Sys.sigterm ]
  end;
  (* the one read buffer for every client and child *)
  let chunk = Bytes.create 65536 in
  let finished () =
    (t.stats.interrupted || clients_done t)
    && S.unsettled t.stats = 0
    && List.for_all (fun cl -> cl.cl_gone || Buffer.length cl.cl_wbuf = 0) t.clients
  in
  while not (finished ()) do
    if !signal_hits > 0 then t.stats.interrupted <- true;
    let child_rfds = Array.to_list t.procs |> List.filter_map (fun p -> p.Child.rfd) in
    let child_wfds =
      Array.to_list t.procs
      |> List.filter_map (fun p -> if Buffer.length p.Child.out > 0 then p.Child.wfd else None)
    in
    (* simple flow control: past ~4 windows of unsettled work per
       shard, stop pulling client input and let the client's own
       buffers push back — bounds router memory under open-loop
       overload *)
    let backlogged = S.unsettled t.stats >= 4 * t.cfg.window * t.cfg.children in
    let client_rfds =
      if t.stats.interrupted || backlogged then []
      else
        List.filter_map
          (fun cl ->
            if client_active cl && Buffer.length cl.cl_wbuf < client_wbuf_cap then
              Some cl.cl_in
            else None)
          t.clients
    in
    let listen_fds = if accepting t then Option.to_list t.listen else [] in
    let wset =
      List.filter_map
        (fun cl ->
          if (not cl.cl_gone) && Buffer.length cl.cl_wbuf > 0 then Some cl.cl_out
          else None)
        t.clients
    in
    let readable, writable, _ =
      try Unix.select (child_rfds @ client_rfds @ listen_fds) (child_wfds @ wset) [] 0.05
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    (* children first: responses free windows before new admissions *)
    Array.iteri
      (fun k p ->
        match p.Child.rfd with
        | Some fd when List.memq fd readable -> (
          match Child.drain_input p chunk with
          | `Eof ->
            S.child_closed t.core ~now:(Clock.mono_s ())
              ~draining:(t.stats.interrupted || clients_done t) k;
            (* after an orderly exit the fd is still ours to close; a
               death already killed and reaped the child *)
            Child.close_fds p;
            ignore (Child.reap p ~timeout_s:2.0)
          | `Lines lines ->
            List.iter (fun l -> S.child_line t.core ~now:(Clock.mono_s ()) k l) lines)
        | _ -> ())
      t.procs;
    (* new connections *)
    (match t.listen with
     | Some lfd when accepting t && List.memq lfd readable -> (
       match Unix.accept ~cloexec:true lfd with
       | fd, _ ->
         Unix.set_nonblock fd;
         if t.accepts_left > 0 then t.accepts_left <- t.accepts_left - 1;
         ignore (add_client t ~owned:true fd fd)
       | exception
           Unix.Unix_error
             ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _)
         -> ())
     | _ -> ());
    (* per-client input *)
    List.iter
      (fun cl ->
        if client_active cl && List.memq cl.cl_in readable then begin
          match Unix.read cl.cl_in chunk 0 (Bytes.length chunk) with
          | 0 -> cl.cl_eof <- true
          | n -> List.iter (client_line t cl) (Lines.feed cl.cl_lines chunk n)
          | exception
              Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
            ()
          | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EBADF), _, _) ->
            cl.cl_eof <- true
        end)
      t.clients;
    (* drain write buffers that have room again: the children's
       requests, then the clients' responses *)
    Array.iter
      (fun p ->
        match p.Child.wfd with
        | Some fd when List.memq fd writable -> Child.flush p
        | _ -> ())
      t.procs;
    List.iter
      (fun cl ->
        if (not cl.cl_gone) && List.memq cl.cl_out writable then flush_client cl)
      t.clients;
    (* a trailing unterminated line at EOF is still a request *)
    List.iter
      (fun cl ->
        if cl.cl_eof then Option.iter (client_line t cl) (Lines.take_rest cl.cl_lines))
      t.clients;
    let now = Clock.mono_s () in
    S.tick t.core ~now;
    linger t now;
    (* retire clients that are fully answered (or gone) *)
    let retired, live =
      List.partition
        (fun cl ->
          cl.cl_gone || (cl.cl_eof && cl.cl_pending = 0 && Buffer.length cl.cl_wbuf = 0))
        t.clients
    in
    List.iter close_client_fds retired;
    t.clients <- live
  done;
  (* graceful fleet shutdown: close their stdin, and every child reads
     EOF, drains and exits at once; stragglers (and quarantined/probation
     incarnations) are killed. No child outlives the router. *)
  Array.iteri
    (fun k p -> if t.stats.shards.(k).ss_quarantined then Child.kill p else Child.close_input p)
    t.procs;
  Array.iter
    (fun p ->
      if not (Child.reap p ~timeout_s:5.0) then Child.kill p;
      Child.close_fds p)
    t.procs;
  List.iter close_client_fds t.clients;
  List.iter (fun (s, old) -> try Sys.set_signal s old with _ -> ()) !saved;
  t.stats

(* One-call fronts: spawn the fleet, serve the client fds, stop the
   children, return the stats and the fleet metrics document (which
   needs the children stopped: their serve --json files are written at
   child exit). *)

let finish ?signals t =
  let cleanup_on_error e =
    Array.iter Child.kill t.procs;
    cleanup_dir t.dir ~children:t.cfg.children;
    raise e
  in
  let stats = try serve ?signals t with e -> cleanup_on_error e in
  let doc = metrics_json t in
  cleanup_dir t.dir ~children:t.cfg.children;
  (stats, doc)

let run ?obs ?signals cfg ~client_in ~client_out =
  let t = create ?obs cfg in
  ignore (add_client t ~owned:false client_in client_out);
  finish ?signals t

let run_clients ?obs ?signals cfg ~clients =
  let t = create ?obs cfg in
  List.iter
    (fun (fd_in, fd_out) ->
      (* test clients may be pipes that are never drained on
         the far side: nonblocking writes + the elastic buffer keep a
         stalled reader from wedging the whole fleet *)
      (try Unix.set_nonblock fd_in with Unix.Unix_error (_, _, _) -> ());
      (try Unix.set_nonblock fd_out with Unix.Unix_error (_, _, _) -> ());
      ignore (add_client t ~owned:false fd_in fd_out))
    clients;
  finish ?signals t

let run_listener ?obs ?signals cfg ~listen_fd ~accepts =
  let t = create ?obs cfg in
  t.listen <- Some listen_fd;
  t.accepts_left <- accepts;
  (* the listener belongs to the caller (it may rebind/reuse it);
     serve only stops accepting *)
  finish ?signals t
