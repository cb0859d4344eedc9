module Machine = Sofia_cpu.Machine
module Fs = Sofia_store_fs.Store_fs
module Obs = Sofia_obs.Obs
module Event = Sofia_obs.Event
module Clock = Sofia_util.Clock
module Backend_id = Sofia_transform.Backend_id
module Registry = Sofia_protection.Registry

type backpressure = Block | Reject

type config = {
  workers : int;
  queue_capacity : int;
  backpressure : backpressure;
  store_slots : int;
  ks_cache_slots : int option;
  engine : Sofia_cpu.Run_config.engine;
  backend : Backend_id.t;
  default_deadline_ms : int option;
  fault : (Job.request -> attempt:int -> unit) option;
  wall_clock : (unit -> float) option;
  store_dir : string option;
  store_budget : int;
  shard : int;
  mangle : (Job.response -> Job.response) option;
}

let default_config =
  {
    workers = 0;
    queue_capacity = 64;
    backpressure = Block;
    store_slots = 256;
    (* the same default every served process gets, so an in-process
       engine simulates exactly what `serve` and fleet children run *)
    ks_cache_slots = Sofia_cpu.Run_config.default.Sofia_cpu.Run_config.ks_cache_slots;
    engine = Sofia_cpu.Run_config.Fast;
    backend = Backend_id.Sofia;
    default_deadline_ms = None;
    fault = None;
    wall_clock = None;
    store_dir = None;
    store_budget = 0;
    shard = -1;
    mangle = None;
  }

type pending = { req : Job.request; seq : int; submitted_mono : float }

type t = {
  cfg : config;
  queue : pending Jobq.t;
  store : Store.t;
  disk : Fs.t option;  (** the persistent tier, when [store_dir] is set *)
  m : Mutex.t;  (* guards log, metrics, counters, domains *)
  settled : Condition.t;
  mutable log : Job.response list;  (* newest first; kept only without [on_response] *)
  mutable terminal : int;
  mutable next_seq : int;
  mutable started : bool;
  mutable domains : unit Domain.t list;  (* the workers, until shutdown joins them *)
  metrics : Svc_metrics.t;
  obs : Obs.t;
  on_response : (Job.response -> unit) option;
}

let outcome_label = function
  | Machine.Halted c -> Printf.sprintf "halted:%d" c
  | Machine.Cpu_reset v -> "cpu_reset:" ^ Machine.violation_label v
  | Machine.Out_of_fuel -> "out_of_fuel"

(* ------------------------------------------------------------------ *)
(* Job execution (pure of engine state except the shared store)        *)
(* ------------------------------------------------------------------ *)

exception Permanent of string
(* structured executor failure; becomes a [Failed] response *)

(* A failure's text is clipped, so no request can make its response
   long: an assembler error quotes the bad token with %S, which writes
   a byte above 0x7f as \ddd, and JSON doubles the backslash (five wire
   bytes per source byte); a bad image's path is echoed whole. A fleet
   child's response must fit the router's line cap
   (Sofia_util.Lines.max_line). *)
let max_failure = 1024

let failed e =
  let m = match e with Permanent m -> m | e -> Printexc.to_string e in
  Job.Failed (if String.length m <= max_failure then m else String.sub m 0 max_failure ^ "...")

let parse_or_fail store source =
  try Store.find_or_parse store ~source with
  | Sofia_asm.Assembler.Error { line; message } ->
    raise (Permanent (Printf.sprintf "assembly error at line %d: %s" line message))

(* Lay [source] out from the store's parse cache, then encrypt and MAC
   it under this request's keys: the per-key half is all that runs
   once the source has been seen. *)
let encrypt_source ~store ~(req : Job.request) ~keys source =
  let backend = req.Job.backend in
  match Store.layout store (parse_or_fail store source) ~backend with
  | Ok layout -> Sofia_transform.Transform.encrypt ~backend ~keys ~nonce:req.Job.nonce layout
  | Error e ->
    raise (Permanent (Format.asprintf "transform error: %a" Sofia_transform.Layout.pp_error e))

(* The ciphertext CBC-MAC tag an artifact is sealed with and that every
   load re-derives. *)
let mac_tag ~keys image =
  Sofia_crypto.Cbc_mac.mac_words keys.Sofia_crypto.Keys.k2
    (Sofia_transform.Image.authenticated_words image)

let persist_image d ~keys ~nonce ~source ~(image : Sofia_transform.Image.t) ~sfi ~issues =
  let tag = mac_tag ~keys image in
  Fs.store_artifact d ~backend:image.Sofia_transform.Image.backend ~keys ~nonce ~source ~sfi
    ~expansion:(Sofia_transform.Transform.expansion_ratio image) ~issues ~mac_tag:tag;
  tag

(* A store entry; the image, when it came from disk, is ciphertext
   only. *)
let entry ~bytes ~(image : Sofia_transform.Image.t) ~expansion ~issues ~mac ~from_disk =
  {
    Store.bytes;
    image;
    digest = Store.fingerprint bytes;
    text_bytes = Sofia_transform.Image.text_size_bytes image;
    expansion;
    blocks = Array.length image.Sofia_transform.Image.blocks;
    memo_m = Mutex.create ();
    issues;
    mac;
    from_disk;
    table = None;
  }

(* [keys] is the request's own lazily derived key set (see {!execute}):
   forced here only when the store misses. A disk hit reads the one
   file the tier keeps per image, whose envelope [load_artifact]
   checked and whose MAC verdict it re-derived over the deserialised
   ciphertext. *)
let protect_entry ~disk ~store ~(req : Job.request) ~keys source =
  let backend = req.Job.backend and nonce = req.Job.nonce in
  let key = Store.key ~source ~key_seed:req.key_seed ~nonce ~backend in
  Store.find_or_build store ~key ~build:(fun () ->
      let keys = Lazy.force keys in
      match Option.bind disk (fun d -> Fs.load_artifact d ~backend ~keys ~nonce ~source) with
      | Some a ->
        entry ~bytes:a.Fs.sfi ~image:a.Fs.image ~expansion:a.Fs.expansion ~issues:a.Fs.issues
          ~mac:(Some a.Fs.mac) ~from_disk:true
      | None ->
        let image = encrypt_source ~store ~req ~keys source in
        entry ~bytes:(Sofia_transform.Binary_format.serialize image) ~image
          ~expansion:(Sofia_transform.Transform.expansion_ratio image) ~issues:None ~mac:None
          ~from_disk:false)

(* The verifier's issue count, and whether this call earned it (rather
   than reading the entry's memo). *)
let verify_issues ~store ~(req : Job.request) ~keys source (entry : Store.entry) =
  let b = Registry.find req.Job.backend in
  let earned = ref false in
  let issues =
    Store.fill_issues entry (fun () ->
        earned := true;
        let keys = Lazy.force keys in
        (* a disk-loaded image is ciphertext-only: the independent
           verifier needs the plaintext block views, so re-derive the
           (deterministic) protected image from the source *)
        let image =
          if entry.Store.from_disk then encrypt_source ~store ~req ~keys source
          else entry.Store.image
        in
        let program = Store.program (parse_or_fail store source) in
        List.length (b.Sofia_protection.Backend.verify_against_source ~keys program image))
  in
  (issues, !earned)

let mac_digest ~keys (entry : Store.entry) =
  Store.fill_mac entry (fun () ->
      Printf.sprintf "%016Lx" (mac_tag ~keys:(Lazy.force keys) entry.Store.image))

(* The disk tier's one write: the artifact of an image a request built
   cold or earned the verdict for, sealed with its MAC tag and with the
   verdict when there is one. *)
let persist d ~(req : Job.request) ~keys source (entry : Store.entry) =
  Fs.store_artifact d ~backend:req.Job.backend ~keys:(Lazy.force keys) ~nonce:req.Job.nonce
    ~source ~sfi:entry.Store.bytes ~expansion:entry.Store.expansion ~issues:entry.Store.issues
    ~mac_tag:(Int64.of_string ("0x" ^ mac_digest ~keys entry))

let run_config ~engine ?(backend = Backend_id.Sofia) ks_cache_slots =
  { Sofia_cpu.Run_config.default with Sofia_cpu.Run_config.ks_cache_slots; engine; backend }

let simulated_of_result ~cached (r : Machine.run_result) =
  Job.Simulated
    {
      outcome = outcome_label r.Machine.outcome;
      outputs = r.Machine.outputs;
      cycles = r.Machine.stats.Machine.cycles;
      instructions = r.Machine.stats.Machine.instructions;
      cached;
    }

(* A request derives its keys at most once, however many of protect,
   verify and MAC need them: the [lazy] below is shared by those steps
   and lives for one request only, because OCaml 5's [Lazy] is not
   domain-safe and a request runs on one worker. Program and layout
   come from the store's parse cache, shared by every request for the
   same source; the verifier takes only the program from it and still
   re-derives structure, MACs and ciphertext from keys, program and
   image (DESIGN §9). An image this request built cold, or whose
   verdict it earned, is written to the disk tier once, after the op
   has run, so the one write carries the verdict. *)
let execute ?(shard = -1) ?(workers = 1) ~disk ~store ~ks_cache_slots ~engine
    (req : Job.request) =
  let keys = lazy (Sofia_crypto.Keys.generate ~seed:req.Job.key_seed) in
  let unsaved = ref None in
  let protected source =
    let entry, cached = protect_entry ~disk ~store ~req ~keys source in
    if not (cached || entry.Store.from_disk) then unsaved := Some (source, entry);
    (entry, cached)
  in
  let verified source entry =
    let issues, earned = verify_issues ~store ~req ~keys source entry in
    if earned then unsaved := Some (source, entry);
    issues
  in
  let payload =
    match req.Job.spec with
    | Job.Ping -> Job.Ponged { shard; workers }
    | Job.Protect { source } ->
      let entry, cached = protected source in
      Job.Protected
        {
          text_bytes = entry.Store.text_bytes;
          expansion = entry.Store.expansion;
          blocks = entry.Store.blocks;
          digest = entry.Store.digest;
          cached;
        }
    | Job.Verify { source } ->
      let entry, cached = protected source in
      Job.Verified { issues = verified source entry; cached }
    | Job.Attest { source } ->
      let entry, cached = protected source in
      let issues = verified source entry in
      Job.Attested { digest = entry.Store.digest; mac = mac_digest ~keys entry; issues; cached }
    | Job.Simulate { source; sofia = true } ->
      let entry, cached = protected source in
      simulated_of_result ~cached
        (Sofia_cpu.Sofia_runner.run
           ~config:(run_config ~engine ~backend:req.Job.backend ks_cache_slots)
           ~keys:(Lazy.force keys) entry.Store.image)
    | Job.Simulate { source; sofia = false } ->
      let program = Store.program (parse_or_fail store source) in
      simulated_of_result ~cached:false
        (Sofia_cpu.Vanilla.run ~config:(run_config ~engine None) program)
    | Job.Run_image { path } ->
      let loaded =
        match
          (try Sofia_transform.Binary_format.load ~path with
           | Sys_error m -> raise (Permanent ("cannot read image: " ^ m)))
        with
        | Error e ->
          raise
            (Permanent
               (Format.asprintf "bad image %s: %a" path Sofia_transform.Binary_format.pp_error e))
        | Ok loaded -> loaded
      in
      let image = Sofia_transform.Binary_format.image_of_loaded loaded in
      let r =
        Sofia_cpu.Sofia_runner.run ~config:(run_config ~engine ks_cache_slots)
          ~keys:(Lazy.force keys) image
      in
      Job.Ran
        {
          outcome = outcome_label r.Machine.outcome;
          outputs = r.Machine.outputs;
          cycles = r.Machine.stats.Machine.cycles;
          instructions = r.Machine.stats.Machine.instructions;
        }
  in
  (match (disk, !unsaved) with
   | Some d, Some (source, entry) -> persist d ~req ~keys source entry
   | _ -> ());
  payload

let execute_oneshot req =
  let store = Store.create ~slots:0 in
  try
    Job.Done
      (execute ~disk:None ~store ~ks_cache_slots:None ~engine:Sofia_cpu.Run_config.Fast req)
  with e -> failed e

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let create ?(obs = Obs.none) ?on_response cfg =
  {
    cfg;
    queue = Jobq.create ~capacity:cfg.queue_capacity;
    store = Store.create ~slots:cfg.store_slots;
    disk =
      Option.map
        (fun dir -> Fs.open_store ~obs ~dir ~budget_bytes:cfg.store_budget ())
        cfg.store_dir;
    m = Mutex.create ();
    settled = Condition.create ();
    log = [];
    terminal = 0;
    next_seq = 0;
    started = false;
    domains = [];
    metrics = Svc_metrics.create ();
    obs;
    on_response;
  }

(* Deadlines read the monotonic clock: a wall-clock step (NTP,
   operator) must not expire — or immortalize — every queued job. Wall
   time appears only in the reported [ts] field, and is injectable so
   tests can skew it violently and assert nothing times out. *)
let mono () = Clock.mono_s ()
let wall t = match t.cfg.wall_clock with Some f -> f () | None -> Clock.wall_s ()

let with_lock t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* Record the single terminal response of a job. Completion index,
   status counter and latency histogram are updated under the one
   lock, so the completion order is total. The response itself goes
   to exactly one place: the stream callback when there is one (every
   [serve], which would never read a log, so its memory stays flat
   however many jobs it serves), otherwise the log [drain] returns.
   The callback runs OUTSIDE the lock. It does client I/O (wire mode
   writes to a socket), and a client that stops reading must stall
   only its own worker, never submit/drain/other settles; a callback
   that re-enters the engine must not deadlock. Stream consumers that
   need the total order have the [completion] index on the response.
   Each job has exactly one settler — [submit] for a job it turns away,
   otherwise the worker that popped it — so each settles once. *)
let settle t (p : pending) ~attempts ~worker status =
  let latency_ms = (mono () -. p.submitted_mono) *. 1000.0 in
  let ts = wall t in
  let op = Job.op_name p.req.Job.spec in
  let resp =
    with_lock t (fun () ->
        let resp =
          {
            Job.id = p.req.Job.id;
            op;
            seq = p.seq;
            completion = t.terminal;
            attempts;
            worker;
            latency_ms;
            ts;
            status;
          }
        in
        let resp = match t.cfg.mangle with Some f -> f resp | None -> resp in
        if Option.is_none t.on_response then t.log <- resp :: t.log;
        t.terminal <- t.terminal + 1;
        (match status with
         | Job.Done _ -> t.metrics.Svc_metrics.completed <- t.metrics.Svc_metrics.completed + 1
         | Job.Rejected _ -> t.metrics.Svc_metrics.rejected <- t.metrics.Svc_metrics.rejected + 1
         | Job.Timed_out -> t.metrics.Svc_metrics.timed_out <- t.metrics.Svc_metrics.timed_out + 1
         | Job.Failed detail ->
           t.metrics.Svc_metrics.failed <- t.metrics.Svc_metrics.failed + 1;
           if Obs.tracing t.obs then
             Obs.emit t.obs (Event.Service_error { kind = "job_failed"; detail }));
        Svc_metrics.observe_latency t.metrics ~op ~us:(int_of_float (latency_ms *. 1000.0));
        Condition.broadcast t.settled;
        resp)
  in
  (* The stream callback does client I/O. If the client is gone — the
     fleet router closed our socket while this worker still held its
     job — the write layer usually swallows the error, but nothing
     guarantees a callback never raises. An escaping exception here
     would kill the worker domain *after* the job settled, and nothing
     replaces a dead worker: the pool would shrink for good. Contain it:
     the job already reached its terminal counter exactly once above; a
     broken consumer costs a service_error, never a worker. *)
  match t.on_response with
  | Some f -> (
    try f resp with
    | e ->
      with_lock t (fun () ->
          t.metrics.Svc_metrics.service_errors <-
            t.metrics.Svc_metrics.service_errors + 1;
          if Obs.tracing t.obs then
            Obs.emit t.obs
              (Event.Service_error
                 { kind = "callback_error"; detail = Printexc.to_string e })))
  | None -> ()

(* The pool never oversubscribes the host: every runnable domain beyond
   the spare cores makes each stop-the-world minor GC pay a scheduler
   timeslice of latency, so extra domains are strictly slower (measured
   ~3x on a single-core host). [workers] is therefore a cap, not a
   demand; the effective count is reported next to the requested one in
   {!metrics_json}. The spare cores are the host's less the caller's
   own, at least one. *)
let resolved_workers t =
  let avail = max 1 (Domain.recommended_domain_count () - 1) in
  if t.cfg.workers > 0 then max 1 (min t.cfg.workers avail) else avail

let deadline_of t (req : Job.request) =
  match req.Job.deadline_ms with Some d -> Some d | None -> t.cfg.default_deadline_ms

let expired t (p : pending) =
  match deadline_of t p.req with
  | None -> false
  | Some d -> (mono () -. p.submitted_mono) *. 1000.0 >= float_of_int d

(* A job runs once. Every exception it raises — the [fault] hook's
   included — settles it [Failed] with the exception's text, so a
   worker never dies of a job and the pool keeps its size (crash
   recovery is the fleet supervisor's, one level up, where the unit is
   a process: DESIGN §13). *)
let process t ~worker (p : pending) =
  if expired t p then settle t p ~attempts:0 ~worker Job.Timed_out
  else begin
    let status =
      match
        (match t.cfg.fault with Some f -> f p.req ~attempt:1 | None -> ());
        execute ~shard:t.cfg.shard ~workers:(resolved_workers t) ~disk:t.disk ~store:t.store
          ~ks_cache_slots:t.cfg.ks_cache_slots ~engine:t.cfg.engine p.req
      with
      | payload -> Job.Done payload
      | exception e -> failed e
    in
    settle t p ~attempts:1 ~worker status
  end

let rec worker_loop t wid =
  match Jobq.pop t.queue with
  | None -> ()
  | Some p ->
    process t ~worker:wid p;
    worker_loop t wid

let start t =
  with_lock t (fun () ->
      if not t.started then begin
        t.started <- true;
        t.domains <-
          List.init (resolved_workers t) (fun wid ->
              Domain.spawn (fun () -> worker_loop t wid))
      end)

let submit t req =
  let seq =
    with_lock t (fun () ->
        t.metrics.Svc_metrics.submitted <- t.metrics.Svc_metrics.submitted + 1;
        let s = t.next_seq in
        t.next_seq <- s + 1;
        s)
  in
  let p = { req; seq; submitted_mono = mono () } in
  let verdict =
    match t.cfg.backpressure with
    | Reject -> Jobq.try_push t.queue p
    | Block -> (Jobq.push t.queue p :> [ `Ok | `Full | `Closed ])
  in
  match verdict with
  | `Ok -> ()
  | `Full -> settle t p ~attempts:0 ~worker:(-1) (Job.Rejected "queue full")
  | `Closed -> settle t p ~attempts:0 ~worker:(-1) (Job.Rejected "engine shut down")

let drain t =
  with_lock t (fun () ->
      while t.terminal < t.next_seq do
        Condition.wait t.settled t.m
      done);
  with_lock t (fun () -> List.sort (fun a b -> compare a.Job.seq b.Job.seq) t.log)

let shutdown t =
  Jobq.close t.queue;
  let domains =
    with_lock t (fun () ->
        let ds = t.domains in
        t.domains <- [];
        ds)
  in
  List.iter Domain.join domains

let metrics t = t.metrics
let store t = t.store
let disk_store t = t.disk
let queue_depth_max t = Jobq.depth_max t.queue

let metrics_json t =
  let module J = Sofia_obs.Json in
  match Svc_metrics.to_json t.metrics with
  | J.Obj fields ->
    J.Obj
      (fields
      @ [
          ( "store",
            J.Obj
              [ ("hits", J.Int (Store.hits t.store));
                ("misses", J.Int (Store.misses t.store));
                ("evictions", J.Int (Store.evictions t.store));
                ("entries", J.Int (Store.length t.store)) ] );
          (let c = Store.parse_counters t.store in
           ( "parses",
             J.Obj
               [ ("hits", J.Int c.Store.hits); ("misses", J.Int c.Store.misses);
                 ("evictions", J.Int c.Store.evictions); ("entries", J.Int c.Store.entries) ] ));
          ( "queue",
            J.Obj
              [ ("capacity", J.Int (Jobq.capacity t.queue));
                ("depth", J.Int (Jobq.length t.queue));
                ("depth_max", J.Int (Jobq.depth_max t.queue)) ] );
          ("workers", J.Int (resolved_workers t));
          ("workers_requested", J.Int t.cfg.workers);
        ]
      @ (match t.disk with Some d -> [ ("disk", Fs.counters_json d) ] | None -> []))
  | j -> j

let run_batch ?obs cfg reqs =
  let t = create ?obs cfg in
  start t;
  List.iter (submit t) reqs;
  let rs = drain t in
  shutdown t;
  (rs, t)
