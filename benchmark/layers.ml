(* The traced run: after the served measurement, the same requests go
   through two in-process passes that time the layers from outside.

   Engine pass: an in-process [Engine] with the server's configuration,
   fed on the served run's schedule. Each request is stamped at submit,
   at dispatch (the [fault] hook is the one public callback that runs
   before execution) and at [on_response]; the wire parse and render
   are timed around [Job.request_of_line] and [Job.response_to_line].

   Layer pass: the same requests, one by one, through the public
   functions [Engine.execute] calls, in its order, each timed. The sum
   of these layer times against the engine pass's service times is the
   reconciliation: what no layer accounts for is [trace.unattributed_frac].
   For the requests reconciled, the two passes alternate request by
   request (see {!engine_pass}).

   Fleet: the router's own [--json] metrics and each response's
   [latency_ms] (router admit to emit) against the client round trip. *)

module J = Sofia.Obs.Json
module Job = Sofia.Service.Job
module Engine = Sofia.Service.Engine
module Store = Sofia.Service.Store
module Fs = Sofia.Store_fs.Store_fs
module Keys = Sofia.Crypto.Keys
module Cbc_mac = Sofia.Crypto.Cbc_mac
module Tr = Sofia.Transform
module Cpu = Sofia.Cpu
module Machine = Sofia.Cpu.Machine
module Backend_id = Sofia.Transform.Backend_id

type result = { metrics : (string * string * float) list; check : Check.t }

let now = Load.now

let index_of_id id = int_of_string_opt (String.sub id 1 (String.length id - 1))

(* ---- engine pass ---------------------------------------------------- *)

type stamps = {
  submit : float array;
  dispatch : float array;
  settle : float array;
  parse_s : float array;
  render_s : float array;
  lines : string array;  (** rendered responses *)
}

let engine_config (w : Served.workload) ~store_dir =
  match w.Served.server with
  | Served.Serve -> { Engine.default_config with Engine.store_dir }
  | Served.Fleet _ ->
    (* what a fleet child runs: one worker *)
    { Engine.default_config with Engine.workers = 1; store_dir }

(* Submit [order] (request indices) to an in-process engine: the first
   [n_warm] closed-loop, the next [n_open] at [rate] per second in the
   served bursts, the next [n_closed] closed-loop again, the rest one
   at a time. [layer i] runs the layer pass on request [i]: for
   everything before the one-at-a-time requests once those are reached,
   then for each of them on the engine's worker, right before it
   executes the same request (in the [fault] hook) or right after (in
   [on_response]). That pairing is what makes the reconciliation hold:
   the host's speed drifts by more than its 10% limit within seconds
   and its two vCPUs often differ in speed, so a request's service time
   and its layer times must be measured moments apart on one thread.
   Returns the stamps, the engine, and the closed-loop throughput at
   reference speed. *)
let engine_pass ctx (w : Served.workload) (stream : Traffic.t) ~store_dir ~cap ~order ~n_warm
    ~n_open ~n_closed ~layer =
  let nan () = Array.make cap Float.nan in
  let st =
    { submit = nan (); dispatch = nan (); settle = nan (); parse_s = nan (); render_s = nan ();
      lines = Array.make cap "" }
  in
  let m = Mutex.create () and c = Condition.create () in
  let settled = ref 0 in
  let pairing = Atomic.make false in
  (* paired requests alternate which pass runs first, so that neither
     always meets the caches and disk journal the other left behind *)
  let fault (req : Job.request) ~attempt =
    match index_of_id req.Job.id with
    | Some i when attempt = 1 ->
      if Atomic.get pairing && i mod 2 = 0 then layer i;
      st.dispatch.(i) <- now ()
    | _ -> ()
  in
  let on_response (resp : Job.response) =
    let t = now () in
    let line = Job.response_to_line resp in
    (match index_of_id resp.Job.id with
     | Some i ->
       st.settle.(i) <- t;
       st.render_s.(i) <- now () -. t;
       st.lines.(i) <- line;
       if Atomic.get pairing && i mod 2 = 1 then layer i
     | None -> ());
    Mutex.lock m;
    incr settled;
    Condition.signal c;
    Mutex.unlock m
  in
  let e =
    Engine.create ~on_response { (engine_config w ~store_dir) with Engine.fault = Some fault }
  in
  Engine.start e;
  let submitted = ref 0 in
  let submit i =
    let line = Traffic.line stream i in
    let t0 = now () in
    match Job.request_of_line line with
    | Ok req ->
      st.parse_s.(i) <- now () -. t0;
      st.submit.(i) <- now ();
      incr submitted;
      Engine.submit e req
    | Error msg -> failwith ("benchmark generated an unparseable request: " ^ msg)
  in
  let wait_below window =
    Mutex.lock m;
    while !submitted - !settled >= window do
      Condition.wait c m
    done;
    Mutex.unlock m
  in
  let n = Array.length order in
  for k = 0 to n_warm - 1 do
    wait_below w.Served.window;
    submit order.(k)
  done;
  wait_below 1;
  let t0 = now () +. 0.001 in
  for k = 0 to n_open - 1 do
    let due = t0 +. (float_of_int (k / w.Served.burst * w.Served.burst) /. w.Served.open_rate) in
    let d = due -. now () in
    if d > 0.0 then Unix.sleepf d;
    submit order.(n_warm + k)
  done;
  wait_below 1;
  let first_closed = n_warm + n_open in
  let first_paired = first_closed + n_closed in
  let speed () = Speed.mean (Speed.per_cpu (Served.speed_sample_s ctx) (Affinity.current ())) in
  let speed0 = speed () in
  let c0 = now () in
  for k = first_closed to first_paired - 1 do
    wait_below w.Served.window;
    submit order.(k)
  done;
  wait_below 1;
  let closed_s = now () -. c0 in
  let speed = (speed0 +. speed ()) /. 2.0 in
  for k = 0 to first_paired - 1 do
    layer order.(k)
  done;
  Atomic.set pairing true;
  for k = first_paired to n - 1 do
    submit order.(k);
    wait_below 1
  done;
  ignore (Engine.drain e);
  Engine.shutdown e;
  let closed_jps = float_of_int n_closed /. closed_s *. Speed.reference /. speed in
  (st, e, closed_jps)

(* ---- layer pass ----------------------------------------------------- *)

(* Per-call samples (seconds) of each layer, and counters. *)
type layers = {
  asm : Stat.buf;
  layout : Stat.buf;
  enc_sofia : Stat.buf;
  enc_scfp : Stat.buf;
  serialize : Stat.buf;
  fingerprint : Stat.buf;
  verify : Stat.buf;
  cbc_mac : Stat.buf;
  keygen : Stat.buf;
  sofia_run : Stat.buf;
  vanilla_run : Stat.buf;
  table : Stat.buf;
  fs_load : Stat.buf;
  fs_write : Stat.buf;
  insns : Stat.buf;  (** per simulate job *)
  blocks : Stat.buf;  (** SOFIA core, per job *)
  mac_words : Stat.buf;  (** SOFIA core, per job *)
  mutable sofia_insns : int;
  mutable vanilla_insns : int;
  mutable fs_hits : int;
  mutable fs_misses : int;
  mutable split_mismatches : int;
  attributed : float array;  (** per request index: summed layer time *)
  cpu : float array;  (** per request index: time in the simulated cores *)
}

let new_layers cap =
  let b = Stat.buf in
  {
    asm = b (); layout = b (); enc_sofia = b (); enc_scfp = b (); serialize = b ();
    fingerprint = b (); verify = b (); cbc_mac = b (); keygen = b (); sofia_run = b ();
    vanilla_run = b (); table = b (); fs_load = b (); fs_write = b (); insns = b ();
    blocks = b (); mac_words = b (); sofia_insns = 0; vanilla_insns = 0; fs_hits = 0;
    fs_misses = 0; split_mismatches = 0; attributed = Array.make cap 0.0;
    cpu = Array.make cap 0.0;
  }

exception Layer_error of string

(* Mirrors [Engine.execute] and its helpers (protect_entry,
   verify_issues, mac_digest, persist_image) call for call, with a
   timer around every call into another layer. Returns the payload
   fields that identify the answer, for comparison with the engine. *)
let execute (l : layers) ~store ~disk (req : Job.request) i =
  let timed ?(cpu = false) buf f =
    let t0 = now () in
    let r = f () in
    let d = now () -. t0 in
    Stat.add buf d;
    l.attributed.(i) <- l.attributed.(i) +. d;
    if cpu then l.cpu.(i) <- l.cpu.(i) +. d;
    r
  in
  let keys_of () = timed l.keygen (fun () -> Keys.generate ~seed:req.Job.key_seed) in
  let backend = req.Job.backend in
  let nonce = req.Job.nonce in
  let assemble source = timed l.asm (fun () -> Sofia.Asm.Assembler.assemble source) in
  let protect ~keys program =
    match timed l.layout (fun () -> Tr.Layout.layout ~backend program) with
    | Error e -> raise (Layer_error (Format.asprintf "%a" Tr.Layout.pp_error e))
    | Ok layout -> (
      match backend with
      | Backend_id.Sofia ->
        timed l.enc_sofia (fun () -> Tr.Transform.encrypt_layout ~keys ~nonce layout)
      | Backend_id.Scfp ->
        timed l.enc_scfp (fun () -> Tr.Transform.scfp_encrypt_layout ~keys ~nonce layout))
  in
  let mac_of ~keys image =
    timed l.cbc_mac (fun () ->
        Cbc_mac.mac_words keys.Keys.k2 (Tr.Image.authenticated_words image))
  in
  let entry_of source =
    let key = Store.key ~source ~key_seed:req.Job.key_seed ~nonce ~backend in
    fst
      (Store.find_or_build store ~key ~build:(fun () ->
           let keys = keys_of () in
           let warm =
             match disk with
             | None -> None
             | Some d ->
               let t0 = now () in
               let a = Fs.load_artifact d ~backend ~keys ~nonce ~source in
               let table =
                 Option.bind a (fun a ->
                     Option.bind
                       (Fs.load_table d ~backend ~keys ~nonce ~source
                          ~codec_version:Cpu.Block_table.codec_version
                          ~artifact_fp:(Fs.fingerprint64 a.Fs.sfi))
                       Cpu.Block_table.of_bytes)
               in
               let dt = now () -. t0 in
               l.attributed.(i) <- l.attributed.(i) +. dt;
               (match a with
                | Some _ ->
                  Stat.add l.fs_load dt;
                  l.fs_hits <- l.fs_hits + 1
                | None -> l.fs_misses <- l.fs_misses + 1);
               Option.map (fun a -> (a, table)) a
           in
           match warm with
           | Some (a, table) ->
             {
               Store.bytes = a.Fs.sfi;
               image = a.Fs.image;
               digest = timed l.fingerprint (fun () -> Store.fingerprint a.Fs.sfi);
               text_bytes = Tr.Image.text_size_bytes a.Fs.image;
               expansion = a.Fs.expansion;
               blocks = Array.length a.Fs.image.Tr.Image.blocks;
               memo_m = Mutex.create ();
               issues = a.Fs.issues;
               mac = Some a.Fs.mac;
               from_disk = true;
               table;
             }
           | None ->
             let program = assemble source in
             let image = protect ~keys program in
             let bytes = timed l.serialize (fun () -> Tr.Binary_format.serialize image) in
             (* the split path must build exactly what [Transform.protect]
                builds; checked outside the timers *)
             (match Tr.Transform.protect ~backend ~keys ~nonce program with
              | Ok whole when Bytes.equal (Tr.Binary_format.serialize whole) bytes -> ()
              | _ -> l.split_mismatches <- l.split_mismatches + 1);
             let mac, table =
               match disk with
               | None -> (None, None)
               | Some d ->
                 let tag = mac_of ~keys image in
                 let table =
                   timed ~cpu:true l.table (fun () ->
                       Cpu.Block_table.of_image
                         ~verify:(fun ~target ~prev_pc ->
                           match Cpu.Sofia_runner.fetch_block ~keys ~image ~target ~prev_pc with
                           | Cpu.Sofia_runner.Block_ok { kind; insns; _ } -> Some (kind, insns)
                           | Cpu.Sofia_runner.Fetch_violation _ -> None)
                         image)
                 in
                 timed l.fs_write (fun () ->
                     Fs.store_artifact d ~backend ~keys ~nonce ~source ~sfi:bytes
                       ~expansion:(Tr.Transform.expansion_ratio image) ~issues:None ~mac_tag:tag;
                     Fs.store_table d ~backend ~keys ~nonce ~source
                       ~codec_version:Cpu.Block_table.codec_version
                       ~artifact_fp:(Fs.fingerprint64 bytes) (Cpu.Block_table.to_bytes table));
                 (Some (Printf.sprintf "%016Lx" tag), Some table)
             in
             {
               Store.bytes;
               image;
               digest = timed l.fingerprint (fun () -> Store.fingerprint bytes);
               text_bytes = Tr.Image.text_size_bytes image;
               expansion = Tr.Transform.expansion_ratio image;
               blocks = Array.length image.Tr.Image.blocks;
               memo_m = Mutex.create ();
               issues = None;
               mac;
               from_disk = false;
               table;
             }))
  in
  let issues_of source (entry : Store.entry) =
    let b = Sofia.Protection.Registry.find backend in
    let fresh = ref false in
    let issues =
      Store.fill_issues entry (fun () ->
          fresh := true;
          let program = assemble source in
          let keys = keys_of () in
          let image = if entry.Store.from_disk then protect ~keys program else entry.Store.image in
          timed l.verify (fun () ->
              List.length (b.Sofia.Protection.Backend.verify_against_source ~keys program image)))
    in
    (match disk with
     | Some d when !fresh ->
       let keys = keys_of () in
       let tag =
         match entry.Store.mac with
         | Some hex -> Int64.of_string ("0x" ^ hex)
         | None -> mac_of ~keys entry.Store.image
       in
       timed l.fs_write (fun () ->
           Fs.store_artifact d ~backend ~keys ~nonce ~source ~sfi:entry.Store.bytes
             ~expansion:entry.Store.expansion ~issues:(Some issues) ~mac_tag:tag)
     | _ -> ());
    issues
  in
  let run_config ?backend ks =
    { Cpu.Run_config.default with
      Cpu.Run_config.ks_cache_slots = ks;
      engine = Engine.default_config.Engine.engine;
      backend = Option.value backend ~default:Backend_id.Sofia }
  in
  match req.Job.spec with
  | Job.Protect { source } -> `Digest (entry_of source).Store.digest
  | Job.Verify { source } -> `Issues (issues_of source (entry_of source))
  | Job.Attest { source } ->
    let entry = entry_of source in
    ignore (issues_of source entry);
    ignore
      (Store.fill_mac entry (fun () ->
           Printf.sprintf "%016Lx" (mac_of ~keys:(keys_of ()) entry.Store.image)));
    `Digest entry.Store.digest
  | Job.Simulate { source; sofia = true } ->
    let entry = entry_of source in
    let keys = keys_of () in
    let r =
      timed ~cpu:true l.sofia_run (fun () ->
          Cpu.Sofia_runner.run
            ~config:(run_config ~backend Engine.default_config.Engine.ks_cache_slots)
            ?prefill:entry.Store.table ~keys entry.Store.image)
    in
    let s = r.Machine.stats in
    l.sofia_insns <- l.sofia_insns + s.Machine.instructions;
    Stat.add l.insns (float_of_int s.Machine.instructions);
    Stat.add l.blocks (float_of_int s.Machine.blocks_entered);
    Stat.add l.mac_words (float_of_int s.Machine.mac_words_fetched);
    `Outputs r.Machine.outputs
  | Job.Simulate { source; sofia = false } ->
    let program = assemble source in
    let r =
      timed ~cpu:true l.vanilla_run (fun () -> Cpu.Vanilla.run ~config:(run_config None) program)
    in
    l.vanilla_insns <- l.vanilla_insns + r.Machine.stats.Machine.instructions;
    Stat.add l.insns (float_of_int r.Machine.stats.Machine.instructions);
    `Outputs r.Machine.outputs
  | Job.Run_image _ | Job.Ping -> `Other

(* ---- the deterministic cycle ratio ----------------------------------- *)

(* Geometric mean over the workload's simulated programs of SOFIA-core
   over vanilla-core cycles: architectural, so it must not move when
   only simulator speed changes. *)
let cycle_ratio (w : Served.workload) pool =
  let simulates =
    List.exists
      (fun (_, op) -> match op with Traffic.Sim_sofia | Traffic.Sim_vanilla -> true | _ -> false)
      w.Served.shape.Traffic.mix
  in
  if not simulates then 0.0
  else
    Stat.geomean
      (Array.map
         (fun w ->
           let program = Sofia.Workloads.Workload.assemble w in
           let keys = Corpus.measured_key in
           let image = Tr.Transform.protect_exn ~keys ~nonce:1 program in
           let s = Cpu.Sofia_runner.run ~keys image and v = Cpu.Vanilla.run program in
           float_of_int s.Machine.stats.Machine.cycles
           /. float_of_int v.Machine.stats.Machine.cycles)
         pool)

(* ---- fleet view ------------------------------------------------------ *)

let fleet_metrics (r : Served.t) =
  let doc = Option.value r.Served.fleet_doc ~default:(J.Obj []) in
  let router k =
    match Option.bind (J.member "router" doc) (J.member k) with Some (J.Int v) -> v | _ -> 0
  in
  let routed =
    match J.member "shards" doc with
    | Some (J.List shards) ->
      Array.of_list
        (List.map
           (fun s -> match J.member "routed" s with Some (J.Int v) -> float_of_int v | _ -> 0.0)
           shards)
    | _ -> [||]
  in
  let replay_ms = Stat.buf () and child_ms = Stat.buf () and transit_ms = Stat.buf () in
  let log = r.Served.log in
  if r.Served.fleet_doc <> None then
    for i = r.Served.open_first to r.Served.closed_end - 1 do
      match J.parse_opt (Load.line log i) with
      | Some j -> (
        let num k =
          match J.member k j with
          | Some (J.Float f) -> Some f
          | Some (J.Int v) -> Some (float_of_int v)
          | _ -> None
        in
        (* the router answers replays itself, with zero attempts *)
        match (num "latency_ms", num "attempts") with
        | Some lat, Some attempts ->
          Stat.add (if attempts = 0.0 then replay_ms else child_ms) lat;
          Stat.add transit_ms (((log.Load.recv.(i) -. log.Load.sent.(i)) *. 1000.0) -. lat)
        | _ -> ())
      | None -> ()
    done;
  let mean = Stat.sum routed /. float_of_int (max 1 (Array.length routed)) in
  [
    ( "fleet.replay_ratio", "ratio",
      float_of_int (router "replays") /. float_of_int (max 1 (router "received")) );
    ("fleet.coalesced", "count", float_of_int (router "coalesced"));
    ("fleet.audits", "count", float_of_int (router "audits"));
    ( "fleet.routed_imbalance", "ratio",
      if mean > 0.0 then Array.fold_left Float.max 0.0 routed /. mean else 0.0 );
    ("fleet.router_ms_p50", "ms", Stat.median (Stat.samples replay_ms));
    ("fleet.child_ms_p50", "ms", Stat.median (Stat.samples child_ms));
    ("fleet.child_ms_p99", "ms", Stat.percentile 99.0 (Stat.samples child_ms));
    ("fleet.transit_ms_p50", "ms", Stat.median (Stat.samples transit_ms));
  ]

(* Simulated instructions per host second over the served closed loop. *)
let served_minsn_s (r : Served.t) =
  let log = r.Served.log in
  let insns = ref 0 in
  for i = r.Served.closed_first to r.Served.closed_end - 1 do
    match J.parse_opt (Load.line log i) with
    | Some j -> (
      match J.member "instructions" j with Some (J.Int n) -> insns := !insns + n | _ -> ())
    | None -> ()
  done;
  let span =
    log.Load.recv.(r.Served.closed_end - 1) -. log.Load.sent.(r.Served.closed_first)
  in
  if span > 0.0 then float_of_int !insns /. span /. 1e6 else 0.0

(* ---- the traced run ------------------------------------------------- *)

let rec dir_bytes d =
  Array.fold_left
    (fun acc n ->
      let p = Filename.concat d n in
      let st = Unix.lstat p in
      acc + if st.Unix.st_kind = Unix.S_DIR then dir_bytes p else st.Unix.st_size)
    0 (Sys.readdir d)

(* Compare one request's three answers: the in-process engine's [j]
   against the served one, and the layer pass's [mine] against [j]. *)
let compare_answers check (r : Served.t) i j mine =
  let id = Traffic.id_of i in
  if Check.status_of j <> "done" then
    Check.fail check "%s: in-process engine: %s" id (Check.status_of j)
  else if
    Check.payload j
    <> Check.payload (Option.value ~default:J.Null (J.parse_opt (Load.line r.Served.log i)))
  then Check.fail check "%s: in-process payload differs from the served one" id;
  let agrees =
    match mine with
    | `Digest d -> J.member "digest" j = Some (J.Str d)
    | `Issues n -> J.member "issues" j = Some (J.Int n)
    | `Outputs o -> J.member "outputs" j = Some (J.List (List.map (fun v -> J.Int v) o))
    | `Other -> true
  in
  if not agrees then Check.fail check "%s: layer pass disagrees with the engine" id

let run (ctx : Served.ctx) (w : Served.workload) (r : Served.t) =
  let check = Check.create () in
  let stream = r.Served.stream in
  let segments = Served.segments in
  let n_warm = r.Served.open_first in
  let n_open = (r.Served.closed_first - r.Served.open_first) / segments in
  let n_closed = (r.Served.closed_end - r.Served.closed_first) / segments in
  (* the warm-up, the first open-loop slice and the first two
     closed-loop slices: the first closed-loop slice measures the
     traced engine's closed-loop rate, the second is reconciled *)
  let order =
    Array.concat
      [
        Array.init n_warm Fun.id;
        Array.init n_open (fun k -> r.Served.open_first + k);
        Array.init (2 * n_closed) (fun k -> r.Served.closed_first + k);
      ]
  in
  let measured = Array.sub order n_warm (n_open + (2 * n_closed)) in
  let cap = r.Served.closed_end in
  (* both passes start from the store process A left behind *)
  let disk_copy name =
    if w.Served.populate = 0 then None
    else begin
      let d = Filename.concat ctx.Served.work name in
      Served.copy_dir (Served.populated_dir ctx) d;
      Some d
    end
  in
  let a_dir = disk_copy "trace-engine" in
  let b_dir = disk_copy "trace-layers" in
  let store = Store.create ~slots:Engine.default_config.Engine.store_slots in
  let disk = Option.map (fun dir -> Fs.open_store ~dir ()) b_dir in
  let b_bytes0 = Option.fold ~none:0 ~some:dir_bytes b_dir in
  let l = new_layers cap in
  let mine = Array.make cap `Other in
  (* may run inside the engine's callbacks, which swallow exceptions *)
  let layer i =
    mine.(i) <-
      (try execute l ~store ~disk (Traffic.request stream i) i with
       | Layer_error m ->
         Check.fail check "%s: %s" (Traffic.id_of i) m;
         `Other
       | e ->
         Check.fail check "%s: layer pass raised %s" (Traffic.id_of i) (Printexc.to_string e);
         `Other)
  in
  let st, e, traced_jps =
    engine_pass ctx w stream ~store_dir:a_dir ~cap ~order ~n_warm ~n_open ~n_closed ~layer
  in
  Array.iter
    (fun i ->
      match J.parse_opt st.lines.(i) with
      | None -> Check.fail check "%s: no in-process answer" (Traffic.id_of i)
      | Some j -> compare_answers check r i j mine.(i))
    order;
  if l.split_mismatches > 0 then
    Check.fail check "%d images: layout + encrypt differs from Transform.protect"
      l.split_mismatches;
  let corrupt =
    Option.fold ~none:0 ~some:Fs.corrupt disk
    + Option.fold ~none:0 ~some:Fs.corrupt (Engine.disk_store e)
  in
  if corrupt > 0 then Check.fail check "%d corrupt disk-store entries" corrupt;
  let over f = Array.map f measured in
  (* queue wait and service on the served run's open-loop schedule *)
  let open_idx = Array.sub measured 0 n_open in
  let queue_wait = Array.map (fun i -> st.dispatch.(i) -. st.submit.(i)) open_idx in
  let open_service = Array.map (fun i -> st.settle.(i) -. st.dispatch.(i)) open_idx in
  let med b scale = Stat.median (Stat.samples b) *. scale in
  let us = 1e6 and ms = 1e3 in
  let total b = Stat.sum (Stat.samples b) in
  (* reconciled over the requests the two passes ran in pairs *)
  let paired = Array.sub measured (n_open + n_closed) n_closed in
  let service = Array.map (fun i -> st.settle.(i) -. st.dispatch.(i)) paired in
  let attributed = Stat.sum (Array.map (fun i -> l.attributed.(i)) paired) in
  let estore = Engine.store e in
  let lookups = Store.hits estore + Store.misses estore in
  let fs_tries = l.fs_hits + l.fs_misses in
  let metrics =
    fleet_metrics r
    @ [
        ("wire.parse_us", "us", Stat.median (over (fun i -> st.parse_s.(i))) *. us);
        ("wire.render_us", "us", Stat.median (over (fun i -> st.render_s.(i))) *. us);
        ("engine.queue_wait_ms_p50", "ms", Stat.median queue_wait *. ms);
        ("engine.queue_wait_ms_p99", "ms", Stat.percentile 99.0 queue_wait *. ms);
        ("engine.service_ms_p50", "ms", Stat.median open_service *. ms);
        ("engine.service_ms_p99", "ms", Stat.percentile 99.0 open_service *. ms);
        ("engine.queue_depth_max", "count", float_of_int (Engine.queue_depth_max e));
        ( "store.hit_ratio", "ratio",
          if lookups = 0 then 0.0 else float_of_int (Store.hits estore) /. float_of_int lookups );
        ("store.evictions", "count", float_of_int (Store.evictions estore));
        ("asm.assemble_us", "us", med l.asm us);
        ("transform.layout_us", "us", med l.layout us);
        ("transform.encrypt_us.sofia", "us", med l.enc_sofia us);
        ("transform.encrypt_us.scfp", "us", med l.enc_scfp us);
        ("format.serialize_us", "us", med l.serialize us);
        ("format.fingerprint_us", "us", med l.fingerprint us);
        ("verify.check_us", "us", med l.verify us);
        ("crypto.cbc_mac_us", "us", med l.cbc_mac us);
        ("crypto.keygen_us", "us", med l.keygen us);
        ("cpu.sofia_run_ms", "ms", med l.sofia_run ms);
        ("cpu.vanilla_run_ms", "ms", med l.vanilla_run ms);
        ( "cpu.sofia_minsn_s", "Minsn/s",
          if l.sofia_insns = 0 then 0.0
          else float_of_int l.sofia_insns /. total l.sofia_run /. 1e6 );
        ( "cpu.vanilla_minsn_s", "Minsn/s",
          if l.vanilla_insns = 0 then 0.0
          else float_of_int l.vanilla_insns /. total l.vanilla_run /. 1e6 );
        ("cpu.table_build_ms", "ms", med l.table ms);
        ("cpu.insns_per_job", "count", med l.insns 1.0);
        ("cpu.blocks_entered", "count", med l.blocks 1.0);
        ("cpu.mac_words_fetched", "count", med l.mac_words 1.0);
        ("cpu.cycle_ratio", "ratio", cycle_ratio w (w.Served.pool ()));
        ( "cpu.service_share", "fraction",
          Stat.sum (Array.map (fun i -> l.cpu.(i)) paired) /. Stat.sum service );
        (* end-to-end figures too unsteady on a shared host to bound, or
           zero on workloads without simulate jobs *)
        ("e2e.p99_ms", "ms", r.Served.p99_ms);
        ("e2e.sim_minsn_s", "Minsn/s", served_minsn_s r);
        ("store_fs.load_ms", "ms", med l.fs_load ms);
        ("store_fs.write_ms", "ms", med l.fs_write ms);
        ( "store_fs.hit_ratio", "ratio",
          if fs_tries = 0 then 0.0 else float_of_int l.fs_hits /. float_of_int fs_tries );
        ("store_fs.corrupt", "count", float_of_int corrupt);
        ( "store_fs.bytes_written", "B",
          float_of_int (Option.fold ~none:0 ~some:dir_bytes b_dir - b_bytes0) );
        ("store_fs.populate_jps", "jobs/s", r.Served.populate_jps);
        ("trace.unattributed_frac", "fraction", 1.0 -. (attributed /. Stat.sum service));
        ("trace.overhead_frac", "fraction", 1.0 -. (traced_jps /. r.Served.throughput_jps));
        ("gen.late_p99_ms", "ms", r.Served.late_p99_ms);
        ("gen.cpu_frac", "fraction", r.Served.gen_cpu_frac);
      ]
  in
  { metrics; check }
