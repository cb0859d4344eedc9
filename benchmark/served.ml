(* One measured run against the real serving processes: set-up, an
   untimed warm-up, the open-loop phase, the closed-loop phase, then
   the correctness checks on every answer. *)

module J = Sofia.Obs.Json

type server = Serve | Fleet of int  (** children *)

type workload = {
  name : string;
  server : server;
  shape : Traffic.shape;
  pool : unit -> Sofia.Workloads.Workload.t array;
  warmup : int;  (** requests sent closed-loop before anything is timed *)
  open_rate : float;  (** jobs/s *)
  burst : int;  (** open-loop requests that arrive together *)
  cpu_bound_latency : bool;
      (** open-loop latency is mostly computation in user space, so it
          is scaled by the host's speed as throughput is; false where
          system calls or disk writes take most of it, which the speed
          kernel does not predict *)
  window : int;  (** closed-loop outstanding requests *)
  capacity : float;
      (** closed-loop jobs/s at {!Speed.reference} on the calibration
          host: sizes the closed-loop phase to take its share of the
          run there *)
  populate : int;
      (** > 0: a first process writes this many fresh jobs to a disk
          store, and the measured process is a restart on that store *)
}

type ctx = {
  cli : string;
  work : string;  (** directory for the servers' stores, sockets and logs *)
  env : string array;
  seconds : float;  (** measured time: open loop, then closed loop *)
  scale : float;  (** multiplies counts, for smoke runs *)
  seed : int;
  trace : bool;  (** keep what the traced passes need *)
}

let open_share = 0.6

(* set-up is timed this many times at each speed sample, so that its
   median covers the whole run: one spawn takes a few milliseconds and
   varies by tens of percent from one second to the next *)
let setup_spawns = 2

let scaled ctx n = max 1 (int_of_float (Float.round (float_of_int n *. ctx.scale)))

type t = {
  stream : Traffic.t;
  log : Load.log;
  open_first : int;
  closed_first : int;
  closed_end : int;
  setup_s : float;
  throughput_jps : float;
  p50_ms : float;
  p99_ms : float;
  rss_mb : float;
  late_p99_ms : float;
  gen_cpu_frac : float;
  attempted : int;
  failed : int;
  fleet_doc : J.t option;  (** [fleet --json] at exit *)
  populate_jps : float;  (** store-restart: process A's closed-loop rate *)
  check : Check.t;
}

let store_dir ctx = Filename.concat ctx.work "store"

(* store-restart: the store as process A left it, which set-up spawns
   open and traced runs copy *)
let populated_dir ctx = Filename.concat ctx.work "store-populated"

let copy_dir src dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun name ->
      let ic = open_in_bin (Filename.concat src name) in
      let data = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin (Filename.concat dst name) in
      output_string oc data;
      close_out oc)
    (Sys.readdir src)

let json_path ctx = Filename.concat ctx.work "server.json"

let setup_json_path ctx = Filename.concat ctx.work "setup.json"

(* The measured server's command line; [~setup:true], that of a set-up
   spawn, which leaves the measured server's files alone. *)
let argv ?(setup = false) ctx w =
  let json = if setup then setup_json_path ctx else json_path ctx in
  let dir = if setup then populated_dir ctx else store_dir ctx in
  let store = if w.populate > 0 then [ "--store-dir"; dir; "--json"; json ] else [] in
  match w.server with
  | Serve -> Array.of_list ([ ctx.cli; "serve"; "--stdin" ] @ store)
  | Fleet k -> [| ctx.cli; "fleet"; "--stdin"; "--children"; string_of_int k; "--json"; json |]

let err_path ctx = Filename.concat ctx.work "server.err"
let setup_err_path ctx = Filename.concat ctx.work "setup.err"

(* Render requests [0, n) now, so that sending them later is a copy. *)
let prerender stream n =
  for i = 0 to n - 1 do
    ignore (Traffic.tail stream i)
  done;
  Traffic.tail stream

let stream_seed ctx salt = Int64.logxor (Int64.of_int ctx.seed) salt

let check_exit check what = function
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> Check.fail check "%s exited with status %d" what c
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> Check.fail check "%s killed by signal %d" what s

(* Process A of store-restart: fresh jobs, closed loop, every one a
   disk write. Its keys are what the restarted process reads back. *)
let populate ctx w pool check oneshots =
  let shape = { w.shape with Traffic.reuse_pct = 0 } in
  let stream = Traffic.create ~seed:(stream_seed ctx 0xA11L) ~pool shape in
  let n = scaled ctx w.populate in
  let tail = prerender stream n in
  let p, _ = Load.start ~argv:(argv ctx w) ~env:ctx.env ~err_path:(err_path ctx) in
  let log = Load.create_log n in
  let reader = Load.start_reader log p in
  let t0 = Load.now () in
  ignore (Load.closed p log ~tail ~first:0 ~count:n ~window:w.window ~until:Float.infinity);
  ignore (Load.wait_all log);
  let jps = float_of_int n /. (Load.now () -. t0) in
  check_exit check "the populating process" (Load.finish p reader);
  copy_dir (store_dir ctx) (populated_dir ctx);
  Check.answers check ~oneshots ~stream ~log n;
  (stream, jps)

(* The host slows down by up to a third for seconds at a time and the
   servers stall now and then for tens of milliseconds (their
   collectors, or the host's). Each timed phase therefore runs as
   [segments] slices with a speed sample between consecutive slices:
   every slice's number is scaled by the speed around it (see {!Speed}).
   The run reports the p50 over every open-loop answer and the mean of
   the closed-loop slices' rates without the fastest and the slowest. *)
let segments = 6

let speed_sample_s ctx = Float.max 0.005 (0.25 *. ctx.scale)

type segment = { first : int; last : int; speed : float }

(* Scale a rate measured at host speed [speed] to the reference speed,
   and a time the other way. *)
let rate_at_reference seg r = r *. Speed.reference /. seg.speed
let time_at_reference seg t = t *. seg.speed /. Speed.reference

(* Done responses per second of one closed-loop slice, between its
   first 10% of responses (the window filling) and its last [window]
   (the window draining). *)
let slice_throughput log ~window seg =
  let ts = Stat.sorted (Array.sub log.Load.recv seg.first (seg.last - seg.first)) in
  let n = Array.length ts in
  let k0 = n / 10 and k1 = n - 1 - min window (n / 10) in
  if k1 <= k0 then 0.0
  else begin
    let done_ = ref 0 in
    for i = seg.first to seg.last - 1 do
      let t = log.Load.recv.(i) in
      if t > ts.(k0) && t <= ts.(k1) && Load.is_done log i then incr done_
    done;
    float_of_int !done_ /. (ts.(k1) -. ts.(k0))
  end

let read_json path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    let s = really_input_string ic (in_channel_length ic) in
    close_in_noerr ic;
    J.parse_opt s

let shuffle ctx keys =
  let keys = Array.copy keys in
  Sofia.Util.Prng.shuffle (Sofia.Util.Prng.create ~seed:(stream_seed ctx 0x5FFL)) keys;
  keys

let run ctx w =
  let check = Check.create () in
  let oneshots = Hashtbl.create 1024 in
  let pool = w.pool () in
  let populated, populate_jps =
    if w.populate > 0 then begin
      let s, jps = populate ctx w pool check oneshots in
      (Some s, jps)
    end
    else (None, 0.0)
  in
  let stream =
    match populated with
    | Some a ->
      Traffic.create ~first_kid:a.Traffic.next_kid
        ~reuse:(shuffle ctx (Traffic.keys a a.Traffic.len))
        ~seed:(stream_seed ctx 0L) ~pool w.shape
    | None -> Traffic.create ~seed:(stream_seed ctx 0L) ~pool w.shape
  in
  let p, _ = Load.start ~argv:(argv ctx w) ~env:ctx.env ~err_path:(err_path ctx) in
  let open_s = ctx.seconds *. open_share and closed_s = ctx.seconds *. (1.0 -. open_share) in
  let n_warm = scaled ctx w.warmup in
  let per_burst = segments * w.burst in
  let n_open = per_burst * max 1 (int_of_float (w.open_rate *. open_s) / per_burst) in
  let per_closed = max 1 (int_of_float (w.capacity *. closed_s /. float_of_int segments)) in
  let log = Load.create_log (n_warm + n_open + (segments * per_closed)) in
  let tail = prerender stream log.Load.cap in
  let reader = Load.start_reader log p in
  ignore (Load.closed p log ~tail ~first:0 ~count:n_warm ~window:w.window ~until:Float.infinity);
  ignore (Load.wait_all log);
  let pids =
    match w.server with
    | Serve -> [ p.Load.pid ]
    | Fleet _ -> p.Load.pid :: Load.fleet_children p.Load.err_path
  in
  (* The open loop runs on one CPU: the servers and both generator
     threads are moved to the lowest CPU this process may use, so every
     hand-off between them is a switch on a running CPU rather than a
     wake-up of an idle one, whose cost the host decides. The closed
     loop gets every CPU back. *)
  let cpus = Affinity.current () in
  let pin mask =
    if cpus <> 0 && not (Affinity.set (Unix.getpid () :: pids) mask) then
      prerr_endline "benchmark: could not set the CPU affinity of every thread"
  in
  pin (Affinity.lowest cpus);
  (* Between slices, with the measured server idle: the host's speed on
     every CPU, and set-up timed again from a thread free to use every
     CPU, as the measured server was started. A serving process's
     set-up is computation (runtime start, store open and scan) and is
     scaled by the speed just measured; the fleet's is mostly its
     router polling for the children's sockets every 5 ms, and is
     reported as measured. *)
  let setup = Stat.buf () in
  let setup_argv = argv ~setup:true ctx w in
  let checkpoint () =
    let speeds = Speed.per_cpu (speed_sample_s ctx) cpus in
    let back = Affinity.current () in
    if cpus <> 0 then ignore (Affinity.set_thread 0 cpus);
    for _ = 1 to setup_spawns do
      let q, s = Load.start ~argv:setup_argv ~env:ctx.env ~err_path:(setup_err_path ctx) in
      ignore (Load.stop q);
      Stat.add setup
        (match w.server with
         | Serve -> s *. Speed.mean speeds /. Speed.reference
         | Fleet _ -> s)
    done;
    if cpus <> 0 then ignore (Affinity.set_thread 0 back);
    speeds
  in
  (* generator accounting covers the timed slices only *)
  let busy_cpu = ref 0.0 and busy_wall = ref 0.0 in
  let before = ref (checkpoint ()) in
  (* an open-loop slice is scaled by the speed of the CPU it ran on, a
     closed-loop slice by the mean over all of them *)
  let slice ~pinned first f =
    let cpu0 = Load.cpu_s () and wall0 = Load.now () in
    let last = f () in
    ignore (Load.wait_all log);
    busy_cpu := !busy_cpu +. (Load.cpu_s () -. cpu0);
    busy_wall := !busy_wall +. (Load.now () -. wall0);
    let after = checkpoint () in
    let at s = if pinned then s.(0) else Speed.mean s in
    let seg = { first; last; speed = (at !before +. at after) /. 2.0 } in
    before := after;
    seg
  in
  let per_open = n_open / segments in
  let late = Stat.buf () in
  let open_segs =
    List.init segments (fun k ->
        let first = n_warm + (k * per_open) in
        slice ~pinned:true first (fun () ->
            Array.iter (Stat.add late)
              (Load.open_loop p log ~tail ~first ~n:per_open ~rate:w.open_rate ~burst:w.burst);
            first + per_open))
  in
  pin cpus;
  let closed_first = n_warm + n_open in
  let closed_segs =
    let next = ref closed_first in
    List.init segments (fun _ ->
        let first = !next in
        let seg =
          (* a fixed count, so every run does the same work; the time
             cap only stops a server several times slower than the
             calibration host *)
          slice ~pinned:false first (fun () ->
              Load.closed p log ~tail ~first ~count:per_closed ~window:w.window
                ~until:(Load.now () +. (4.0 *. closed_s /. float_of_int segments)))
        in
        next := seg.last;
        seg)
  in
  let closed_end = (List.nth closed_segs (segments - 1)).last in
  let rss_kb = List.fold_left (fun acc pid -> acc + Load.vm_hwm_kb pid) 0 pids in
  check_exit check "the server" (Load.finish p reader);
  (* an unanswered request is a failure, and misses every latency limit *)
  let latencies seg =
    Array.init (seg.last - seg.first) (fun k ->
        let i = seg.first + k in
        let ms = (log.Load.recv.(i) -. log.Load.due.(i)) *. 1000.0 in
        if Float.is_nan ms then Float.infinity
        else if w.cpu_bound_latency then time_at_reference seg ms
        else ms)
  in
  let open_latencies = Array.concat (List.map latencies open_segs) in
  Check.answers check ~oneshots ~stream ~log closed_end;
  let failed = ref 0 in
  for i = n_warm to closed_end - 1 do
    if not (Load.is_done log i) then incr failed
  done;
  let doc = read_json (json_path ctx) in
  let fleet_doc = match w.server with Fleet _ -> doc | Serve -> None in
  if w.populate > 0 then begin
    let disk k =
      match Option.bind doc (J.member "disk") with
      | Some d -> (match J.member k d with Some (J.Int v) -> v | _ -> -1)
      | None -> -1
    in
    if disk "hits" <= 0 then Check.fail check "restarted process: no disk-store hits";
    if disk "corrupt" <> 0 then
      Check.fail check "restarted process: %d corrupt disk entries" (disk "corrupt")
  end;
  {
    stream;
    log;
    open_first = n_warm;
    closed_first;
    closed_end;
    setup_s = Stat.median (Stat.samples setup);
    throughput_jps =
      Stat.trimmed_mean
        (Array.of_list
           (List.map
              (fun seg -> rate_at_reference seg (slice_throughput log ~window:w.window seg))
              closed_segs));
    p50_ms = Stat.percentile 50.0 open_latencies;
    p99_ms = Stat.percentile 99.0 open_latencies;
    rss_mb = float_of_int rss_kb /. 1024.0;
    late_p99_ms = Stat.percentile 99.0 (Stat.samples late) *. 1000.0;
    gen_cpu_frac = !busy_cpu /. !busy_wall;
    attempted = closed_end - n_warm;
    failed = !failed;
    fleet_doc;
    populate_jps;
    check;
  }
