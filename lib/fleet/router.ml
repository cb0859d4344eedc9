(* The fleet router: N `sofia_cli serve --socket --once` children behind
   one single-threaded select loop that shards jobs by image content
   hash (Shard.route), with PR 4's supervision machinery promoted one
   level up — watchdog, crash-restart with exponential backoff and a
   restart-budget window, circuit breaker and graceful drain now act on
   whole processes, which (unlike OCaml domains) can actually be
   killed. The loop serves any number of concurrent clients (pipes,
   AF_UNIX or TCP accepts) with per-client read/write buffers, so one
   stalled reader never blocks the fleet.

   Trust model (DESIGN §13/§15): children are untrusted-but-supervised.
   The router never constructs a payload itself — every byte of a
   client-visible payload was produced by a child behind the full
   MAC-before-anything-runnable pipeline — but it does hold children to
   account: deterministic ops are content-keyed, duplicate answers are
   replayed from a router-side cache (so one shard's lie cannot fan
   out past its first victim), and a configurable audit sample
   re-dispatches jobs to a second shard and compares response content
   hashes, with a third-shard majority vote deciding which child lied.

   Quarantine has a two-cause taxonomy. A child caught lying about a
   content hash is quarantined for INTEGRITY: killed, never restarted,
   its traffic re-shed to healthy shards. A child quarantined by the
   BREAKER (repeated deaths, exhausted restart budget) is merely
   suspected of a bad environment: after a cooldown it is restarted on
   probation and must answer K consecutive clean probes before it is
   re-admitted and its traffic dynamically re-shed back home.

   The replay cache can persist across router restarts through the §12
   store_fs envelope tier (config.replay_dir): each settled done
   response is sealed as a Replay envelope under the request's own
   keys, and a reload is zero-trust — envelope structure, CRC, CBC-MAC,
   source compare, and a re-derived payload fingerprint must all pass
   before a byte of it is ever replayed to a client. *)

module Job = Sofia_service.Job
module J = Sofia_obs.Json
module Obs = Sofia_obs.Obs
module Event = Sofia_obs.Event
module Clock = Sofia_util.Clock
module Fs = Sofia_store_fs.Store_fs
module Keys = Sofia_crypto.Keys
module Lru = Sofia_util.Lru
module Lines = Sofia_util.Lines

type event =
  | Client_response of int  (** running count of client-visible job responses *)
  | Child_up of int * int  (** shard, pid *)
  | Child_down of int * string  (** shard, reason *)
  | Child_rejoin of int * int  (** shard, ss_routed at re-admission *)

type config = {
  children : int;
  workers : int;
  queue : int;
  cli : string option;
  socket_dir : string option;
  store_dir : string option;
  store_budget : int;
  engine : Sofia_cpu.Run_config.engine;
  backend : Sofia_transform.Backend_id.t;
  default_deadline_ms : int option;
  window : int;
  audit_every : int;
  probe_interval_ms : int;
  hang_timeout_ms : int;
  breaker_threshold : int;
  redispatch_limit : int;
  child_extra_args : (int -> string list) option;
  on_event : (event -> unit) option;
  replay_dir : string option;
  rejoin_cooldown_ms : int;
  rejoin_probes : int;
  restart_backoff_ms : int;
  restart_budget : int;
  restart_budget_window_ms : int;
  client_linger_ms : int;
}

let default_config =
  {
    children = 3;
    workers = 1;
    queue = 64;
    cli = None;
    socket_dir = None;
    store_dir = None;
    store_budget = 0;
    engine = Sofia_cpu.Run_config.Fast;
    backend = Sofia_transform.Backend_id.Sofia;
    default_deadline_ms = None;
    window = 32;
    audit_every = 16;
    probe_interval_ms = 250;
    hang_timeout_ms = 5_000;
    breaker_threshold = 3;
    redispatch_limit = 2;
    child_extra_args = None;
    on_event = None;
    replay_dir = None;
    rejoin_cooldown_ms = 30_000;
    rejoin_probes = 3;
    restart_backoff_ms = 25;
    restart_budget = 6;
    restart_budget_window_ms = 10_000;
    client_linger_ms = 5_000;
  }

type shard_stats = {
  ss_shard : int;
  mutable ss_routed : int;  (* primary dispatches sent to this shard *)
  mutable ss_done : int;  (* client-visible done responses it served *)
  mutable ss_deaths : int;
  mutable ss_restarts : int;
  mutable ss_hangs : int;
  mutable ss_quarantined : bool;
  ss_lat_ms : float array;  (* ring of the last [latency_samples] router-observed latencies *)
  mutable ss_lat_n : int;  (* latencies ever recorded *)
}

(* The per-shard latency ring: p50/p99 describe the most recent jobs,
   and a router that serves for months holds 32 KiB per shard. *)
let latency_samples = 4096

type stats = {
  mutable received : int;
  mutable malformed : int;
  mutable submitted : int;
  mutable done_ : int;
  mutable rejected : int;
  mutable timed_out : int;
  mutable failed : int;
  mutable replays : int;
  mutable coalesced : int;
  mutable audits : int;
  mutable digest_conflicts : int;
  mutable deaths : int;
  mutable restarts : int;
  mutable hangs : int;
  mutable quarantines : int;
  mutable resheds : int;
  mutable interrupted : bool;
  mutable backoffs : int;  (* deferred restarts scheduled *)
  mutable rejoins : int;  (* quarantined shards re-admitted after probation *)
  mutable quar_breaker : int;
  mutable quar_integrity : int;
  mutable disk_replays : int;  (* replays served from the persistent tier *)
  mutable slow_client_drops : int;
  shards : shard_stats array;
}

let conserved s = s.submitted = s.done_ + s.rejected + s.timed_out + s.failed

type kind =
  | Primary
  | Audit of string  (* internal id of the audited primary *)
  | Tiebreak of string
  | Probe

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
  mutable cl_pending : int;  (* admitted, not yet answered *)
  mutable cl_drain_deadline : float;  (* 0.0 = buffer empty / no deadline *)
  cl_owned : bool;  (* accepted by us: we close the fds *)
}

(* Why a shard is out of service. Breaker quarantines are eligible for
   probation rejoin; integrity quarantines are permanent — a child that
   lied about a content hash is never trusted again. *)
type quarantine_cause = Breaker | Integrity

type dispatch = {
  d_iid : string;  (* internal wire id — the router renames jobs on the child hop *)
  d_req : Job.request;  (* original request, client id inside *)
  d_key : string;  (* content key; "" when not replayable *)
  d_seq : int;
  d_admit : float;  (* mono *)
  d_kind : kind;
  d_client : client;  (* who gets the answer; the sink for router-internal work *)
  mutable d_tries : int;  (* child incarnations consumed *)
  mutable d_shard : int;
}

(* A duplicate of an in-flight content key, parked until the primary
   settles. *)
type waiter = { w_id : string; w_seq : int; w_admit : float; w_client : client }

(* One audited primary: both responses stashed until the verdict. *)
type audit_state = {
  a_primary : dispatch;
  mutable a_p_fields : (string * J.t) list option;  (* rewritten, unemitted *)
  mutable a_p_fp : string option;
  mutable a_a_shard : int;
  mutable a_a_fp : string option;
  mutable a_t_shard : int;  (* tiebreak shard, -1 until needed *)
  mutable a_abandoned : bool;  (* the audit died with its child *)
}

(* A settled done-response, pre-rendered for replay: the payload tail
   (the expensive part — it carries the image summary) is serialized
   once at fill time, and each replay only renders the nine small
   metadata scalars. Byte-compatible with Job.response_to_line's field
   order. *)
type cached = {
  t_op : string;
  t_status : string;
  t_worker : int;  (* origin shard, surfaced on every replay *)
  t_ts : J.t;  (* origin ts_unix, replays keep it (provenance, not schedule) *)
  t_tail : string;  (* ",\"k\":v,..." — payload fields, rendered; "" if none *)
}

type child_state = {
  c : Child.proc;
  cs : shard_stats;
  mutable c_outstanding : (string, dispatch) Hashtbl.t;
  c_queue : dispatch Queue.t;
  mutable c_last_rx : float;
  mutable c_consec_deaths : int;
  mutable c_probe_out : bool;
  mutable c_args : string list;
  mutable c_quar : quarantine_cause option;
  mutable c_quar_since : float;
  mutable c_probation : int;  (* clean probes so far; -1 = not on probation *)
  mutable c_restart_at : float;  (* deferred restart due time; 0.0 = none *)
  mutable c_restart_times : float list;  (* restart budget window, newest first *)
}

type t = {
  cfg : config;
  cli : string;
  dir : string;
  dir_created : bool;
  stats : stats;
  obs : Obs.t;
  kids : child_state array;
  cache : (string, cached) Lru.t;  (* content key -> rendered template *)
  memo : (string, string) Lru.t;  (* raw request tail -> content key, shared with [cache] *)
  waiters : (string, waiter list ref) Hashtbl.t;  (* key -> parked duplicates *)
  audits : (string, audit_state) Hashtbl.t;  (* primary iid -> state *)
  mutable next_seq : int;
  mutable next_iid : int;
  mutable completion : int;
  mutable distinct_keys : int;  (* drives the audit sampling cadence *)
  mutable settled : int;  (* client-visible job responses emitted *)
  mutable stop : bool;
  mutable clients : client list;
  mutable next_client : int;
  sink : client;  (* never-written destination for router-internal dispatches *)
  mutable listen : Unix.file_descr option;
  mutable accepts_left : int;  (* 0 = no more accepts; < 0 = unlimited *)
  mutable rng : int64;  (* deterministic jitter state *)
  rstore : Fs.t option;  (* persistent replay tier, when configured *)
}

(* Entries each of [memo] and [cache] may hold. An evicted key only
   falls back to paths that exist anyway — a full parse, coalescing,
   the zero-trust disk reload, a child — so the cap trades a recompute
   for flat memory and can never serve a wrong or unverified payload
   (DESIGN §13). *)
let replay_cap = 1024

let fire t e = match t.cfg.on_event with Some f -> f e | None -> ()

let emit_obs t kind detail =
  if Obs.tracing t.obs then Obs.emit t.obs (Event.Service_error { kind; detail })

(* Bounded deterministic jitter (an LCG stepped per draw): restart
   storms across shards de-synchronize without consulting any global
   randomness the tests could not replay. *)
let jitter t bound =
  t.rng <- Int64.add (Int64.mul t.rng 6364136223846793005L) 1442695040888963407L;
  Int64.to_int (Int64.rem (Int64.shift_right_logical t.rng 33) (Int64.of_int (max 1 bound)))

(* crash-restart backoff cap: the doubling delay stops growing here *)
let restart_backoff_max_ms = 2_000

(* ---- client output ------------------------------------------------ *)

(* Push as much buffered output as the client will take right now.
   Blocking fds (the legacy pipe front) drain fully — our NDJSON can
   tear only if the client never reads it; nonblocking fds (accepted
   sockets, fault-scenario pipes) keep the remainder buffered for the
   select loop's write set. A vanished client flips [cl_gone]; jobs
   keep settling internally so the terminal counters still conserve. *)
let flush_client cl =
  if (not cl.cl_gone) && Buffer.length cl.cl_wbuf > 0 then begin
    let s = Buffer.contents cl.cl_wbuf in
    let len = String.length s in
    let data = Bytes.unsafe_of_string s in
    let rec push off =
      if off >= len then begin
        Buffer.clear cl.cl_wbuf;
        cl.cl_drain_deadline <- 0.0
      end
      else
        match Unix.write cl.cl_out data off (len - off) with
        | n -> push (off + n)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> push off
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          Buffer.clear cl.cl_wbuf;
          Buffer.add_substring cl.cl_wbuf s off (len - off)
    in
    try push 0
    with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
      Buffer.clear cl.cl_wbuf;
      cl.cl_gone <- true
  end

let write_client cl line =
  if not cl.cl_gone then begin
    Buffer.add_string cl.cl_wbuf line;
    Buffer.add_char cl.cl_wbuf '\n';
    flush_client cl
  end

(* Every admitted request is answered exactly once; [deliver] is the
   single place that retires the admission debt. *)
let deliver cl line =
  cl.cl_pending <- cl.cl_pending - 1;
  write_client cl line

(* ---- response JSON plumbing --------------------------------------- *)

let volatile_fields = [ "id"; "seq"; "completion"; "attempts"; "worker"; "latency_ms"; "ts_unix" ]

(* The content fingerprint of a response: every field except scheduling
   metadata and the store-provenance bit. Two honest children answering
   the same content key MUST agree on this (determinism end to end);
   this is what the audit vote compares. *)
let payload_fp fields =
  let keep (k, _) = not (List.mem k volatile_fields || k = "cached") in
  J.to_string (J.Obj (List.filter keep fields))

let set_field fields k v =
  if List.mem_assoc k fields then
    List.map (fun (k', v') -> if k' = k then (k, v) else (k', v')) fields
  else fields @ [ (k, v) ]

let get_str fields k =
  match List.assoc_opt k fields with Some (J.Str s) -> Some s | _ -> None

let count_status t ss status latency_ms =
  (match status with
   | "done" ->
     t.stats.done_ <- t.stats.done_ + 1;
     (match ss with Some s -> s.ss_done <- s.ss_done + 1 | None -> ())
   | "rejected" -> t.stats.rejected <- t.stats.rejected + 1
   | "timed_out" -> t.stats.timed_out <- t.stats.timed_out + 1
   | _ -> t.stats.failed <- t.stats.failed + 1);
  (match ss with
   | Some s ->
     s.ss_lat_ms.(s.ss_lat_n mod latency_samples) <- latency_ms;
     s.ss_lat_n <- s.ss_lat_n + 1
   | None -> ());
  t.settled <- t.settled + 1;
  fire t (Client_response t.settled)

(* Emit one client-visible response from template fields, rewriting the
   per-request metadata. [shard_stats] attributes done-counts/latency to
   the serving shard (None for router-origin verdicts and replays). *)
let emit_from_fields t cl ~id ~seq ~admit ~attempts ~worker ~shard_stats fields =
  let lat = (Clock.mono_s () -. admit) *. 1000.0 in
  let fields =
    set_field
      (set_field
         (set_field
            (set_field
               (set_field (set_field fields "id" (J.Str id)) "seq" (J.Int seq))
               "completion" (J.Int t.completion))
            "attempts" (J.Int attempts))
         "worker" (J.Int worker))
      "latency_ms" (J.Float lat)
  in
  t.completion <- t.completion + 1;
  let status = Option.value ~default:"failed" (get_str fields "status") in
  count_status t shard_stats status lat;
  deliver cl (J.to_string (J.Obj fields))

let metadata_fields =
  [ "id"; "op"; "status"; "seq"; "completion"; "attempts"; "worker"; "latency_ms"; "ts_unix" ]

let make_cached ~worker fields =
  let payload = List.filter (fun (k, _) -> not (List.mem k metadata_fields)) fields in
  let tail =
    match payload with
    | [] -> ""
    | _ ->
      let s = J.to_string (J.Obj payload) in
      "," ^ String.sub s 1 (String.length s - 2)
  in
  {
    t_op = Option.value ~default:"?" (get_str fields "op");
    t_status = Option.value ~default:"done" (get_str fields "status");
    t_worker = worker;
    t_ts = Option.value ~default:(J.Float 0.0) (List.assoc_opt "ts_unix" fields);
    t_tail = tail;
  }

(* The replay fast path: serialize only the metadata head and splice the
   pre-rendered payload tail — a duplicate costs microseconds, which is
   where the fleet's throughput edge over a single-process serve comes
   from on duplicate-heavy mixes. *)
let emit_replay t cl ~id ~seq ~admit (c : cached) =
  let lat = (Clock.mono_s () -. admit) *. 1000.0 in
  let head =
    J.to_string
      (J.Obj
         [ ("id", J.Str id); ("op", J.Str c.t_op); ("status", J.Str c.t_status);
           ("seq", J.Int seq); ("completion", J.Int t.completion); ("attempts", J.Int 0);
           ("worker", J.Int c.t_worker); ("latency_ms", J.Float lat); ("ts_unix", c.t_ts) ])
  in
  t.completion <- t.completion + 1;
  t.stats.replays <- t.stats.replays + 1;
  count_status t None c.t_status lat;
  deliver cl (String.sub head 0 (String.length head - 1) ^ c.t_tail ^ "}")

(* A verdict the router itself must hand down (no healthy shard, a job
   that kills every child it touches, an unresolved integrity conflict).
   Honest failure, standard wire schema. *)
let emit_router_failure t cl ~id ~op ~seq ~admit msg =
  let resp =
    {
      Job.id;
      op;
      seq;
      completion = t.completion;
      attempts = 0;
      worker = -1;
      latency_ms = (Clock.mono_s () -. admit) *. 1000.0;
      ts = Clock.wall_s ();
      status = Job.Failed msg;
    }
  in
  t.completion <- t.completion + 1;
  count_status t None "failed" resp.Job.latency_ms;
  deliver cl (Job.response_to_line resp)

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

let cached_payload (c : cached) =
  Bytes.of_string
    (J.to_string
       (J.Obj
          [ ("op", J.Str c.t_op); ("status", J.Str c.t_status);
            ("worker", J.Int c.t_worker); ("ts", c.t_ts); ("tail", J.Str c.t_tail) ]))

let cached_of_payload payload =
  match J.parse_opt (Bytes.to_string payload) with
  | Some (J.Obj fields) -> (
    match
      ( get_str fields "op", get_str fields "status",
        List.assoc_opt "worker" fields, List.assoc_opt "ts" fields,
        get_str fields "tail" )
    with
    | Some op, Some status, Some (J.Int worker), Some ts, Some tail ->
      Some { t_op = op; t_status = status; t_worker = worker; t_ts = ts; t_tail = tail }
    | _ -> None)
  | _ -> None

let disk_replay_store t (req : Job.request) key c =
  match t.rstore with
  | Some rs when key <> "" ->
    Fs.store_replay rs ~backend:req.Job.backend ~keys:(Keys.generate ~seed:req.Job.key_seed)
      ~nonce:req.Job.nonce ~source:key ~payload:(cached_payload c)
  | _ -> ()

let disk_replay_load t (req : Job.request) key =
  match t.rstore with
  | Some rs when key <> "" ->
    Option.bind
      (Fs.load_replay rs ~backend:req.Job.backend ~keys:(Keys.generate ~seed:req.Job.key_seed)
         ~nonce:req.Job.nonce ~source:key)
      cached_of_payload
  | _ -> None

(* ---- shard selection ---------------------------------------------- *)

let healthy t k = not t.kids.(k).cs.ss_quarantined

let healthy_count t =
  Array.fold_left (fun n k -> if k.cs.ss_quarantined then n else n + 1) 0 t.kids

(* Content-hash routing with quarantine fallback: a quarantined home
   shard re-sheds deterministically to the next healthy one (scanning
   up), so even degraded routing stays a pure function of (request,
   quarantine set). A rejoined shard becomes healthy again, so its
   traffic re-sheds back home through this same function. *)
let effective_shard t req =
  let n = Array.length t.kids in
  let s0 = Shard.route ~shards:n req in
  if healthy t s0 then Some s0
  else begin
    let rec scan i = if i = n then None
      else if healthy t ((s0 + i) mod n) then Some ((s0 + i) mod n)
      else scan (i + 1)
    in
    match scan 1 with
    | Some s ->
      t.stats.resheds <- t.stats.resheds + 1;
      Some s
    | None -> None
  end

let next_healthy_excluding t ~avoid =
  let n = Array.length t.kids in
  let rec scan i =
    if i = n then None
    else if (not (List.mem i avoid)) && healthy t i then Some i
    else scan (i + 1)
  in
  scan 0

(* ---- child spawn / args ------------------------------------------- *)

let child_args t k =
  let sock = Filename.concat t.dir (Printf.sprintf "shard-%d.sock" k) in
  let base =
    [
      "serve"; "--socket"; sock; "--once"; "--shard"; string_of_int k;
      "--workers"; string_of_int t.cfg.workers;
      "--queue"; string_of_int t.cfg.queue;
      "--json"; Filename.concat t.dir (Printf.sprintf "metrics-%d.json" k);
    ]
  in
  let engine = [ "--engine"; Sofia_cpu.Run_config.engine_name t.cfg.engine ] in
  (* passed only when non-default, so an all-SOFIA fleet spawns its
     children with the exact pre-backend command line *)
  let backend =
    match t.cfg.backend with
    | Sofia_transform.Backend_id.Sofia -> []
    | b -> [ "--backend"; Sofia_transform.Backend_id.name b ]
  in
  let store =
    match t.cfg.store_dir with
    | Some d ->
      [ "--store-dir"; Filename.concat d (Printf.sprintf "shard-%d" k) ]
      @ (if t.cfg.store_budget > 0 then [ "--store-budget"; string_of_int t.cfg.store_budget ]
         else [])
    | None -> []
  in
  let deadline =
    match t.cfg.default_deadline_ms with
    | Some d -> [ "--deadline-ms"; string_of_int d ]
    | None -> []
  in
  let extra = match t.cfg.child_extra_args with Some f -> f k | None -> [] in
  (sock, base @ engine @ backend @ store @ deadline @ extra)

(* ---- dispatch plumbing -------------------------------------------- *)

let request_line d =
  J.to_string (Job.request_to_json { d.d_req with Job.id = d.d_iid })

let rec pump t k =
  let ch = t.kids.(k) in
  if
    (not ch.cs.ss_quarantined)
    && ch.c.Child.fd <> None
    && Hashtbl.length ch.c_outstanding < t.cfg.window
    && not (Queue.is_empty ch.c_queue)
  then begin
    let d = Queue.pop ch.c_queue in
    d.d_shard <- k;
    Hashtbl.replace ch.c_outstanding d.d_iid d;
    (match d.d_kind with
     | Primary ->
       ch.cs.ss_routed <- ch.cs.ss_routed + 1
     | _ -> ());
    if Child.send_line ch.c (request_line d) then pump t k
    else handle_death t k "write failed"
  end

and enqueue t k d =
  Queue.push d t.kids.(k).c_queue;
  pump t k

(* ---- supervision: death, hang, breaker, quarantine ---------------- *)

(* A child died (EOF, failed write, or the watchdog killed it). Its
   in-flight and queued work is accounted for exactly once: primaries
   are re-dispatched to the replacement (or re-shed / failed once their
   incarnation budget is gone), audits are abandoned in the primary's
   favour, probes evaporate. Mirrors PR 4's worker-crash rule — record
   the death and schedule the replacement BEFORE settling the victims —
   at process scope. The replacement is deferred: exponential backoff
   with jitter, bounded by a restart budget over a sliding window, so a
   poison environment produces a paced, bounded restart storm rather
   than a hot loop. *)
and handle_death t k reason =
  let ch = t.kids.(k) in
  if ch.c.Child.fd <> None || Child.alive ch.c.Child.pid then begin
    if ch.cs.ss_quarantined then begin
      (* a probation incarnation died: the shard is already out of
         service and owes no client anything beyond probes — back to
         cooldown, no death accounting *)
      Hashtbl.reset ch.c_outstanding;
      Queue.clear ch.c_queue;
      ch.c_probe_out <- false;
      Child.kill ch.c;
      ch.c_probation <- -1;
      ch.c_quar_since <- Clock.mono_s ();
      emit_obs t "fleet_probation_death" (Printf.sprintf "shard %d: %s" k reason)
    end
    else begin
      let orphans = Hashtbl.fold (fun _ d acc -> d :: acc) ch.c_outstanding [] in
      let parked = List.of_seq (Queue.to_seq ch.c_queue) in
      Hashtbl.reset ch.c_outstanding;
      Queue.clear ch.c_queue;
      ch.c_probe_out <- false;
      Child.kill ch.c;
      t.stats.deaths <- t.stats.deaths + 1;
      ch.cs.ss_deaths <- ch.cs.ss_deaths + 1;
      ch.c_consec_deaths <- ch.c_consec_deaths + 1;
      emit_obs t "fleet_child_death"
        (Printf.sprintf "shard %d: %s (consecutive %d)" k reason ch.c_consec_deaths);
      fire t (Child_down (k, reason));
      let tripped =
        t.cfg.breaker_threshold > 0 && ch.c_consec_deaths >= t.cfg.breaker_threshold
      in
      if tripped then quarantine t k ~cause:Breaker "breaker: repeated child deaths"
      else begin
        let now = Clock.mono_s () in
        let window_s = float_of_int t.cfg.restart_budget_window_ms /. 1000.0 in
        ch.c_restart_times <-
          List.filter (fun ts -> now -. ts <= window_s) ch.c_restart_times;
        if
          t.cfg.restart_budget > 0
          && List.length ch.c_restart_times >= t.cfg.restart_budget
        then quarantine t k ~cause:Breaker "restart budget exhausted"
        else begin
          (* schedule the replacement: 2^(deaths-1) * base, capped, plus
             up to 25% deterministic jitter *)
          let expo =
            min restart_backoff_max_ms
              (max 1 t.cfg.restart_backoff_ms
               * (1 lsl min 16 (max 0 (ch.c_consec_deaths - 1))))
          in
          let delay_ms = expo + jitter t ((expo / 4) + 1) in
          ch.c_restart_at <- now +. (float_of_int delay_ms /. 1000.0);
          t.stats.backoffs <- t.stats.backoffs + 1;
          emit_obs t "fleet_restart_backoff"
            (Printf.sprintf "shard %d: restart in %dms (death %d)" k delay_ms
               ch.c_consec_deaths)
        end
      end;
      (* settle the orphans only after the supervision state is updated;
         orphans first so a killer job re-dispatches ahead of parked work
         (keeping its deaths consecutive for the breaker), and only
         orphans consume an incarnation try — a parked job never touched
         the dead child. Work re-routed to this same (still healthy)
         shard parks in its queue until the deferred restart pumps it. *)
      List.iter (redispatch t ~dispatched:true) (List.rev orphans);
      List.iter (redispatch t ~dispatched:false) parked
    end
  end

(* Removal from service: the breaker at process scope, and the only
   correct answer to a child caught lying about a content hash. Kill
   it and re-shed its traffic. A [Breaker] quarantine is a suspicion
   about the environment — the shard earns its way back through
   cooldown + probation probes (see [tick]); an [Integrity] quarantine
   is permanent. *)
and quarantine t k ~cause reason =
  let ch = t.kids.(k) in
  if not ch.cs.ss_quarantined then begin
    ch.cs.ss_quarantined <- true;
    ch.c_quar <- Some cause;
    ch.c_quar_since <- Clock.mono_s ();
    ch.c_probation <- -1;
    ch.c_restart_at <- 0.0;
    t.stats.quarantines <- t.stats.quarantines + 1;
    (match cause with
     | Breaker -> t.stats.quar_breaker <- t.stats.quar_breaker + 1
     | Integrity -> t.stats.quar_integrity <- t.stats.quar_integrity + 1);
    emit_obs t "fleet_quarantine" (Printf.sprintf "shard %d: %s" k reason);
    fire t (Child_down (k, "quarantined: " ^ reason));
    let orphans = Hashtbl.fold (fun _ d acc -> d :: acc) ch.c_outstanding [] in
    let parked = List.of_seq (Queue.to_seq ch.c_queue) in
    Hashtbl.reset ch.c_outstanding;
    Queue.clear ch.c_queue;
    Child.kill ch.c;
    List.iter (redispatch t ~dispatched:true) (List.rev orphans);
    List.iter (redispatch t ~dispatched:false) parked
  end

(* One orphaned dispatch of a dead/quarantined child. [dispatched]
   distinguishes work the child actually held (counts against the job's
   incarnation budget) from work merely parked in its queue. *)
and redispatch t ~dispatched d =
  match d.d_kind with
  | Probe -> ()
  | Audit p_iid -> (
    (* the audit died with its child; resolve in the primary's favour
       rather than wedging the held response *)
    match Hashtbl.find_opt t.audits p_iid with
    | Some st ->
      st.a_abandoned <- true;
      st.a_a_fp <- Some "";
      st.a_a_shard <- -1;
      conclude_audit t p_iid st
    | None -> ())
  | Tiebreak p_iid -> (
    match Hashtbl.find_opt t.audits p_iid with
    | Some st ->
      Hashtbl.remove t.audits p_iid;
      finalize_conflict_failure t st "integrity tiebreak lost its child"
    | None -> ())
  | Primary ->
    if dispatched then d.d_tries <- d.d_tries + 1;
    if d.d_tries > t.cfg.redispatch_limit then begin
      (* a poison pill: it has now consumed its incarnation budget of
         child processes — fail it rather than grind the fleet down
         (the PR 4 rule that a crash loop is bounded by crashing jobs,
         at process scope) *)
      emit_router_failure t d.d_client ~id:d.d_req.Job.id
        ~op:(Job.op_name d.d_req.Job.spec) ~seq:d.d_seq ~admit:d.d_admit
        (Printf.sprintf "job killed its shard child %d times" d.d_tries);
      settle_key_failure t d
        (Printf.sprintf "job killed its shard child %d times" d.d_tries)
    end
    else begin
      match effective_shard t d.d_req with
      | Some k -> enqueue t k d
      | None ->
        emit_router_failure t d.d_client ~id:d.d_req.Job.id
          ~op:(Job.op_name d.d_req.Job.spec) ~seq:d.d_seq ~admit:d.d_admit
          "no healthy shard available";
        settle_key_failure t d "no healthy shard available"
    end

(* A primary that will never produce a child response: release its
   parked duplicates with the same verdict (they are the same
   computation — they share its fate). *)
and settle_key_failure t d msg =
  if d.d_key <> "" then begin
    (match Hashtbl.find_opt t.waiters d.d_key with
     | Some ws ->
       List.iter
         (fun w ->
           emit_router_failure t w.w_client ~id:w.w_id
             ~op:(Job.op_name d.d_req.Job.spec) ~seq:w.w_seq ~admit:w.w_admit msg)
         (List.rev !ws)
     | None -> ());
    Hashtbl.remove t.waiters d.d_key;
    Hashtbl.remove t.audits d.d_iid
  end

(* ---- audit verdicts ----------------------------------------------- *)

and finalize_conflict_failure t st msg =
  let d = st.a_primary in
  emit_router_failure t d.d_client ~id:d.d_req.Job.id ~op:(Job.op_name d.d_req.Job.spec)
    ~seq:d.d_seq ~admit:d.d_admit msg;
  settle_key_failure t d msg

(* Both the primary and the audit answered (or the audit was
   abandoned). Agreement forwards the held primary; disagreement goes
   to a third-shard majority vote. *)
and conclude_audit t p_iid st =
  match (st.a_p_fields, st.a_p_fp, st.a_a_fp) with
  | Some fields, Some pfp, Some afp ->
    if st.a_abandoned || String.equal pfp afp then begin
      Hashtbl.remove t.audits p_iid;
      finalize_primary t st.a_primary fields
    end
    else begin
      t.stats.digest_conflicts <- t.stats.digest_conflicts + 1;
      emit_obs t "fleet_digest_conflict"
        (Printf.sprintf "shards %d vs %d disagree on %s" st.a_primary.d_shard
           st.a_a_shard st.a_primary.d_req.Job.id);
      match
        next_healthy_excluding t ~avoid:[ st.a_primary.d_shard; st.a_a_shard ]
      with
      | Some third ->
        st.a_t_shard <- third;
        let d =
          {
            d_iid = Printf.sprintf "t%d" t.next_iid;
            d_req = st.a_primary.d_req;
            d_key = "";
            d_seq = -1;
            d_admit = Clock.mono_s ();
            d_kind = Tiebreak p_iid;
            d_client = st.a_primary.d_client;
            d_tries = 0;
            d_shard = third;
          }
        in
        t.next_iid <- t.next_iid + 1;
        enqueue t third d
      | None ->
        (* no quorum possible: fail closed — neither disputed answer is
           served, both suspects are quarantined (quarantining second
           first: quarantining can re-shed onto shards quarantined
           later, so order by index descending to stay deterministic) *)
        Hashtbl.remove t.audits p_iid;
        let a, b = (st.a_primary.d_shard, st.a_a_shard) in
        quarantine t (max a b) ~cause:Integrity "unresolvable integrity conflict";
        quarantine t (min a b) ~cause:Integrity "unresolvable integrity conflict";
        finalize_conflict_failure t st
          "response integrity conflict with no healthy quorum"
    end
  | _ -> ()

(* The tiebreak answered: majority wins, the odd one out is quarantined,
   and the client receives the majority answer. *)
and conclude_tiebreak t p_iid st ~t_fields ~t_fp =
  Hashtbl.remove t.audits p_iid;
  let pfp = Option.get st.a_p_fp and d = st.a_primary in
  let afp = Option.get st.a_a_fp in
  if String.equal t_fp pfp then begin
    quarantine t st.a_a_shard ~cause:Integrity "audit digest mismatch (outvoted 2-1)";
    match st.a_p_fields with
    | Some fields -> finalize_primary t d fields
    | None -> finalize_conflict_failure t st "integrity vote lost the primary response"
  end
  else if String.equal t_fp afp then begin
    quarantine t d.d_shard ~cause:Integrity "served a wrong content hash (outvoted 2-1)";
    (* the tiebreak child's answer is the agreed majority payload; serve
       it under the client's identifiers *)
    finalize_primary t d t_fields
  end
  else begin
    quarantine t st.a_t_shard ~cause:Integrity "integrity vote: three-way disagreement";
    quarantine t (max d.d_shard st.a_a_shard) ~cause:Integrity
      "integrity vote: three-way disagreement";
    quarantine t (min d.d_shard st.a_a_shard) ~cause:Integrity
      "integrity vote: three-way disagreement";
    finalize_conflict_failure t st "response integrity conflict: three-way disagreement"
  end

(* ---- settling primaries ------------------------------------------- *)

(* Forward one primary child response to the client, fill the replay
   cache (and its persistent tier), and release every parked duplicate
   with the same template — the byte-identical payload guarantee is
   this single code path. *)
and finalize_primary t d fields =
  let status = Option.value ~default:"failed" (get_str fields "status") in
  let ss = if d.d_shard >= 0 then Some t.kids.(d.d_shard).cs else None in
  emit_from_fields t d.d_client ~id:d.d_req.Job.id ~seq:d.d_seq ~admit:d.d_admit
    ~attempts:(match List.assoc_opt "attempts" fields with Some (J.Int n) -> n | _ -> 0)
    ~worker:d.d_shard ~shard_stats:ss fields;
  if d.d_key <> "" then begin
    let c =
      if status = "done" then begin
        let c = Lru.add t.cache d.d_key (make_cached ~worker:d.d_shard fields) in
        disk_replay_store t d.d_req d.d_key c;
        Some c
      end
      else None
    in
    (match Hashtbl.find_opt t.waiters d.d_key with
     | Some ws ->
       List.iter
         (fun w ->
           match c with
           | Some c -> emit_replay t w.w_client ~id:w.w_id ~seq:w.w_seq ~admit:w.w_admit c
           | None ->
             t.stats.replays <- t.stats.replays + 1;
             emit_from_fields t w.w_client ~id:w.w_id ~seq:w.w_seq ~admit:w.w_admit
               ~attempts:0 ~worker:d.d_shard ~shard_stats:None fields)
         (List.rev !ws)
     | None -> ());
    Hashtbl.remove t.waiters d.d_key
  end

(* ---- child traffic ------------------------------------------------ *)

let handle_child_line t k line =
  let ch = t.kids.(k) in
  ch.c_last_rx <- Clock.mono_s ();
  ch.c_consec_deaths <- 0;
  match J.parse_opt line with
  | Some (J.Obj fields) -> (
    match get_str fields "id" with
    | None -> emit_obs t "fleet_bad_child_line" (Printf.sprintf "shard %d: no id" k)
    | Some iid -> (
      match Hashtbl.find_opt ch.c_outstanding iid with
      | None ->
        (* stale: a response for a dispatch this incarnation no longer
           owns (settled by redispatch machinery) — drop, never double
           settle *)
        emit_obs t "fleet_stale_response" (Printf.sprintf "shard %d: %s" k iid)
      | Some d -> (
        Hashtbl.remove ch.c_outstanding iid;
        (match d.d_kind with
         | Probe ->
           ch.c_probe_out <- false;
           (* probation: a quarantined-by-breaker shard earns its way
              back with K consecutive clean probe responses *)
           if ch.cs.ss_quarantined && ch.c_probation >= 0 then begin
             ch.c_probation <- ch.c_probation + 1;
             if ch.c_probation >= t.cfg.rejoin_probes then begin
               ch.cs.ss_quarantined <- false;
               ch.c_quar <- None;
               ch.c_probation <- -1;
               ch.c_consec_deaths <- 0;
               ch.c_restart_times <- [];
               t.stats.rejoins <- t.stats.rejoins + 1;
               emit_obs t "fleet_rejoin"
                 (Printf.sprintf "shard %d re-admitted after %d clean probes" k
                    t.cfg.rejoin_probes);
               fire t (Child_rejoin (k, ch.cs.ss_routed))
             end
           end
         | Primary -> (
           let fields =
             set_field fields "worker" (J.Int k)
           in
           match Hashtbl.find_opt t.audits iid with
           | Some st ->
             st.a_p_fields <- Some fields;
             st.a_p_fp <- Some (payload_fp fields);
             conclude_audit t iid st
           | None -> finalize_primary t d fields)
         | Audit p_iid -> (
           match Hashtbl.find_opt t.audits p_iid with
           | Some st ->
             st.a_a_fp <- Some (payload_fp fields);
             st.a_a_shard <- k;
             conclude_audit t p_iid st
           | None -> ())
         | Tiebreak p_iid -> (
           match Hashtbl.find_opt t.audits p_iid with
           | Some st ->
             conclude_tiebreak t p_iid st
               ~t_fields:(set_field fields "worker" (J.Int k))
               ~t_fp:(payload_fp fields)
           | None -> ()));
        pump t k)))
  | _ ->
    (* a torn or non-JSON line from a child is a protocol violation —
       treat the child as compromised-or-dying *)
    handle_death t k "torn NDJSON from child"

(* ---- admission ---------------------------------------------------- *)

(* [key] is the request's content key ("" when not replayable). A key
   the bounded tables evicted arrives here like a new one: it is
   reloaded from disk or routed again, and counts as distinct again
   for the audit cadence. *)
let admit t cl ~key (req : Job.request) =
  t.stats.submitted <- t.stats.submitted + 1;
  cl.cl_pending <- cl.cl_pending + 1;
  let seq = t.next_seq in
  t.next_seq <- t.next_seq + 1;
  let admit_t = Clock.mono_s () in
  match if key = "" then None else Lru.find t.cache key with
  | Some c -> emit_replay t cl ~id:req.Job.id ~seq ~admit:admit_t c
  | None when key <> "" && Hashtbl.mem t.waiters key ->
    t.stats.coalesced <- t.stats.coalesced + 1;
    let ws = Hashtbl.find t.waiters key in
    ws := { w_id = req.Job.id; w_seq = seq; w_admit = admit_t; w_client = cl } :: !ws
  | None -> (
    match disk_replay_load t req key with
    | Some c ->
      (* the persistent tier survived a router restart: re-install the
         template in the memory cache and serve it as an ordinary
         replay — it already passed the full zero-trust reload *)
      let c = Lru.add t.cache key c in
      t.stats.disk_replays <- t.stats.disk_replays + 1;
      emit_replay t cl ~id:req.Job.id ~seq ~admit:admit_t c
    | None -> (
      if key <> "" then begin
        Hashtbl.replace t.waiters key (ref []);
        t.distinct_keys <- t.distinct_keys + 1
      end;
      match effective_shard t req with
      | None ->
        emit_router_failure t cl ~id:req.Job.id ~op:(Job.op_name req.Job.spec) ~seq
          ~admit:admit_t "no healthy shard available";
        if key <> "" then Hashtbl.remove t.waiters key
      | Some k ->
        let iid = Printf.sprintf "j%d" t.next_iid in
        t.next_iid <- t.next_iid + 1;
        let d =
          {
            d_iid = iid;
            d_req = req;
            d_key = key;
            d_seq = seq;
            d_admit = admit_t;
            d_kind = Primary;
            d_client = cl;
            d_tries = 0;
            d_shard = k;
          }
        in
        (* audit sampling: every Nth distinct content key is shadow-
           dispatched to a second shard; the client response is held for
           the verdict, so an audited lie never reaches a client at all *)
        (if
           t.cfg.audit_every > 0 && key <> ""
           && t.distinct_keys mod t.cfg.audit_every = 0
           && healthy_count t >= 2
         then
           match next_healthy_excluding t ~avoid:[ k ] with
           | Some ak ->
             t.stats.audits <- t.stats.audits + 1;
             let a_iid = Printf.sprintf "a%d" t.next_iid in
             t.next_iid <- t.next_iid + 1;
             Hashtbl.replace t.audits iid
               {
                 a_primary = d;
                 a_p_fields = None;
                 a_p_fp = None;
                 a_a_shard = ak;
                 a_a_fp = None;
                 a_t_shard = -1;
                 a_abandoned = false;
               };
             let ad =
               {
                 d_iid = a_iid;
                 d_req = req;
                 d_key = "";
                 d_seq = -1;
                 d_admit = admit_t;
                 d_kind = Audit iid;
                 d_client = t.sink;
                 d_tries = 0;
                 d_shard = ak;
               }
             in
             enqueue t ak ad
           | None -> ());
        enqueue t k d))

(* Textual id/tail split of a raw request line. Our own serializer puts
   [id] first and the ids in every mix are escape-free; anything that
   deviates simply takes the full parser. The tail (everything from the
   id's closing quote on) identifies the request content: the semantic
   content key is a pure function of it, so [t.memo] can map tails to
   keys for as long as it holds them. *)
let split_id_tail line =
  let pfx = {|{"id":"|} in
  let pl = String.length pfx in
  let n = String.length line in
  if n > pl && String.sub line 0 pl = pfx then begin
    let rec scan i =
      if i >= n then None
      else
        match line.[i] with
        | '\\' -> None
        | '"' -> Some (String.sub line pl (i - pl), String.sub line i (n - i))
        | _ -> scan (i + 1)
    in
    scan pl
  end
  else None

(* The duplicate fast path: a request whose tail was seen before skips
   JSON parsing entirely — the memoized content key either replays the
   cached response or coalesces onto the in-flight primary. Everything
   else (first occurrence, non-replayable op, unusual framing) goes
   through the full parser, which also teaches the memo. *)
let admit_line t cl line =
  let split = split_id_tail line in
  let memo_key = match split with Some (_, tail) -> Lru.find t.memo tail | None -> None in
  let fast =
    match (split, memo_key) with
    | Some (id, _), Some key when key <> "" -> (
      match Lru.find t.cache key with
      | Some c -> Some (`Replay (id, c))
      | None -> (
        match Hashtbl.find_opt t.waiters key with
        | Some ws -> Some (`Coalesce (id, ws))
        | None -> None))
    | _ -> None
  in
  match fast with
  | Some action ->
    t.stats.submitted <- t.stats.submitted + 1;
    cl.cl_pending <- cl.cl_pending + 1;
    let seq = t.next_seq in
    t.next_seq <- t.next_seq + 1;
    let at = Clock.mono_s () in
    (match action with
     | `Replay (id, c) -> emit_replay t cl ~id ~seq ~admit:at c
     | `Coalesce (id, ws) ->
       t.stats.coalesced <- t.stats.coalesced + 1;
       ws := { w_id = id; w_seq = seq; w_admit = at; w_client = cl } :: !ws);
    Ok ()
  | None -> (
    (* parse with the fleet's own default backend: a request without a
       ["backend"] field must get the same content key the children
       will compute for it, or the replay cache would serve one
       backend's payload for the other's key *)
    match Job.request_of_line ~default_backend:t.cfg.backend line with
    | Ok req ->
      (* one string per content key: the memo's value, the dispatch's
         [d_key] and the cache's key are the same *)
      let key =
        match memo_key with
        | Some key -> key
        | None -> (
          let key = if Shard.replayable req then Shard.content_key req else "" in
          match split with Some (_, tail) -> Lru.add t.memo tail key | None -> key)
      in
      admit t cl ~key req;
      Ok ()
    | Error msg -> Error msg)

let handle_client_line t cl line =
  t.stats.received <- t.stats.received + 1;
  if String.trim line <> "" then
    match admit_line t cl line with
    | Ok () -> ()
    | Error msg ->
      (* malformed lines are answered by the router itself; children
         never see bytes that failed to parse *)
      t.stats.malformed <- t.stats.malformed + 1;
      let id = Option.bind (J.parse_opt line) (fun j ->
          match J.member "id" j with Some (J.Str s) -> Some s | _ -> None)
      in
      write_client cl (Job.error_line ~id msg)

(* ---- housekeeping: probes + watchdog + restarts + rejoin ---------- *)

let send_probe t k now =
  let ch = t.kids.(k) in
  let iid = Printf.sprintf "p%d" t.next_iid in
  t.next_iid <- t.next_iid + 1;
  let d =
    {
      d_iid = iid;
      d_req = Job.make ~id:iid Job.Ping;
      d_key = "";
      d_seq = -1;
      d_admit = now;
      d_kind = Probe;
      d_client = t.sink;
      d_tries = 0;
      d_shard = k;
    }
  in
  ch.c_probe_out <- true;
  Hashtbl.replace ch.c_outstanding iid d;
  if not (Child.send_line ch.c (request_line d)) then
    handle_death t k "write failed (probe)"

let tick t =
  let now = Clock.mono_s () in
  let probe_s = float_of_int t.cfg.probe_interval_ms /. 1000.0 in
  let hang_s = float_of_int t.cfg.hang_timeout_ms /. 1000.0 in
  Array.iteri
    (fun k ch ->
      if ch.cs.ss_quarantined then begin
        (* breaker quarantines are probed back to life; integrity
           quarantines never are *)
        match ch.c_quar with
        | Some Breaker when t.cfg.rejoin_cooldown_ms > 0 && not t.stop ->
          if ch.c.Child.fd = None then begin
            if now -. ch.c_quar_since >= float_of_int t.cfg.rejoin_cooldown_ms /. 1000.0
            then begin
              try
                Child.restart ch.c ~cli:t.cli ~args:ch.c_args;
                ch.c_probation <- 0;
                ch.c_probe_out <- false;
                ch.c_last_rx <- now;
                emit_obs t "fleet_probation_start" (Printf.sprintf "shard %d" k);
                fire t (Child_up (k, ch.c.Child.pid))
              with Child.Child_failed m ->
                emit_obs t "fleet_probation_restart_failed" m;
                ch.c_quar_since <- now
            end
          end
          else if
            t.cfg.hang_timeout_ms > 0 && ch.c_probe_out && now -. ch.c_last_rx >= hang_s
          then handle_death t k "probation watchdog: hang timeout"
          else if
            t.cfg.probe_interval_ms > 0 && (not ch.c_probe_out)
            && now -. ch.c_last_rx >= probe_s
          then send_probe t k now
        | _ -> ()
      end
      else if ch.c.Child.fd = None then begin
        (* deferred crash-restart, once its backoff delay has elapsed —
           the shard stays formally healthy meanwhile, parking its
           routed work. Restarts proceed even during a stop/drain so
           parked work can still settle. *)
        if ch.c_restart_at > 0.0 && now >= ch.c_restart_at then begin
          ch.c_restart_at <- 0.0;
          try
            Child.restart ch.c ~cli:t.cli ~args:ch.c_args;
            ch.c_last_rx <- now;
            ch.c_restart_times <- now :: ch.c_restart_times;
            t.stats.restarts <- t.stats.restarts + 1;
            ch.cs.ss_restarts <- ch.cs.ss_restarts + 1;
            fire t (Child_up (k, ch.c.Child.pid));
            pump t k
          with Child.Child_failed m ->
            emit_obs t "fleet_child_restart_failed" m;
            quarantine t k ~cause:Breaker ("restart failed: " ^ m)
        end
      end
      else begin
        (* watchdog: traffic owed (jobs or a probe in flight) and
           nothing received for a whole hang timeout — the child is
           wedged. Unlike a hung domain, a hung process can be killed;
           handle_death redispatches its work. *)
        if
          t.cfg.hang_timeout_ms > 0
          && (Hashtbl.length ch.c_outstanding > 0 || ch.c_probe_out)
          && now -. ch.c_last_rx >= hang_s
        then begin
          t.stats.hangs <- t.stats.hangs + 1;
          ch.cs.ss_hangs <- ch.cs.ss_hangs + 1;
          emit_obs t "fleet_child_hang"
            (Printf.sprintf "shard %d: no traffic for %dms" k t.cfg.hang_timeout_ms);
          handle_death t k "watchdog: hang timeout"
        end
        else if
          t.cfg.probe_interval_ms > 0
          && (not ch.c_probe_out)
          && now -. ch.c_last_rx >= probe_s
        then send_probe t k now
      end)
    t.kids;
  (* slow-client isolation: a client whose write buffer has not fully
     drained within the linger is dropped — its fds stop mattering,
     its jobs keep settling internally, and nobody else ever waited *)
  if t.cfg.client_linger_ms > 0 then
    List.iter
      (fun cl ->
        if (not cl.cl_gone) && Buffer.length cl.cl_wbuf > 0 then begin
          if cl.cl_drain_deadline = 0.0 then
            cl.cl_drain_deadline <-
              now +. (float_of_int t.cfg.client_linger_ms /. 1000.0)
          else if now >= cl.cl_drain_deadline then begin
            Buffer.clear cl.cl_wbuf;
            cl.cl_gone <- true;
            t.stats.slow_client_drops <- t.stats.slow_client_drops + 1;
            emit_obs t "fleet_slow_client_drop"
              (Printf.sprintf "client %d: write buffer undrained for %dms" cl.cl_id
                 t.cfg.client_linger_ms)
          end
        end)
      t.clients

(* ---- metrics ------------------------------------------------------ *)

(* p50/p99 over the most recent [latency_samples] routed jobs *)
let shard_json (ch : child_state) =
  let lat = Array.sub ch.cs.ss_lat_ms 0 (min ch.cs.ss_lat_n latency_samples) in
  Array.sort compare lat;
  J.Obj
    [
      ("shard", J.Int ch.cs.ss_shard);
      ("routed", J.Int ch.cs.ss_routed);
      ("done", J.Int ch.cs.ss_done);
      ("deaths", J.Int ch.cs.ss_deaths);
      ("restarts", J.Int ch.cs.ss_restarts);
      ("hangs", J.Int ch.cs.ss_hangs);
      ("quarantined", J.Bool ch.cs.ss_quarantined);
      ("p50_ms", J.Float (Sofia_util.Stats.percentile lat 50.0));
      ("p99_ms", J.Float (Sofia_util.Stats.percentile lat 99.0));
    ]

let stats_json t =
  let s = t.stats in
  J.Obj
    [
      ("received", J.Int s.received);
      ("malformed", J.Int s.malformed);
      ("submitted", J.Int s.submitted);
      ("done", J.Int s.done_);
      ("rejected", J.Int s.rejected);
      ("timed_out", J.Int s.timed_out);
      ("failed", J.Int s.failed);
      ("conserved", J.Bool (conserved s));
      ("replays", J.Int s.replays);
      ("coalesced", J.Int s.coalesced);
      ("audits", J.Int s.audits);
      ("digest_conflicts", J.Int s.digest_conflicts);
      ("deaths", J.Int s.deaths);
      ("restarts", J.Int s.restarts);
      ("hangs", J.Int s.hangs);
      ("quarantines", J.Int s.quarantines);
      ("resheds", J.Int s.resheds);
      ("interrupted", J.Bool s.interrupted);
      ("backoffs", J.Int s.backoffs);
      ("rejoins", J.Int s.rejoins);
      ("quar_breaker", J.Int s.quar_breaker);
      ("quar_integrity", J.Int s.quar_integrity);
      ("disk_replays", J.Int s.disk_replays);
      ("slow_client_drops", J.Int s.slow_client_drops);
      ("replay_entries", J.Int (Lru.length t.cache));
      ("replay_evictions", J.Int (Lru.evictions t.cache));
    ]

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
       (List.init (Array.length t.kids) Fun.id))

let metrics_json t =
  J.Obj
    ([
       ( "fleet",
         J.Obj
           [
             ("children", J.Int t.cfg.children);
             ("workers_per_child", J.Int t.cfg.workers);
             ("window", J.Int t.cfg.window);
             ("audit_every", J.Int t.cfg.audit_every);
           ] );
       ("router", stats_json t);
       ("shards", J.List (Array.to_list (Array.map shard_json t.kids)));
       ("children_metrics", child_metrics_json t);
     ]
    @ match t.rstore with
      | Some rs -> [ ("replay_store", Fs.counters_json rs) ]
      | None -> [])

(* ---- main loop ---------------------------------------------------- *)

let unsettled t = t.stats.submitted - (t.stats.done_ + t.stats.rejected + t.stats.timed_out + t.stats.failed)

let mkdir_p dir =
  let rec go d =
    if d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sofia-fleet-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  mkdir_p d;
  d

(* Startup janitor for a caller-provided socket dir, mirroring the
   store_fs tmp janitor: a fleet killed with SIGKILL leaves dead
   shard-*.sock files and metrics debris behind, and a fresh fleet
   should not fail (or inherit stale metrics) because of them. Deletion
   follows Wire.prepare_socket_path's rule exactly — a socket is
   removed only after a probe connect proves nobody is listening
   (ECONNREFUSED); a live socket is left for the child's own bind to
   refuse, and a plain file squatting on the name is never deleted. *)
let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let janitor_socket_dir dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | entries ->
    Array.iter
      (fun name ->
        let path = Filename.concat dir name in
        if Filename.check_suffix name ".tmp" then
          (try Sys.remove path with Sys_error _ -> ())
        else if starts_with ~prefix:"metrics-" name && Filename.check_suffix name ".json"
        then (try Sys.remove path with Sys_error _ -> ())
        else if starts_with ~prefix:"shard-" name && Filename.check_suffix name ".sock"
        then begin
          match Unix.stat path with
          | exception Unix.Unix_error (_, _, _) -> ()
          | st ->
            if st.Unix.st_kind = Unix.S_SOCK then begin
              let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
              let dead =
                match Unix.connect fd (Unix.ADDR_UNIX path) with
                | () -> false (* a live fleet still owns it *)
                | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
                  true
                | exception Unix.Unix_error (_, _, _) -> false
              in
              (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
              if dead then try Sys.remove path with Sys_error _ -> ()
            end
        end)
      entries

let cleanup_dir t =
  Array.iter
    (fun ch ->
      try Sys.remove ch.c.Child.socket_path with Sys_error _ -> ())
    t.kids;
  List.iter
    (fun k ->
      try Sys.remove (Filename.concat t.dir (Printf.sprintf "metrics-%d.json" k))
      with Sys_error _ -> ())
    (List.init (Array.length t.kids) Fun.id);
  if t.dir_created then try Unix.rmdir t.dir with Unix.Unix_error _ -> ()

let sink_client () =
  {
    cl_id = -1;
    cl_in = Unix.stdin;
    cl_out = Unix.stdout;
    cl_lines = Lines.create ();
    cl_wbuf = Buffer.create 1;
    cl_eof = true;
    cl_gone = true;  (* writes are dropped; pending is never read *)
    cl_pending = 0;
    cl_drain_deadline = 0.0;
    cl_owned = false;
  }

let create ?(obs = Obs.none) cfg =
  if cfg.children < 1 then invalid_arg "Router: children must be >= 1";
  let cli =
    match cfg.cli with
    | Some c -> c
    | None -> (
      match Child.find_cli () with
      | Some c -> c
      | None -> failwith "fleet: cannot locate the sofia_cli binary (set SOFIA_CLI)")
  in
  let dir, dir_created =
    match cfg.socket_dir with
    | Some d ->
      mkdir_p d;
      janitor_socket_dir d;
      (d, false)
    | None -> (fresh_dir (), true)
  in
  let rstore =
    Option.map (fun d -> Fs.open_store ~obs ~dir:d ()) cfg.replay_dir
  in
  let stats =
    {
      received = 0; malformed = 0; submitted = 0;
      done_ = 0; rejected = 0; timed_out = 0; failed = 0;
      replays = 0; coalesced = 0; audits = 0; digest_conflicts = 0;
      deaths = 0; restarts = 0; hangs = 0; quarantines = 0; resheds = 0;
      interrupted = false;
      backoffs = 0; rejoins = 0; quar_breaker = 0; quar_integrity = 0;
      disk_replays = 0; slow_client_drops = 0;
      shards =
        Array.init cfg.children (fun k ->
            {
              ss_shard = k; ss_routed = 0; ss_done = 0; ss_deaths = 0;
              ss_restarts = 0; ss_hangs = 0; ss_quarantined = false;
              ss_lat_ms = Array.make latency_samples 0.0; ss_lat_n = 0;
            });
    }
  in
  let t0 =
    {
      cfg; cli; dir; dir_created; stats; obs;
      kids = [||];
      cache = Lru.create replay_cap;
      memo = Lru.create replay_cap;
      waiters = Hashtbl.create 64;
      audits = Hashtbl.create 16;
      next_seq = 0; next_iid = 0; completion = 0; distinct_keys = 0; settled = 0;
      stop = false;
      clients = [];
      next_client = 0;
      sink = sink_client ();
      listen = None;
      accepts_left = 0;
      rng = 0x5EEDL;
      rstore;
    }
  in
  let kids =
    Array.init cfg.children (fun k ->
        let sock, args = child_args t0 k in
        (* a stale socket file from a previous fleet is cleared by the
           janitor above (caller-provided dirs) and, as a second line,
           by the child's own prepare_socket_path probe (PR 4) *)
        let c = Child.start ~cli ~args ~shard:k ~socket_path:sock in
        {
          c;
          cs = stats.shards.(k);
          c_outstanding = Hashtbl.create 64;
          c_queue = Queue.create ();
          c_last_rx = Clock.mono_s ();
          c_consec_deaths = 0;
          c_probe_out = false;
          c_args = args;
          c_quar = None;
          c_quar_since = 0.0;
          c_probation = -1;
          c_restart_at = 0.0;
          c_restart_times = [];
        })
  in
  let t = { t0 with kids } in
  Array.iter (fun ch -> fire t (Child_up (ch.c.Child.shard, ch.c.Child.pid))) t.kids;
  t

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

let client_active cl = not (cl.cl_eof || cl.cl_gone)

let accepting t = t.listen <> None && t.accepts_left <> 0 && not t.stop

let clients_done t =
  (not (accepting t)) && List.for_all (fun cl -> not (client_active cl)) t.clients

let close_client_fds cl =
  if cl.cl_owned then begin
    (try Unix.close cl.cl_in with Unix.Unix_error (_, _, _) -> ());
    if cl.cl_out != cl.cl_in then
      try Unix.close cl.cl_out with Unix.Unix_error (_, _, _) -> ()
  end

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
            Array.iter (fun ch -> Child.kill ch.c) t.kids;
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
    (t.stop || clients_done t)
    && unsettled t = 0
    && List.for_all (fun cl -> cl.cl_gone || Buffer.length cl.cl_wbuf = 0) t.clients
  in
  while not (finished ()) do
    if (not t.stop) && !signal_hits > 0 then begin
      t.stop <- true;
      t.stats.interrupted <- true
    end;
    let child_fds =
      Array.to_list t.kids |> List.filter_map (fun ch -> ch.c.Child.fd)
    in
    (* simple flow control: past ~4 windows of unsettled work per
       shard, stop pulling client input and let the socket buffers
       push back — bounds router memory under open-loop overload *)
    let backlogged =
      unsettled t >= 4 * t.cfg.window * Array.length t.kids
    in
    let client_rfds =
      if t.stop || backlogged then []
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
      try Unix.select (child_fds @ client_rfds @ listen_fds) wset [] 0.05
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    (* children first: responses free windows before new admissions *)
    Array.iteri
      (fun k ch ->
        match ch.c.Child.fd with
        | Some fd when List.memq fd readable -> (
          match Child.drain_input ch.c chunk with
          | `Eof ->
            if
              (t.stop || clients_done t)
              && (not ch.cs.ss_quarantined)
              && Hashtbl.length ch.c_outstanding = 0
              && Queue.is_empty ch.c_queue
            then begin
              (* orderly exit during drain (e.g. terminal-delivered
                 SIGINT reached the whole process group) *)
              Child.close_fd ch.c;
              ignore (Child.reap ch.c ~timeout_s:2.0)
            end
            else handle_death t k "connection closed"
          | `Lines lines -> List.iter (handle_child_line t k) lines)
        | _ -> ())
      t.kids;
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
          | n -> List.iter (handle_client_line t cl) (Lines.feed cl.cl_lines chunk n)
          | exception
              Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
            ()
          | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EBADF), _, _) ->
            cl.cl_eof <- true
        end)
      t.clients;
    (* drain write buffers that have room again *)
    List.iter
      (fun cl ->
        if (not cl.cl_gone) && List.memq cl.cl_out writable then flush_client cl)
      t.clients;
    (* a trailing unterminated line at EOF is still a request *)
    List.iter
      (fun cl ->
        if cl.cl_eof && Lines.pending cl.cl_lines > 0 then
          handle_client_line t cl (Lines.take_rest cl.cl_lines))
      t.clients;
    tick t;
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
  (* graceful fleet shutdown: close our end, --once children drain and
     exit; stragglers (and quarantined/probation incarnations) are
     killed. No child outlives the router. *)
  Array.iter
    (fun ch ->
      if ch.cs.ss_quarantined then Child.kill ch.c
      else Child.stop_gently ch.c ~timeout_s:5.0)
    t.kids;
  List.iter close_client_fds t.clients;
  List.iter (fun (s, old) -> try Sys.set_signal s old with _ -> ()) !saved;
  t.stats

(* One-call fronts: spawn the fleet, serve the client fds, stop the
   children, return the stats and the fleet metrics document (which
   needs the children stopped: their serve --json files are written at
   child exit). *)

let finish ?signals t =
  let cleanup_on_error e =
    Array.iter (fun ch -> Child.kill ch.c) t.kids;
    cleanup_dir t;
    raise e
  in
  let stats = try serve ?signals t with e -> cleanup_on_error e in
  let doc = metrics_json t in
  cleanup_dir t;
  (stats, doc)

let run ?obs ?signals cfg ~client_in ~client_out =
  let t = create ?obs cfg in
  ignore (add_client t ~owned:false client_in client_out);
  finish ?signals t

let run_clients ?obs ?signals cfg ~clients =
  let t = create ?obs cfg in
  List.iter
    (fun (fd_in, fd_out) ->
      (* fault-scenario clients are pipes that may never be drained on
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
