(* The fleet router's supervision core: every decision the router makes,
   as a state machine over four events (a client line, a child line, a
   child connection closing, and a clock tick), each stamped with the
   monotonic time [now]. It touches no process, fd or clock: sending a
   line to a shard, killing or restarting one, answering a client,
   loading or storing a replay entry and reading the wall clock all go
   through the [effects] record its driver supplies. Router is the
   driver that runs them on real processes and fds; the fleet-sim test
   suite drives the same core with simulated children on a virtual
   clock.

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
   BREAKER (too many deaths within a window, or a failed restart) is
   merely suspected of a bad environment: after a cooldown it is
   restarted on probation and must answer K consecutive clean probes
   before it is re-admitted and its traffic dynamically re-shed back
   home.

   The replay cache can persist across router restarts through the
   [load]/[store] effects (Router backs them with the §12 store_fs
   envelope tier): a load returns only an entry that passed the
   zero-trust reload, so a tampered entry is a miss, never served. *)

module Job = Sofia_service.Job
module J = Sofia_obs.Json
module Obs = Sofia_obs.Obs
module Event = Sofia_obs.Event
module Lru = Sofia_util.Lru
module Lines = Sofia_util.Lines

module Types = struct
  type event =
    | Client_response of int
    | Child_up of int * int
    | Child_down of int * string
    | Child_rejoin of int * int

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
end

include Types

let unsettled s = s.submitted - (s.done_ + s.rejected + s.timed_out + s.failed)

(* Supervision timings (DESIGN §15). Time is an input of every entry
   point, so tests run these on a virtual clock instead of shrinking
   them. *)
let probe_interval_s = 0.25
let hang_timeout_s = 5.0
let death_limit = 3
let death_window_s = 10.0
let redispatch_limit = 2
let rejoin_cooldown_s = 30.0
let rejoin_probes = 3
let restart_backoff_ms = 25

(* The per-shard latency ring: p50/p99 describe the most recent jobs,
   and a router that serves for months holds 32 KiB per shard. *)
let latency_samples = 4096

(* Entries each of [memo] and [cache] may hold. An evicted key only
   falls back to paths that exist anyway — a full parse, coalescing,
   the zero-trust disk reload, a child — so the cap trades a recompute
   for flat memory and can never serve a wrong or unverified payload
   (DESIGN §13). *)
let replay_cap = 1024

(* A settled done-response, pre-rendered for replay: the payload tail
   (the expensive part — it carries the image summary) is serialized
   once at fill time, and each replay only renders the nine small
   metadata scalars. Byte-compatible with Job.response_to_line's field
   order. *)
type entry = {
  t_op : string;
  t_status : string;
  t_worker : int;  (* origin shard, surfaced on every replay *)
  t_ts : J.t;  (* origin ts_unix, replays keep it (provenance, not schedule) *)
  t_tail : string;  (* ",\"k\":v,..." — payload fields, rendered; "" if none *)
}

type 'c effects = {
  send : int -> string -> bool;
  kill : int -> unit;
  restart : int -> (int, string) result;
  deliver : 'c -> string -> unit;
  load : Job.request -> string -> entry option;
  store : Job.request -> string -> entry -> unit;
  wall : unit -> float;
}

type 'c kind =
  | Primary of 'c  (* the client that gets the answer *)
  | Audit of string  (* internal id of the audited primary *)
  | Tiebreak of string
  | Probe

(* Why a shard is out of service. Breaker quarantines are eligible for
   probation rejoin; integrity quarantines are permanent — a child that
   lied about a content hash is never trusted again. *)
type quarantine_cause = Breaker | Integrity

type 'c dispatch = {
  d_iid : string;  (* internal wire id — the router renames jobs on the child hop *)
  d_req : Job.request;  (* original request, client id inside *)
  d_key : string;  (* content key; "" when not replayable *)
  d_seq : int;
  d_admit : float;
  d_kind : 'c kind;
  mutable d_tries : int;  (* child incarnations consumed *)
  mutable d_shard : int;
  mutable d_sent : int;  (* send order: its place among what a child holds *)
}

(* A duplicate of an in-flight content key, parked until the primary
   settles. *)
type 'c waiter = { w_id : string; w_seq : int; w_admit : float; w_client : 'c }

(* One audited primary: both responses stashed until the verdict. *)
type 'c audit_state = {
  a_primary : 'c dispatch;
  a_client : 'c;
  mutable a_p_fields : (string * J.t) list option;  (* rewritten, unemitted *)
  mutable a_p_fp : string option;
  mutable a_a_shard : int;
  mutable a_a_fp : string option;
  mutable a_t_shard : int;  (* tiebreak shard, -1 until needed *)
  mutable a_abandoned : bool;  (* the audit died with its child *)
}

type 'c shard = {
  cs : shard_stats;
  c_outstanding : (string, 'c dispatch) Hashtbl.t;
  c_queue : 'c dispatch Queue.t;
  mutable c_up : bool;  (* a live process holds the shard's connection *)
  mutable c_last_rx : float;
  mutable c_deaths : float list;  (* its deaths within [death_window_s], newest first *)
  mutable c_probe_out : bool;
  mutable c_quar : quarantine_cause option;
  mutable c_probation : int;  (* clean probes since its probation restart *)
  mutable c_restart_at : float;
      (* deferred restart due time, a crash-restart's or a breaker
         quarantine's probation; 0.0 = none *)
}

type 'c t = {
  fx : 'c effects;
  obs : Obs.t;
  on_event : (event -> unit) option;
  window : int;
  audit_every : int;
  backend : Sofia_transform.Backend_id.t;
  stats : stats;
  kids : 'c shard array;
  cache : (string, entry) Lru.t;  (* content key -> rendered template *)
  memo : (string, string) Lru.t;  (* raw request tail -> content key, shared with [cache] *)
  waiters : (string, 'c waiter list ref) Hashtbl.t;  (* key -> parked duplicates *)
  audits : (string, 'c audit_state) Hashtbl.t;  (* primary iid -> state *)
  mutable now : float;  (* the current event's time *)
  mutable next_seq : int;
  mutable next_iid : int;
  mutable sends : int;  (* dispatches handed to a child so far *)
  mutable completion : int;
  mutable distinct_keys : int;  (* drives the audit sampling cadence *)
  mutable settled : int;  (* client-visible job responses emitted *)
  mutable rng : int64;  (* deterministic jitter state *)
}

let stats t = t.stats
let fire t e = match t.on_event with Some f -> f e | None -> ()

let emit_obs t kind detail =
  if Obs.tracing t.obs then Obs.emit t.obs (Event.Service_error { kind; detail })

(* Bounded deterministic jitter (an LCG stepped per draw): restart
   storms across shards de-synchronize without consulting any global
   randomness the tests could not replay. *)
let jitter t bound =
  t.rng <- Int64.add (Int64.mul t.rng 6364136223846793005L) 1442695040888963407L;
  Int64.to_int (Int64.rem (Int64.shift_right_logical t.rng 33) (Int64.of_int (max 1 bound)))

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
  let lat = (t.now -. admit) *. 1000.0 in
  let fields =
    List.fold_left
      (fun fields (k, v) -> set_field fields k v)
      fields
      [ ("id", J.Str id); ("seq", J.Int seq); ("completion", J.Int t.completion);
        ("attempts", J.Int attempts); ("worker", J.Int worker); ("latency_ms", J.Float lat) ]
  in
  t.completion <- t.completion + 1;
  let status = Option.value ~default:"failed" (get_str fields "status") in
  count_status t shard_stats status lat;
  t.fx.deliver cl (J.to_string (J.Obj fields))

let metadata_fields =
  [ "id"; "op"; "status"; "seq"; "completion"; "attempts"; "worker"; "latency_ms"; "ts_unix" ]

let make_entry ~worker fields =
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
let emit_replay t cl ~id ~seq ~admit (c : entry) =
  let lat = (t.now -. admit) *. 1000.0 in
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
  t.fx.deliver cl (String.sub head 0 (String.length head - 1) ^ c.t_tail ^ "}")

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
      latency_ms = (t.now -. admit) *. 1000.0;
      ts = t.fx.wall ();
      status = Job.Failed msg;
    }
  in
  t.completion <- t.completion + 1;
  count_status t None "failed" resp.Job.latency_ms;
  t.fx.deliver cl (Job.response_to_line resp)

let fail_dispatch t cl d msg =
  emit_router_failure t cl ~id:d.d_req.Job.id ~op:(Job.op_name d.d_req.Job.spec) ~seq:d.d_seq
    ~admit:d.d_admit msg

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

(* ---- dispatch plumbing -------------------------------------------- *)

let request_line d =
  J.to_string (Job.request_to_json { d.d_req with Job.id = d.d_iid })

(* A fresh dispatch of [req] to shard [k]; its wire id names its kind. *)
let dispatch t ?(key = "") ?(seq = -1) ~kind req k =
  let pfx = match kind with Primary _ -> 'j' | Audit _ -> 'a' | Tiebreak _ -> 't' | Probe -> 'p' in
  let d_iid = Printf.sprintf "%c%d" pfx t.next_iid in
  t.next_iid <- t.next_iid + 1;
  { d_iid; d_req = req; d_key = key; d_seq = seq; d_admit = t.now; d_kind = kind; d_tries = 0;
    d_shard = k; d_sent = 0 }

(* Shard [k]'s child now holds [d]. *)
let hold t k d =
  d.d_sent <- t.sends;
  t.sends <- t.sends + 1;
  Hashtbl.replace t.kids.(k).c_outstanding d.d_iid d

(* Take shard [k]'s in-flight work, in the order it was sent, and its
   queued work, and kill its process. *)
let evict t k =
  let ch = t.kids.(k) in
  let orphans =
    List.sort
      (fun a b -> compare a.d_sent b.d_sent)
      (Hashtbl.fold (fun _ d acc -> d :: acc) ch.c_outstanding [])
  in
  let parked = List.of_seq (Queue.to_seq ch.c_queue) in
  Hashtbl.reset ch.c_outstanding;
  Queue.clear ch.c_queue;
  ch.c_probe_out <- false;
  ch.c_up <- false;
  t.fx.kill k;
  (orphans, parked)

let rec pump t k =
  let ch = t.kids.(k) in
  if
    (not ch.cs.ss_quarantined)
    && ch.c_up
    && Hashtbl.length ch.c_outstanding < t.window
    && not (Queue.is_empty ch.c_queue)
  then begin
    let d = Queue.pop ch.c_queue in
    hold t k d;
    (match d.d_kind with
     | Primary _ -> ch.cs.ss_routed <- ch.cs.ss_routed + 1
     | _ -> ());
    if t.fx.send k (request_line d) then pump t k
    else handle_death t k "write failed"
  end

and enqueue t k d =
  d.d_shard <- k;
  Queue.push d t.kids.(k).c_queue;
  pump t k

(* ---- supervision: death, hang, breaker, quarantine ---------------- *)

(* A child died (EOF, failed write, or the watchdog killed it). Its
   in-flight and queued work is accounted for exactly once: primaries
   are re-dispatched to the replacement (or re-shed / failed once their
   incarnation budget is gone), audits are sent again to another shard
   (see [reaudit]), probes evaporate. The death is recorded and the
   replacement scheduled BEFORE the victims are settled. One rule paces
   and bounds a crashing shard: its nth death within [death_window_s]
   defers the replacement by [restart_backoff_ms] * 2^(n-1) plus
   jitter, and its [death_limit]th quarantines it, so a poison
   environment produces a paced, bounded restart storm rather than a
   hot loop. *)
and handle_death t k reason =
  let ch = t.kids.(k) in
  if ch.c_up then begin
    if ch.cs.ss_quarantined then begin
      (* a probation incarnation died: the shard is already out of
         service and owes no client anything beyond probes — back to
         cooldown, no death accounting *)
      ignore (evict t k);
      ch.c_restart_at <- t.now +. rejoin_cooldown_s;
      emit_obs t "fleet_probation_death" (Printf.sprintf "shard %d: %s" k reason)
    end
    else begin
      let work = evict t k and now = t.now in
      t.stats.deaths <- t.stats.deaths + 1;
      ch.cs.ss_deaths <- ch.cs.ss_deaths + 1;
      ch.c_deaths <- now :: List.filter (fun ts -> now -. ts <= death_window_s) ch.c_deaths;
      let n = List.length ch.c_deaths in
      emit_obs t "fleet_child_death"
        (Printf.sprintf "shard %d: %s (death %d within %.0f s)" k reason n death_window_s);
      fire t (Child_down (k, reason));
      if n >= death_limit then quarantine t [ k ] ~cause:Breaker "breaker: repeated child deaths"
      else begin
        let expo = restart_backoff_ms lsl (n - 1) in
        (* plus up to 25% deterministic jitter *)
        let delay_ms = expo + jitter t ((expo / 4) + 1) in
        ch.c_restart_at <- now +. (float_of_int delay_ms /. 1000.0);
        t.stats.backoffs <- t.stats.backoffs + 1;
        emit_obs t "fleet_restart_backoff"
          (Printf.sprintf "shard %d: restart in %dms (death %d)" k delay_ms n)
      end;
      (* settle the orphans only after the supervision state is updated;
         orphans first so a killer job meets the replacement ahead of
         parked work (see [resettle] for which one is charged). Work
         re-routed to this same (still healthy) shard parks in its
         queue until the deferred restart pumps it. *)
      resettle t work
    end
  end

(* Removal from service: the breaker at process scope, and the only
   correct answer to a child caught lying about a content hash. Kill
   it and re-shed its traffic. A [Breaker] quarantine is a suspicion
   about the environment — the shard earns its way back through a
   deferred probation restart after the cooldown and clean probes (see
   [tick]); an [Integrity] quarantine is permanent. Every shard in [ks]
   is out of service before any of their work moves, so no orphan is
   re-shed and no audit re-sent onto a fellow suspect, and no abandoned
   audit can vouch for one. *)
and quarantine t ks ~cause reason =
  let ks = List.filter (fun k -> not t.kids.(k).cs.ss_quarantined) ks in
  List.iter
    (fun k ->
      let ch = t.kids.(k) in
      ch.cs.ss_quarantined <- true;
      ch.c_quar <- Some cause;
      t.stats.quarantines <- t.stats.quarantines + 1;
      (match cause with
       | Breaker ->
         t.stats.quar_breaker <- t.stats.quar_breaker + 1;
         ch.c_restart_at <- t.now +. rejoin_cooldown_s
       | Integrity ->
         t.stats.quar_integrity <- t.stats.quar_integrity + 1;
         ch.c_restart_at <- 0.0);
      emit_obs t "fleet_quarantine" (Printf.sprintf "shard %d: %s" k reason);
      fire t (Child_down (k, "quarantined: " ^ reason)))
    ks;
  List.iter (fun k -> resettle t (evict t k)) ks

(* An evicted shard's work, orphans in send order. A child runs one
   worker and takes what it holds in the order sent, so of the orphans
   only the first can have killed it: that one is charged an
   incarnation try. The others, like parked work that never reached the
   child, are re-dispatched uncharged, so a poison job cannot use up
   the budget of the honest jobs that shared its window. *)
and resettle t (orphans, parked) =
  List.iteri (fun i d -> redispatch t ~charged:(i = 0) d) orphans;
  List.iter (redispatch t ~charged:false) parked

(* One orphaned dispatch of a dead/quarantined child. *)
and redispatch t ~charged d =
  match d.d_kind with
  | Probe -> ()
  | Audit p_iid -> (
    match Hashtbl.find_opt t.audits p_iid with
    | Some st -> reaudit t p_iid st ~lost:d.d_shard
    | None -> ())
  | Tiebreak p_iid -> (
    match Hashtbl.find_opt t.audits p_iid with
    | Some st ->
      Hashtbl.remove t.audits p_iid;
      finalize_conflict_failure t st "integrity tiebreak lost its child"
    | None -> ())
  | Primary cl ->
    if charged then d.d_tries <- d.d_tries + 1;
    if d.d_tries > redispatch_limit then begin
      (* a poison pill: it has now consumed its incarnation budget of
         child processes — fail it rather than grind the fleet down (a
         crash loop is bounded by the jobs that crash) *)
      let msg = Printf.sprintf "job killed its shard child %d times" d.d_tries in
      fail_dispatch t cl d msg;
      settle_key_failure t d msg
    end
    else begin
      match effective_shard t d.d_req with
      | Some k -> enqueue t k d
      | None ->
        fail_dispatch t cl d "no healthy shard available";
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
  fail_dispatch t st.a_client st.a_primary msg;
  settle_key_failure t st.a_primary msg

(* The audit of a held primary was lost: its shard [lost] died or was
   quarantined, or it answered from the primary's own shard (a primary
   re-shed onto the audit's shard cannot vouch for itself). Audit again
   on a healthy shard that is neither the primary's nor [lost]. Only
   when no such shard exists is the audit abandoned, leaving the
   primary unverified (see [conclude_audit]) — serving it unverified
   while a third shard could still check it would let a lying primary
   reach its client. *)
and reaudit t p_iid st ~lost =
  let id = st.a_primary.d_req.Job.id in
  match next_healthy_excluding t ~avoid:[ st.a_primary.d_shard; lost ] with
  | Some k ->
    emit_obs t "fleet_reaudit"
      (Printf.sprintf "audit of %s lost shard %d; re-audit on %d" id lost k);
    st.a_a_fp <- None;
    st.a_a_shard <- k;
    enqueue t k (dispatch t ~kind:(Audit p_iid) st.a_primary.d_req k)
  | None ->
    emit_obs t "fleet_audit_abandoned" (Printf.sprintf "audit of %s lost shard %d" id lost);
    st.a_abandoned <- true;
    st.a_a_fp <- Some "";
    st.a_a_shard <- -1;
    conclude_audit t p_iid st

(* Both the primary and the audit answered (or the audit was
   abandoned). Agreement of two shards forwards the held primary;
   disagreement goes to a third-shard majority vote. An abandoned audit
   leaves the primary unverified: it stands unless its shard is now
   quarantined for integrity, in which case it fails closed. *)
and conclude_audit t p_iid st =
  let suspect = t.kids.(st.a_primary.d_shard).c_quar = Some Integrity in
  match (st.a_p_fields, st.a_p_fp, st.a_a_fp) with
  | Some _, Some _, Some _ when (not st.a_abandoned) && st.a_a_shard = st.a_primary.d_shard ->
    reaudit t p_iid st ~lost:st.a_a_shard
  | Some _, _, _ when st.a_abandoned && suspect ->
    Hashtbl.remove t.audits p_iid;
    finalize_conflict_failure t st
      "response integrity conflict: the audit was lost and the primary's shard is quarantined"
  | Some fields, Some pfp, Some afp ->
    if st.a_abandoned || String.equal pfp afp then begin
      Hashtbl.remove t.audits p_iid;
      finalize_primary t st.a_primary st.a_client fields
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
        enqueue t third (dispatch t ~kind:(Tiebreak p_iid) st.a_primary.d_req third)
      | None ->
        (* no quorum possible: fail closed — neither disputed answer is
           served, both suspects are quarantined *)
        Hashtbl.remove t.audits p_iid;
        let a, b = (st.a_primary.d_shard, st.a_a_shard) in
        quarantine t [ max a b; min a b ] ~cause:Integrity "unresolvable integrity conflict";
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
    quarantine t [ st.a_a_shard ] ~cause:Integrity "audit digest mismatch (outvoted 2-1)";
    match st.a_p_fields with
    | Some fields -> finalize_primary t d st.a_client fields
    | None -> finalize_conflict_failure t st "integrity vote lost the primary response"
  end
  else if String.equal t_fp afp then begin
    quarantine t [ d.d_shard ] ~cause:Integrity "served a wrong content hash (outvoted 2-1)";
    (* the tiebreak child's answer is the agreed majority payload; serve
       it under the client's identifiers *)
    finalize_primary t d st.a_client t_fields
  end
  else begin
    quarantine t
      [ st.a_t_shard; max d.d_shard st.a_a_shard; min d.d_shard st.a_a_shard ]
      ~cause:Integrity "integrity vote: three-way disagreement";
    finalize_conflict_failure t st "response integrity conflict: three-way disagreement"
  end

(* ---- settling primaries ------------------------------------------- *)

(* Forward one primary child response to the client, fill the replay
   cache (and its persistent tier), and release every parked duplicate
   with the same template — the byte-identical payload guarantee is
   this single code path. *)
and finalize_primary t d cl fields =
  let status = Option.value ~default:"failed" (get_str fields "status") in
  let ss = if d.d_shard >= 0 then Some t.kids.(d.d_shard).cs else None in
  emit_from_fields t cl ~id:d.d_req.Job.id ~seq:d.d_seq ~admit:d.d_admit
    ~attempts:(match List.assoc_opt "attempts" fields with Some (J.Int n) -> n | _ -> 0)
    ~worker:d.d_shard ~shard_stats:ss fields;
  if d.d_key <> "" then begin
    let c =
      if status = "done" then begin
        let c = Lru.add t.cache d.d_key (make_entry ~worker:d.d_shard fields) in
        t.fx.store d.d_req d.d_key c;
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

let rejoin t k =
  let ch = t.kids.(k) in
  ch.cs.ss_quarantined <- false;
  ch.c_quar <- None;
  t.stats.rejoins <- t.stats.rejoins + 1;
  emit_obs t "fleet_rejoin"
    (Printf.sprintf "shard %d re-admitted after %d clean probes" k rejoin_probes);
  fire t (Child_rejoin (k, ch.cs.ss_routed))

let child_line t ~now k line =
  t.now <- now;
  let ch = t.kids.(k) in
  ch.c_last_rx <- now;
  match match line with Lines.Line l -> J.parse_opt l | Lines.Too_long -> None with
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
           (* probation: a quarantined shard that is up is on probation,
              and earns its way back with K consecutive clean probe
              responses *)
           if ch.cs.ss_quarantined then begin
             ch.c_probation <- ch.c_probation + 1;
             if ch.c_probation >= rejoin_probes then rejoin t k
           end
         | Primary cl -> (
           let fields = set_field fields "worker" (J.Int k) in
           match Hashtbl.find_opt t.audits iid with
           | Some st ->
             st.a_p_fields <- Some fields;
             st.a_p_fp <- Some (payload_fp fields);
             conclude_audit t iid st
           | None -> finalize_primary t d cl fields)
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
    (* a torn, non-JSON or over-long line from a child is a protocol
       violation — treat the child as compromised-or-dying *)
    handle_death t k "torn NDJSON from child"

(* A child's connection closed. At drain, a child that owes nothing has
   simply exited (a terminal-delivered SIGINT reached the whole process
   group): nothing to supervise. Anything else is a death. *)
let child_closed t ~now ~draining k =
  t.now <- now;
  let ch = t.kids.(k) in
  if
    draining && (not ch.cs.ss_quarantined)
    && Hashtbl.length ch.c_outstanding = 0
    && Queue.is_empty ch.c_queue
  then ch.c_up <- false
  else handle_death t k "connection closed"

(* ---- admission ---------------------------------------------------- *)

(* Every admitted request takes the next sequence number. *)
let take_seq t =
  t.stats.submitted <- t.stats.submitted + 1;
  t.next_seq <- t.next_seq + 1;
  t.next_seq - 1

(* [key] is the request's content key ("" when not replayable). A key
   the bounded tables evicted arrives here like a new one: it is
   reloaded from disk or routed again, and counts as distinct again
   for the audit cadence. *)
let admit t cl ~key (req : Job.request) =
  let seq = take_seq t in
  match if key = "" then None else Lru.find t.cache key with
  | Some c -> emit_replay t cl ~id:req.Job.id ~seq ~admit:t.now c
  | None when key <> "" && Hashtbl.mem t.waiters key ->
    t.stats.coalesced <- t.stats.coalesced + 1;
    let ws = Hashtbl.find t.waiters key in
    ws := { w_id = req.Job.id; w_seq = seq; w_admit = t.now; w_client = cl } :: !ws
  | None -> (
    match if key = "" then None else t.fx.load req key with
    | Some c ->
      (* the persistent tier survived a router restart: re-install the
         template in the memory cache and serve it as an ordinary
         replay — it already passed the full zero-trust reload *)
      let c = Lru.add t.cache key c in
      t.stats.disk_replays <- t.stats.disk_replays + 1;
      emit_replay t cl ~id:req.Job.id ~seq ~admit:t.now c
    | None -> (
      if key <> "" then begin
        Hashtbl.replace t.waiters key (ref []);
        t.distinct_keys <- t.distinct_keys + 1
      end;
      match effective_shard t req with
      | None ->
        emit_router_failure t cl ~id:req.Job.id ~op:(Job.op_name req.Job.spec) ~seq
          ~admit:t.now "no healthy shard available";
        if key <> "" then Hashtbl.remove t.waiters key
      | Some k ->
        let d = dispatch t ~key ~seq ~kind:(Primary cl) req k in
        (* audit sampling: every Nth distinct content key is shadow-
           dispatched to a second shard; the client response is held for
           the verdict, so an audited lie never reaches a client at all *)
        (if
           t.audit_every > 0 && key <> ""
           && t.distinct_keys mod t.audit_every = 0
           && healthy_count t >= 2
         then
           match next_healthy_excluding t ~avoid:[ k ] with
           | Some ak ->
             t.stats.audits <- t.stats.audits + 1;
             Hashtbl.replace t.audits d.d_iid
               {
                 a_primary = d; a_client = cl; a_p_fields = None; a_p_fp = None;
                 a_a_shard = ak; a_a_fp = None; a_t_shard = -1; a_abandoned = false;
               };
             enqueue t ak (dispatch t ~kind:(Audit d.d_iid) req ak)
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
    let seq = take_seq t in
    (match action with
     | `Replay (id, c) -> emit_replay t cl ~id ~seq ~admit:t.now c
     | `Coalesce (id, ws) ->
       t.stats.coalesced <- t.stats.coalesced + 1;
       ws := { w_id = id; w_seq = seq; w_admit = t.now; w_client = cl } :: !ws);
    Ok ()
  | None -> (
    (* parse with the fleet's own default backend: a request without a
       ["backend"] field must get the same content key the children
       will compute for it, or the replay cache would serve one
       backend's payload for the other's key *)
    match Job.request_of_line ~default_backend:t.backend line with
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

let client_line t ~now cl line =
  t.now <- now;
  t.stats.received <- t.stats.received + 1;
  (* malformed lines are answered by the router itself; children never
     see bytes that failed to parse *)
  let malformed ~id msg =
    t.stats.malformed <- t.stats.malformed + 1;
    t.fx.deliver cl (Job.error_line ~id msg)
  in
  match line with
  | Lines.Line l when String.trim l = "" -> ()
  | Lines.Too_long ->
    malformed ~id:None Lines.too_long_message
  | Lines.Line l -> (
    match admit_line t cl l with
    | Ok () -> ()
    | Error msg ->
      let id = Option.bind (J.parse_opt l) (fun j ->
          match J.member "id" j with Some (J.Str s) -> Some s | _ -> None)
      in
      malformed ~id msg)

(* ---- housekeeping: restarts, watchdog, probes --------------------- *)

let send_probe t k =
  let ch = t.kids.(k) in
  let d = dispatch t ~kind:Probe (Job.make ~id:"probe" Job.Ping) k in
  ch.c_probe_out <- true;
  hold t k d;
  if not (t.fx.send k (request_line d)) then handle_death t k "write failed (probe)"

(* One lifecycle for every shard. A shard that is down restarts when
   its deferred restart is due: after a crash's backoff (even during a
   drain, so parked work can settle; the shard stays formally healthy
   meanwhile, parking its routed work), or after a breaker quarantine's
   cooldown, which is its probation (a failed one is deferred by the
   cooldown again). With none due, a shard that exited in order at
   drain restarts once work is parked on it. A shard that is up, owes
   traffic (jobs or a probe) and has sent nothing for a whole hang
   timeout is wedged: a process, unlike a domain, can be killed, and
   handle_death redispatches its work. An idle one is probed; on
   probation, its clean probes re-admit it. Once a signal began the
   drain, a quarantined shard is left as it is: no probation restart,
   probe or watchdog. *)
let tick t ~now =
  t.now <- now;
  Array.iteri
    (fun k ch ->
      let probation = ch.cs.ss_quarantined in
      if probation && t.stats.interrupted then ()
      else if not ch.c_up then begin
        if
          (ch.c_restart_at > 0.0 && now >= ch.c_restart_at)
          || (ch.c_restart_at = 0.0 && not (Queue.is_empty ch.c_queue))
        then begin
          ch.c_restart_at <- 0.0;
          match t.fx.restart k with
          | Ok pid ->
            ch.c_up <- true;
            ch.c_last_rx <- now;
            if probation then begin
              ch.c_probation <- 0;
              emit_obs t "fleet_probation_start" (Printf.sprintf "shard %d" k)
            end
            else begin
              t.stats.restarts <- t.stats.restarts + 1;
              ch.cs.ss_restarts <- ch.cs.ss_restarts + 1
            end;
            fire t (Child_up (k, pid));
            pump t k
          | Error m when probation ->
            emit_obs t "fleet_probation_restart_failed" m;
            ch.c_restart_at <- now +. rejoin_cooldown_s
          | Error m ->
            emit_obs t "fleet_child_restart_failed" m;
            quarantine t [ k ] ~cause:Breaker ("restart failed: " ^ m)
        end
      end
      else if
        (Hashtbl.length ch.c_outstanding > 0 || ch.c_probe_out)
        && now -. ch.c_last_rx >= hang_timeout_s
      then begin
        if not probation then begin
          t.stats.hangs <- t.stats.hangs + 1;
          ch.cs.ss_hangs <- ch.cs.ss_hangs + 1
        end;
        emit_obs t "fleet_child_hang"
          (Printf.sprintf "shard %d: no traffic for %.0fms" k (hang_timeout_s *. 1000.0));
        handle_death t k "watchdog: hang timeout"
      end
      else if (not ch.c_probe_out) && now -. ch.c_last_rx >= probe_interval_s then
        send_probe t k)
    t.kids

(* ---- metrics ------------------------------------------------------ *)

(* p50/p99 over the most recent [latency_samples] routed jobs *)
let shard_json (ch : _ shard) =
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

let shards_json t = J.List (Array.to_list (Array.map shard_json t.kids))

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
      ("memo_hits", J.Int (Lru.hits t.memo));
      ("memo_evictions", J.Int (Lru.evictions t.memo));
    ]

let create ?(obs = Obs.none) ?on_event ~now ~children ~window ~audit_every ~backend fx =
  if children < 1 then invalid_arg "Supervisor: children must be >= 1";
  let shard k =
    {
      ss_shard = k; ss_routed = 0; ss_done = 0; ss_deaths = 0; ss_restarts = 0;
      ss_hangs = 0; ss_quarantined = false;
      ss_lat_ms = Array.make latency_samples 0.0; ss_lat_n = 0;
    }
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
      shards = Array.init children shard;
    }
  in
  {
    fx; obs; on_event; window; audit_every; backend; stats;
    kids =
      Array.map
        (fun cs ->
          {
            cs;
            c_outstanding = Hashtbl.create 64;
            c_queue = Queue.create ();
            c_up = true;
            c_last_rx = now;
            c_deaths = [];
            c_probe_out = false;
            c_quar = None;
            c_probation = 0;
            c_restart_at = 0.0;
          })
        stats.shards;
    cache = Lru.create replay_cap;
    memo = Lru.create replay_cap;
    waiters = Hashtbl.create 64;
    audits = Hashtbl.create 16;
    now;
    next_seq = 0; next_iid = 0; sends = 0; completion = 0; distinct_keys = 0; settled = 0;
    rng = 0x5EEDL;
  }
