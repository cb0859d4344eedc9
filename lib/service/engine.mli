(** The concurrent protection/attestation engine: a bounded admission
    queue in front of a supervised pool of OCaml-domain workers sharing
    one content-addressed image store.

    Job lifecycle (every submitted job traverses exactly one path):

    {v
    submit ──▶ queue ──▶ worker ──▶ attempt 1..max_attempts ──▶ Done
       │         │          │                     │
       │         │          ├─ deadline expired ──┴──▶ Timed_out
       │         │          └─ worker crash/hang ─────▶ Failed
       │         ├─ (Reject policy, queue full) ──────▶ Rejected
       │         └─ (circuit breaker open) ───────────▶ Rejected
       └─ (engine shut down) ─────────────────────────▶ Rejected
    v}

    so after {!drain} the terminal counters sum to the submission
    count ({!Svc_metrics.terminal_sum}) — no job is ever silently
    dropped, {e including} the victims of supervision: a settle-once
    latch per job guarantees exactly one terminal response even when
    the watchdog and a zombie worker race to settle it. Each response
    is delivered once: streamed through the [on_response] callback as
    it completes when the engine has one (wire mode), otherwise
    collected for {!drain} in admission order (batch mode). A streaming
    engine keeps no response log, so its memory does not grow with the
    number of jobs it serves.

    {b Clocks.} Deadlines, retry budgets, the watchdog and the breaker
    cooldown all read the {e monotonic} clock ({!Sofia_util.Clock}): a
    wall-clock step cannot expire or immortalize queued jobs. Wall time
    appears only in the reported [ts] response field and is injectable
    ([wall_clock]) so tests can skew it and assert timing is unaffected.

    {b Supervision.} A worker that raises {!Job.Crash} dies: its
    in-flight job settles [Failed ("worker crashed: ...")], a
    replacement domain is spawned, and throughput recovers without a
    process restart. With [hang_timeout_ms] set, a watchdog domain
    additionally abandons any worker whose job exceeds the timeout
    (OCaml domains cannot be killed, so the zombie is left to run out
    and is never joined), fails the job on its behalf, and spawns a
    replacement. [breaker_threshold] consecutive deaths with no
    completed job in between open a circuit breaker: submissions are
    shed ([Rejected]) until [breaker_cooldown_ms] has passed, after
    which the breaker half-opens (the next death re-trips it, the next
    success resets it).

    Deadlines are enforced at dispatch and between retry attempts: a
    pure CPU-bound job cannot be preempted mid-run, so a job that
    {e starts} before its deadline runs to completion (documented
    serving semantics; DESIGN.md §9) — unless the watchdog reaps it.
    A [deadline_ms] of [0] deterministically times out — the tests'
    lever.

    Retries: an attempt that raises {!Job.Transient} is retried (same
    worker, immediately) until [max_attempts] is exhausted; any other
    exception except {!Job.Crash} is a permanent, structured [Failed] —
    only [Crash] ever escapes a worker. *)

type backpressure = Block | Reject

type config = {
  workers : int;
      (** requested pool size; 0 = one per spare core. The
          engine treats this as a {e cap}: it never spawns more domains
          than the host has spare cores, because every runnable domain
          beyond that makes each stop-the-world minor GC pay a scheduler
          timeslice (measured ~3x slower on a 1-core host). The
          effective count is reported in {!metrics_json}. *)
  queue_capacity : int;
  backpressure : backpressure;
  store_slots : int;  (** content-addressed image store cap; 0 disables *)
  max_attempts : int;  (** >= 1; retries = attempts - 1 *)
  ks_cache_slots : int option;  (** keystream cache for [Simulate]/[Run_image] jobs *)
  engine : Sofia_cpu.Run_config.engine;
      (** execution engine for simulation jobs (default [Fast]); job
          results are bit-identical between engines *)
  backend : Sofia_transform.Backend_id.t;
      (** protection backend wire requests default to when they carry
          no ["backend"] field (default SOFIA). Requests that do carry
          one override it per job — the engine serves mixed-backend
          traffic from one store, keyed so the backends never alias. *)
  default_deadline_ms : int option;  (** for requests that carry none *)
  fault : (Job.request -> attempt:int -> unit) option;
      (** chaos hook, called before each execution attempt; raise
          {!Job.Transient} to model a transient worker fault,
          {!Job.Crash} to kill the worker domain itself *)
  hang_timeout_ms : int option;
      (** [Some ms]: a watchdog domain abandons any worker whose
          in-flight job exceeds [ms], fails the job and spawns a
          replacement; [None] (default) disables hang detection *)
  breaker_threshold : int;
      (** consecutive worker deaths (crash or hang) that open the
          circuit breaker; 0 (default) disables it *)
  breaker_cooldown_ms : int;  (** how long an open breaker sheds load *)
  wall_clock : (unit -> float) option;
      (** reported-timestamp source ([ts] on responses); [None] =
          [Unix.gettimeofday]. Never used for deadlines — that is the
          point: tests inject a skewed clock here and assert that
          deadline/retry behaviour is unchanged. *)
  store_dir : string option;
      (** persistent content-addressed artifact tier under the
          in-memory store ({!Sofia_store_fs.Store_fs}; DESIGN.md §12).
          [None] (default) disables it. Every load is zero-trust:
          envelope checks plus a re-derived ciphertext MAC verdict, so
          a torn/tampered/stale file is a miss, never served code. *)
  store_budget : int;
      (** on-disk byte budget; over it the store GCs least-recently
          used entries first. 0 (default) = unlimited. *)
  shard : int;
      (** fleet shard id this engine serves, [-1] (default) outside a
          fleet. Reported in {!Job.payload.Ponged} probe answers and in
          {!metrics_json}, so the router can tell its children apart. *)
  mangle : (Job.response -> Job.response) option;
      (** {b test-only} response-tamper hook, applied under the engine
          lock before the response is recorded or streamed. The fleet
          fault campaign uses it to model a compromised child that lies
          about a digest; [None] (default) in any real deployment. *)
}

val default_config : config
(** 0 workers (auto), 64-deep queue, [Block], 256 store slots, 3
    attempts, {!Sofia_cpu.Run_config.default}'s keystream cache setting
    (off, as in every [serve] process), fast engine, SOFIA
    backend, no default deadline, no fault injection, no watchdog,
    breaker disabled, real wall clock, shard [-1], no response
    tampering. *)

type t

val create : ?obs:Sofia_obs.Obs.t -> ?on_response:(Job.response -> unit) -> config -> t
(** No worker is spawned yet: submissions queue up (or get rejected)
    until {!start}. [on_response] is called once per terminal response,
    {e outside} the engine lock — a slow consumer stalls only the
    calling worker, never admission, other settles or {!drain} — so
    concurrent calls are possible; serialise externally if needed
    (wire mode uses its own output mutex) and use the response's
    [completion] index to recover the total completion order. Every
    callback has returned by the time {!shutdown} joins the workers.
    With [on_response] the engine keeps no log: {!drain} returns [].
    [obs] receives [service_error] events for failed jobs, worker
    crashes/hangs and breaker trips. *)

val start : t -> unit
(** Spawn the worker domains (and the watchdog, if configured).
    Idempotent. *)

val submit : t -> Job.request -> unit
(** Admit one job. With [Reject] backpressure and a full queue — or an
    engine already shut down, or an open circuit breaker — the job
    terminates immediately as [Rejected] (the response is delivered
    like any other). With [Block], blocks until a slot frees. *)

val drain : t -> Job.response list
(** Wait until every submitted job has a terminal response; the
    responses so far in admission ([seq]) order, or [] on an engine
    created with [on_response] (those went to the callback). Requires
    {!start} (or nothing pending).
    Supervision keeps this live: crashed and hung workers' jobs are
    settled by the supervisor, so drain cannot wedge on a dead domain. *)

val shutdown : t -> unit
(** Graceful: close admission, let workers drain the queue, join them
    (including any replacements spawned mid-shutdown; abandoned hung
    domains are skipped — they cannot be joined), stop the watchdog.
    Idempotent. Jobs still queued are executed, not dropped. *)

val metrics : t -> Svc_metrics.t
val store : t -> Store.t

val disk_store : t -> Sofia_store_fs.Store_fs.t option
(** The persistent tier, when [store_dir] was configured — exposed for
    its hit/miss/evict/corrupt counters (bench, campaign, CLI). *)

val persist_image :
  Sofia_store_fs.Store_fs.t ->
  keys:Sofia_crypto.Keys.t ->
  nonce:int ->
  source:string ->
  image:Sofia_transform.Image.t ->
  sfi:Bytes.t ->
  issues:int option ->
  int64 * Sofia_cpu.Block_table.t
(** Store a freshly protected image (artifact + verified-edge block
    table) the way the engine's cold path does; returns the ciphertext
    MAC tag and the table. Shared with the one-shot [protect] CLI so
    both populate the store identically. *)

val queue_depth_max : t -> int

val live_workers : t -> int
(** Workers currently considered alive (not joined, not abandoned). *)

val breaker_open : t -> bool
(** Whether the circuit breaker is currently shedding load. *)

val metrics_json : t -> Sofia_obs.Json.t
(** The full serving-metrics document: {!Svc_metrics.to_json} plus the
    store's hit/miss/eviction/entry counters, the queue-depth
    gauge/high-water mark, worker-pool gauges and the breaker state —
    the ["service_metrics"] object of the bench JSON schema. *)

val run_batch : ?obs:Sofia_obs.Obs.t -> config -> Job.request list -> Job.response list * t
(** Create, start, submit everything, drain, shut down; the engine is
    returned for its metrics/store counters. *)

val execute_oneshot : Job.request -> Job.status
(** Run one job the way a one-shot CLI invocation would: no queue, no
    worker pool, no store, no keystream cache — the sequential baseline
    the load-generator bench compares the engine against. *)

val outcome_label : Sofia_cpu.Machine.outcome -> string
(** Stable wire form: [halted:N], [cpu_reset:<violation>], [out_of_fuel]. *)
