(** The concurrent protection/attestation engine: a bounded admission
    queue in front of a fixed pool of OCaml-domain workers sharing one
    content-addressed image store.

    Job lifecycle (every submitted job traverses exactly one path):

    {v
    submit ──▶ queue ──▶ worker ──▶ execute once ──▶ Done
       │         │          │            │
       │         │          │            └─ job raised ──▶ Failed
       │         │          └─ deadline expired ─────────▶ Timed_out
       │         └─ (Reject policy, queue full) ─────────▶ Rejected
       └─ (engine shut down) ────────────────────────────▶ Rejected
    v}

    so after {!drain} the terminal counters sum to the submission
    count ({!Svc_metrics.terminal_sum}) — no job is ever silently
    dropped. Each response is delivered once: streamed through the
    [on_response] callback as it completes when the engine has one
    (wire mode), otherwise collected for {!drain} in admission order
    (batch mode). A streaming engine keeps no response log, so its
    memory does not grow with the number of jobs it serves.

    {b Clocks.} Deadlines read the {e monotonic} clock
    ({!Sofia_util.Clock}): a wall-clock step cannot expire or
    immortalize queued jobs. Wall time appears only in the reported
    [ts] response field and is injectable ([wall_clock]) so tests can
    skew it and assert timing is unaffected.

    {b Failures.} A job runs once. Anything it raises — a structured
    executor error or any other exception, the [fault] hook's included —
    settles it [Failed] with the error text (clipped to its first
    1 KiB, then ["..."], so no request can make a response long), and
    the worker takes the next job: no exception ever escapes a worker,
    so the pool never shrinks and {!drain} cannot wedge. There is no
    in-process crash restart, hang watchdog or circuit breaker: a
    domain cannot be killed, so that supervision lives one level up,
    in the fleet router, where the supervised unit is a whole [serve]
    process ({!Sofia_fleet.Supervisor}; DESIGN.md §13, §15).

    Deadlines are enforced at dispatch: a pure CPU-bound job cannot be
    preempted mid-run, so a job that {e starts} before its deadline
    runs to completion (documented serving semantics; DESIGN.md §9). A
    [deadline_ms] of [0] deterministically times out — the tests'
    lever. *)

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
  store_slots : int;
      (** content-addressed image store cap; 0 disables it (the parse
          cache keeps its own constant bound, {!Store.parsed_slots}) *)
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
      (** hook called on the worker right before a job executes, always
          with [~attempt:1]. An exception it raises fails that job like
          any executor error. [serve --test-exit] uses it to model a
          poison job that kills the child process, and the benchmark's
          layer pass uses it as a dispatch stamp. *)
  wall_clock : (unit -> float) option;
      (** reported-timestamp source ([ts] on responses); [None] =
          [Unix.gettimeofday]. Never used for deadlines — that is the
          point: tests inject a skewed clock here and assert that
          deadline behaviour is unchanged. *)
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
          lock before the response is recorded or streamed.
          [serve --test-flip-digest] sets it so that [fleet_tests] can
          model a compromised child that lies about a digest; [None]
          (default) in any real deployment. *)
}

val default_config : config
(** 0 workers (auto), 64-deep queue, [Block], 256 store slots,
    {!Sofia_cpu.Run_config.default}'s keystream cache setting (off, as
    in every [serve] process), fast engine, SOFIA backend, no default
    deadline, no fault hook, real wall clock, shard [-1], no response
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
    [obs] receives [service_error] events for failed jobs and raising
    callbacks. *)

val start : t -> unit
(** Spawn the worker domains. Idempotent. *)

val submit : t -> Job.request -> unit
(** Admit one job. With [Reject] backpressure and a full queue — or an
    engine already shut down — the job terminates immediately as
    [Rejected] (the response is delivered like any other). With
    [Block], blocks until a slot frees. *)

val drain : t -> Job.response list
(** Wait until every submitted job has a terminal response; the
    responses so far in admission ([seq]) order, or [] on an engine
    created with [on_response] (those went to the callback). Requires
    {!start} (or nothing pending). *)

val shutdown : t -> unit
(** Graceful: close admission, let workers drain the queue, join them.
    Idempotent. Jobs still queued are executed, not dropped. *)

val metrics : t -> Svc_metrics.t
val store : t -> Store.t

val disk_store : t -> Sofia_store_fs.Store_fs.t option
(** The persistent tier, when [store_dir] was configured — exposed for
    its hit/miss/evict/corrupt counters (bench, tests, CLI). *)

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

val metrics_json : t -> Sofia_obs.Json.t
(** The full serving-metrics document: {!Svc_metrics.to_json} plus the
    store's hit/miss/eviction/entry counters ([store] for images,
    [parses] for its parse cache, {!Store.parse_counters}), the queue-depth
    gauge/high-water mark and the effective and requested worker
    counts — the ["service_metrics"] object of the bench JSON schema. *)

val run_batch : ?obs:Sofia_obs.Obs.t -> config -> Job.request list -> Job.response list * t
(** Create, start, submit everything, drain, shut down; the engine is
    returned for its metrics/store counters. *)

val execute_oneshot : Job.request -> Job.status
(** Run one job the way a one-shot CLI invocation would: no queue, no
    worker pool, no keystream cache, and a fresh {!Store.t} with its
    image cache off, so nothing is shared across calls. Its parse cache
    lets one request assemble its source once however many of protect
    and verify need the program. The oracle the engine's answers are
    compared against. *)

val outcome_label : Sofia_cpu.Machine.outcome -> string
(** Stable wire form: [halted:N], [cpu_reset:<violation>], [out_of_fuel]. *)
