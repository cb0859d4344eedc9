(** The fault-injection campaign: a deterministic, seeded sweep of
    (fault class × workload × trial) over the whole pipeline, plus seven
    scripted service-level fault scenarios, producing the
    detection-coverage matrix that CI gates on.

    {b Method.} For each workload the campaign first runs a bounded
    {e clean} execution and profiles it: which blocks retired
    instructions, which of them are multiplexor blocks, how many block
    fetches happened, and the static legitimate-edge set. Fault sites
    are then sampled (from one {!Sofia_util.Prng} stream seeded by the
    campaign seed, so the whole matrix is reproducible from [--seed])
    only against that consumed state — a fault parked in dead code
    would be undetectable {e and} harmless, and counting it as a trial
    would launder the coverage number.

    {b Verdicts} compare the faulted run against the clean one:
    [Detected] (CPU reset fired), [Masked] (identical outcome and
    outputs), [Corrupted] (ran to completion with wrong results),
    [Hung] (fuel exhausted). For every detection the {e latency} is
    measured from the run's trace — retired instructions between the
    fetch that consumed the fault and the reset. SOFIA verifies the
    MAC before the Memory-Access stage, so in-model latency must be 0.

    {b The gate.} {!in_model_escapes} counts Masked + Corrupted + Hung
    over the in-model classes ({!Site.in_model}); the acceptance
    criterion (CI, [sofia campaign]) is exactly 0 escapes plus every
    {!service_check} passing. [Fetch_transient] rates are reported but
    never gated. *)

type verdict = Detected | Masked | Corrupted | Hung

val verdict_name : verdict -> string

(** One (backend × class × workload) cell of the coverage matrix.
    [trials] may be less than the requested trial count when the class
    has no applicable site in the workload (e.g. [Mux_swap] with no
    multiplexor block on the executed path) — recorded as skipped
    trials, never as escapes. [applicable] is [false] when the class
    is structurally absent under the backend ({!Site.applicable},
    e.g. [Mux_swap] under SCFP): the cell is kept with zero trials so
    the matrix stays rectangular across backends. *)
type cell = {
  clazz : Site.clazz;
  backend : Sofia_transform.Backend_id.t;
  workload : string;
  applicable : bool;
  trials : int;
  detected : int;
  masked : int;
  corrupted : int;
  hung : int;
  lat_measured : int;  (** detections with a measurable latency *)
  lat_total : int;  (** sum of latencies, in retired instructions *)
  lat_max : int;
}

(** Result of one scripted service-level fault scenario (worker crash,
    worker hang, deadline clock skew, wire corruption, in-memory store
    tamper, on-disk store tamper, circuit breaker). *)
type service_check = { name : string; ok : bool; detail : string }

type report = {
  seed : int64;
  trials_per_cell : int;
  multi_fault : int;
      (** simultaneous faults injected per trial for the image-mutation
          classes (the [--multi-fault] mode); 1 = the classic campaign *)
  fuel : int;
  backends : Sofia_transform.Backend_id.t list;
  cells : cell list;
  service : service_check list;
}

val default_fuel : int
(** Clean-run/faulted-run instruction budget (2 M): bounds a faulted
    run that would otherwise spin, and is far above any registry
    workload's clean instruction count. *)

val random_campaign :
  ?config:Sofia_cpu.Run_config.t ->
  keys:Sofia_crypto.Keys.t ->
  image:Sofia_transform.Image.t ->
  trials:int ->
  seed:int64 ->
  unit ->
  cell
(** The [Fetch_transient] class alone, on a given image (the paper's
    stated future work: "we further plan to test the architecture's
    resistance to fault-based attacks"). Each trial flips one bit of
    one fetched 8-word block group, at a uniformly random (fetch index
    within the clean run's fetch count, bit position), between program
    memory and the frontend. The SI property turns such a fault into a
    reset, except that a flip in the multiplexor word the taken path
    skips is never consumed and is masked by construction. The SOFIA
    claim is [corrupted = 0]. [config] defaults to the campaign's
    2 M-fuel bound; the cell's [workload] is [""]. *)

val inject_once :
  ?config:Sofia_cpu.Run_config.t ->
  keys:Sofia_crypto.Keys.t ->
  image:Sofia_transform.Image.t ->
  fetch:int ->
  bit:int ->
  unit ->
  verdict
(** One transient fault at the given block fetch and bit position. *)

val run :
  ?obs:Sofia_obs.Obs.t ->
  ?fuel:int ->
  ?classes:Site.clazz list ->
  ?backends:Sofia_transform.Backend_id.t list ->
  ?with_service:bool ->
  ?with_fleet:bool ->
  ?workloads:Sofia_workloads.Workload.t list ->
  ?engine:Sofia_cpu.Run_config.engine ->
  ?multi_fault:int ->
  trials:int ->
  seed:int64 ->
  unit ->
  report
(** Sweep [backends] (default [[Sofia]]) × [classes] (default
    {!Site.all}) × [workloads] (default the full registry) with
    [trials] sampled sites per cell. Each backend protects every
    workload through its own registry entry and is profiled and
    faulted independently; classes a backend has no site for
    ({!Site.applicable}) produce zero-trial not-applicable cells.
    [obs], when tracing, receives one [Custom] event per trial
    ([fault:<backend>:<workload>:<class>:<verdict>], value = latency
    or -1).
    [with_service] (default [true]) appends the seven service scenarios,
    which spawn real worker domains and take ~1 s of wall time.
    [with_fleet] (default: [with_service]) additionally re-runs the
    failure wall at fleet scope — eight scenarios that each spawn a
    real [sofia_cli fleet] of child processes (kill -9, clock skew,
    client-wire garbage, a digest-lying child, a poisoned shard store,
    a four-client flood, a slow-loris reader, and a tampered
    persistent replay cache across a router restart) — and is skipped
    with a passing note when no sofia_cli binary can be found. The
    timing-bound supervision (hang watchdog, breaker, backoff, restart
    budget, probation rejoin) is checked on a virtual clock by the
    fleet-sim test suite instead. [engine]
    (default [Fast]) selects the execution engine for every simulated
    run; reports are byte-identical between engines.
    [multi_fault] (default 1) injects that many pairwise-distinct
    simultaneous faults per trial for the image-mutation classes
    ([Insn_flip], [Mac_flip], [Keystream], [Mux_swap]); [Edge_redirect]
    and [Fetch_transient] stay single-fault. With the default the PRNG
    stream, and therefore the whole matrix, is bit-identical to the
    pre-multi-fault campaign. *)

val by_class : report -> cell list
(** The matrix aggregated to one cell per (backend, class) pair
    (workload ["*"]), backends in report order, classes in {!Site.all}
    order; classes absent from the report are omitted. *)

val in_model_escapes : report -> int
(** Masked + Corrupted + Hung over the in-model classes — the number
    CI requires to be exactly 0. *)

val in_model_trials : report -> int * int
(** [(detected, trials)] over the in-model classes. *)

val service_ok : report -> bool

val passed : report -> bool
(** [in_model_escapes = 0 && service_ok] — the campaign exit
    criterion. *)

val to_json : report -> Sofia_obs.Json.t
(** Schema [sofia-fault-campaign/3]: seed, faults-per-trial, the
    backend list, the class taxonomy, the full matrix (each cell tagged
    with its backend and applicability), the per-(backend, class)
    aggregation, a per-backend in-model rollup ([by_backend] — the
    multi-fault degradation comparison), the summary (detection rate,
    escapes, [passed]) and the service-check results. *)

val pp : Format.formatter -> report -> unit
(** Human-readable coverage table (per-class rows) + service lines. *)
