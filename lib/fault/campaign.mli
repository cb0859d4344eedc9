(** The fault-injection campaign: a deterministic, seeded sweep of
    (backend × fault class × workload × trial) over the whole pipeline,
    producing the paper's fault matrix — the detection-coverage table
    that CI gates on. It is the security claim of SOFIA §III: every
    in-model tamper of encrypted code or of its control flow is caught
    before the Memory-Access stage.

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
    criterion (CI, [sofia campaign]) is exactly 0 escapes.
    [Fetch_transient] rates are reported but never gated. The serving
    stack's own failure handling (wire corruption, child kills, store
    and replay tampering, lying children) is tested in [dune runtest]
    by the [service], [store-fs], [fleet] and [fleet-sim] suites, not
    here. *)

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

type report = {
  seed : int64;
  trials_per_cell : int;
  multi_fault : int;
      (** simultaneous faults injected per trial for the image-mutation
          classes (the [--multi-fault] mode); 1 = the classic campaign *)
  fuel : int;
  backends : Sofia_transform.Backend_id.t list;
  cells : cell list;
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
    or -1). [engine] (default [Fast]) selects the execution engine for every simulated
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

val passed : report -> bool
(** [in_model_escapes = 0] — the campaign exit criterion. *)

val to_json : report -> Sofia_obs.Json.t
(** Schema [sofia-fault-campaign/4]: seed, faults-per-trial, the
    backend list, the class taxonomy, the full matrix (each cell tagged
    with its backend and applicability), the per-(backend, class)
    aggregation, a per-backend in-model rollup ([by_backend] — the
    multi-fault degradation comparison) and the summary (detection
    rate, escapes, [passed]). *)

val pp : Format.formatter -> report -> unit
(** Human-readable coverage table, one row per (backend, class). *)
