(** The SOFIA-extended processor model (paper Fig. 1).

    Fetches {e encrypted} 8-word blocks, decrypts each word with the
    control-flow-dependent CTR keystream, substitutes NOPs for the MAC
    words, verifies the block CBC-MAC before any instruction can reach
    the Memory-Access stage, and fires the reset line on any violation:
    MAC mismatch (tampered code {e or} tampered control flow), a store
    in a banned slot, an undecodable word, or a fetch outside program
    memory.

    Entry classification follows the §II-E call-site convention: a
    transfer to block offset 0 fetches an execution block; offsets 4
    and 8 select a multiplexor block's first and second control-flow
    paths. A transfer to any other offset is decrypted as if it started
    an execution block — the keystream cannot match, so the MAC check
    catches it (that is the paper's fine-grained CFI property).

    Decryption results are memoised per (target, prevPC) edge: hardware
    re-decrypts every fetch in a 2-cycle pipelined unit (modelled in
    {!Timing}); the memo only removes redundant {e simulation} work
    ([Run_config.edge_memo] disables it to model a cold frontend).

    Two execution engines are selectable via [Run_config.engine]: the
    reference interpreter ([Ref], the original loop, kept as the
    differential oracle) and the default pre-decoded engine ([Fast]),
    which caches a flattened {!Decoded} form of each block per verified
    edge — strictly after the MAC verdict, never serving a block the
    comparator rejected — and invalidates the cache on violation, and
    which accounts cycles, stalls and retires once per block visit
    rather than per instruction. Hot cycles of those verified blocks
    run as superblocks: one flat run of slot closures per iteration,
    fuel tested and every counter accounted once per iteration, left
    through an exact side exit at the first slot that leaves the
    cycle. A superblock is built only from blocks that earned
    [Block_ok] in this run or came from a MAC-verified prefill entry,
    is flushed with the cache on any violation, and is bypassed
    whenever [on_retire], a trace sink or [fault] is attached (a run
    with only a metrics sink still uses it, with its counters
    batched). Both engines produce bit-identical results, traces and
    counters (modulo the [engine_*] counters); [test/engine_tests.ml]
    pins the equivalence.

    The frontend dispatches on the image's backend tag
    ({!Sofia_transform.Backend_id}): SOFIA images fetch through the
    CTR-decrypt + CBC-MAC pipeline above; SCFP images fetch through
    the decrypt-and-absorb sponge duplex ({!Sofia_transform.Scfp}),
    where any tampering or illegitimate edge surfaces as
    {!Machine.State_divergence} at the same point in the pipeline —
    before anything from the block can retire. Both engines share the
    dispatch, so their equivalence holds per backend. *)

val run :
  ?config:Run_config.t ->
  ?args:int list ->
  ?fault:int * int ->
  ?on_retire:(pc:int -> insn:Sofia_isa.Insn.t -> unit) ->
  ?obs:Sofia_obs.Obs.t ->
  ?on_finish:(machine:Machine.t -> mem:Memory.t -> unit) ->
  ?prefill:Block_table.t ->
  keys:Sofia_crypto.Keys.t ->
  Sofia_transform.Image.t ->
  Machine.run_result
(** Run a protected image from its entry port until [halt], a
    SOFIA reset, or fuel exhaustion.

    [prefill] seeds the fast engine's per-edge cache from a persisted
    {!Block_table} (every entry MAC-verified at build time and
    re-validated here; see [block_table.mli]) — a warm restart skips
    the first decrypt of each seeded edge. Semantically inert: results,
    traces and the architectural counters are bit-identical with and
    without it (only the [memo_*]/[engine_*] simulator-cache counters
    shift); the reference engine ignores it.

    [fault = (n, bit)] injects a transient fetch-path fault: during the
    [n]-th block fetch (1-based), bit [bit mod 256] of the fetched
    8-word group reads flipped — a glitch on the memory bus or in the
    instruction cache, the threat the paper's conclusion lists as
    future work. The stored image is unchanged (the fault is
    transient).

    [obs] (default {!Sofia_obs.Obs.none}) attaches tracing/metrics
    sinks to the fetch → decrypt → MAC-verify → execute → reset path.
    Instrumentation is strictly observational: the returned
    {!Machine.run_result} is bit-identical with and without it, and
    with [Obs.none] no hook allocates.

    Memoisation caveat: hardware re-decrypts every fetch, the simulator
    memoises per (target, prevPC) edge — so [Memo_hit] counts fetches
    hardware would re-decrypt, and decrypt/MAC events fire only on the
    first fetch of each edge.

    [on_finish] runs after the outcome is decided, with the final
    machine and memory — post-run architectural state inspection for
    differential tests. Every run borrows its domain's pooled RAM
    ({!Memory.acquire}) and hands it back, dirtied pages zeroed, when
    the result is built — except a run that passes [on_finish]: the
    callback may keep the RAM, so that run never hands it back. *)

type fetch_outcome =
  | Block_ok of {
      base : int;
      kind : Sofia_transform.Block.kind;
      insns : Sofia_isa.Insn.t array;
    }
  | Fetch_violation of Machine.violation

val block_base :
  image:Sofia_transform.Image.t -> int -> int
(** The base of the block a transfer to the given address lands in:
    SOFIA's port classification (offsets 0/4/8), or plain align-down
    under SCFP (one port per block). Used by the fault campaign to aim
    flips at the block a redirected edge fetches. *)

val fetch_block :
  keys:Sofia_crypto.Keys.t ->
  image:Sofia_transform.Image.t ->
  target:int ->
  prev_pc:int ->
  fetch_outcome
(** One frontend fetch-decrypt-verify cycle, exposed for unit tests and
    for the attack analyzer (e.g. to ask "would this diverted edge have
    been accepted?" without running the machine). *)

val fetch_block_observed :
  ?ks_cache:Sofia_crypto.Ctr.Cache.t ->
  obs:Sofia_obs.Obs.t ->
  keys:Sofia_crypto.Keys.t ->
  image:Sofia_transform.Image.t ->
  target:int ->
  prev_pc:int ->
  unit ->
  fetch_outcome
(** {!fetch_block} with the observability sinks attached: emits
    edge-decrypt, MAC-verify and multiplexor-path events and bumps the
    decrypt/MAC counters. [fetch_block] is this with
    {!Sofia_obs.Obs.none}. [ks_cache] memoises per-edge keystream words
    across fetches (see {!Sofia_crypto.Ctr.Cache}); runs are
    bit-identical with or without it. *)
