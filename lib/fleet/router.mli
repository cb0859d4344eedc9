(** The fleet router: [N] real [sofia_cli serve --stdin] child
    processes, each on its own two pipes, behind one single-threaded
    select loop — the Unix driver of {!Supervisor}, which makes every
    supervision decision.

    Jobs shard deterministically by image content hash ({!Shard.route});
    the router supervises whole processes — watchdog, crash-restart,
    circuit breaker, graceful drain — because a process, unlike an
    OCaml domain, can actually be killed; it is the serving stack's
    only supervisor. Each child is [serve --stdin --workers 1]: the
    fleet's unit of parallelism is the process. The loop serves any
    number of concurrent clients (pipes, AF_UNIX or TCP accepts) with
    per-client buffers, so one stalled reader never blocks the fleet;
    a client line longer than {!Sofia_util.Lines.max_line} is answered
    with one [error] and never buffered whole; requests to each child
    wait in its own nonblocking output buffer, bounded by the window,
    so one stopped child never blocks it either (the hang watchdog
    kills it).

    Children are {e untrusted-but-supervised} (DESIGN §13): the router
    never fabricates a payload, but it renames jobs on the child hop,
    replays deterministic duplicates from a content-keyed cache, and
    audit-samples distinct keys to a second shard, settling
    disagreements by a third-shard majority vote and quarantining the
    liar. The byte-identical payload guarantee of single-process
    [serve] is preserved end to end.

    Survivability (DESIGN §15): one death rule paces and bounds a
    crashing shard — each death within a 10 s window defers its
    restart by an exponential backoff with deterministic jitter, and
    the third quarantines it on the breaker cause; breaker quarantines
    are probed back into service after a cooldown (probation: K
    consecutive clean probes re-admit the shard and its traffic
    re-sheds back home), while integrity quarantines are permanent;
    and the replay cache can persist across router restarts through
    the §12 [store_fs] envelope tier with a zero-trust reload. *)

include module type of struct
  include Supervisor.Types
end

type config = {
  children : int;  (** shard count (>= 1) *)
  queue : int;  (** per-child engine queue capacity *)
  cli : string;  (** the sofia_cli binary; a bare name is looked up in [PATH] *)
  store_dir : string option;  (** parent dir; child [k] gets [shard-k/] *)
  store_budget : int;
  engine : Sofia_cpu.Run_config.engine;  (** [--engine] forwarded to children *)
  backend : Sofia_transform.Backend_id.t;
      (** fleet-default protection backend (default SOFIA). Forwarded
          to children as [--backend] (omitted when SOFIA, so all-SOFIA
          fleets spawn pre-backend command lines) and used to parse
          client lines that carry no ["backend"] field — router and
          children must agree on the default, or the replay cache
          could alias one backend's payload under the other's key. *)
  default_deadline_ms : int option;
  window : int;  (** max in-flight jobs per child (< child queue) *)
  audit_every : int;  (** audit every Nth distinct content key; 0 = off *)
  child_extra_args : (int -> string list) option;
      (** per-shard extra serve flags ([fleet_tests]' skew /
          digest-flip / poison-job hooks) *)
  on_event : (event -> unit) option;
  replay_dir : string option;
      (** persistent replay-cache directory ({!Sofia_store_fs}); [None]
          (default) keeps the replay cache memory-only. Entries are
          sealed Replay envelopes under the request's own derived keys
          and reloaded zero-trust (envelope checks + re-derived payload
          fingerprint) — a tampered entry is a miss, never served. *)
  client_linger_ms : int;
      (** a client whose write buffer stays undrained this long is
          dropped (slow-client isolation) *)
}

val default_config : config
(** 3 children of the [sofia_cli] in [PATH], [Fast] engine, window 32,
    audit every 16th distinct key, 5 s slow-client linger, no
    persistent replay dir. The supervision timings are {!Supervisor}'s
    constants. *)

val replay_cap : int
(** {!Supervisor.replay_cap}. The fleet metrics document's [router]
    object reports [replay_entries] (at most this), [replay_evictions],
    and the raw-line memo's [memo_hits] and [memo_evictions]. *)

val run :
  ?obs:Sofia_obs.Obs.t ->
  ?signals:bool ->
  config ->
  client_in:Unix.file_descr ->
  client_out:Unix.file_descr ->
  stats * Sofia_obs.Json.t
(** Spawn the fleet, wait until every child has answered one ping on
    its pipes (all at once, {!Child.ready_timeout_s} at most), serve
    NDJSON requests from [client_in] to [client_out] until client EOF
    (or, with [signals:true], until SIGINT/SIGTERM starts a graceful
    drain), then stop the children (each reads EOF, drains and exits;
    stragglers are killed) and return the router stats plus the fleet
    metrics document (router counters, per-shard latency percentiles,
    each child's own [serve --json] metrics, written to a private temp
    dir that is removed before the call returns, and, when
    [replay_dir] is set, the persistent replay store's counters). No
    child outlives the call.

    @raise Child.Child_failed when a child does not come up at start
    (the message names its shard); every child is killed first. *)

val run_clients :
  ?obs:Sofia_obs.Obs.t ->
  ?signals:bool ->
  config ->
  clients:(Unix.file_descr * Unix.file_descr) list ->
  stats * Sofia_obs.Json.t
(** Like {!run} with several concurrent pre-connected clients, each an
    [(in, out)] fd pair served fairly from the same select loop. The
    fds are set nonblocking (a stalled reader buffers, then trips the
    linger) but remain owned by the caller. Returns once every client
    has reached EOF and every admitted job has settled. *)

val run_listener :
  ?obs:Sofia_obs.Obs.t ->
  ?signals:bool ->
  config ->
  listen_fd:Unix.file_descr ->
  accepts:int ->
  stats * Sofia_obs.Json.t
(** Like {!run} but clients arrive by [accept] on [listen_fd] (AF_UNIX
    or TCP — the router does not care), each served concurrently until
    its own EOF. [accepts] bounds how many connections are taken
    (negative = unlimited, until a signal stops the loop); the call
    returns when no more accepts are pending, every connected client
    has finished and all work has settled. The listening fd itself is
    never closed — it belongs to the caller. *)
