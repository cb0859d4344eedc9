(** The fleet router: [N] real [sofia_cli serve --socket --once] child
    processes behind one single-threaded select loop.

    Jobs shard deterministically by image content hash ({!Shard.route});
    PR 4's supervision machinery — watchdog, crash-restart, circuit
    breaker, graceful drain — is promoted one level up to supervise
    whole processes, which (unlike OCaml domains) can actually be
    killed. The loop serves any number of concurrent clients (pipes,
    AF_UNIX or TCP accepts) with per-client buffers, so one stalled
    reader never blocks the fleet.

    Children are {e untrusted-but-supervised} (DESIGN §13): the router
    never fabricates a payload, but it renames jobs on the child hop,
    replays deterministic duplicates from a content-keyed cache, and
    audit-samples distinct keys to a second shard, settling
    disagreements by a third-shard majority vote and quarantining the
    liar. The byte-identical payload guarantee of single-process
    [serve] is preserved end to end.

    Survivability (DESIGN §15): crash-restarts are paced by
    exponential backoff with deterministic jitter and bounded by a
    restart budget over a sliding window; breaker quarantines are
    probed back into service after a cooldown (probation: K
    consecutive clean probes re-admit the shard and its traffic
    re-sheds back home), while integrity quarantines are permanent;
    and the replay cache can persist across router restarts through
    the §12 [store_fs] envelope tier with a zero-trust reload. *)

type event =
  | Client_response of int
      (** running count of client-visible job responses — the fault
          campaign's "kill a child after K responses" trigger *)
  | Child_up of int * int  (** shard, pid *)
  | Child_down of int * string  (** shard, reason *)
  | Child_rejoin of int * int
      (** shard re-admitted after probation; second field is the
          shard's primary-dispatch count at that instant, so a
          scenario can assert traffic re-shed back afterwards *)

type config = {
  children : int;  (** shard count (>= 1) *)
  workers : int;  (** engine workers per child *)
  queue : int;  (** per-child engine queue capacity *)
  cli : string option;  (** sofia_cli path; [None] = {!Child.find_cli} *)
  socket_dir : string option;
      (** [None] = fresh temp dir, removed after. A provided dir is
          janitored at startup: probe-dead [shard-*.sock] files, stale
          [metrics-*.json] and [*.tmp] debris from a killed fleet are
          removed; live sockets and plain files are left alone. *)
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
  probe_interval_ms : int;  (** idle-child ping cadence; 0 = off *)
  hang_timeout_ms : int;  (** silence-with-traffic-owed before SIGKILL *)
  breaker_threshold : int;  (** consecutive deaths before quarantine *)
  redispatch_limit : int;  (** child incarnations one job may consume *)
  child_extra_args : (int -> string list) option;
      (** per-shard extra serve flags (the fault campaign's skew /
          digest-flip / poison-job hooks) *)
  on_event : (event -> unit) option;
  replay_dir : string option;
      (** persistent replay-cache directory ({!Sofia_store_fs}); [None]
          (default) keeps the replay cache memory-only. Entries are
          sealed Replay envelopes under the request's own derived keys
          and reloaded zero-trust (envelope checks + re-derived payload
          fingerprint) — a tampered entry is a miss, never served. *)
  rejoin_cooldown_ms : int;
      (** how long a breaker-quarantined shard rests before a probation
          restart; 0 disables rejoin entirely *)
  rejoin_probes : int;
      (** consecutive clean probe responses required to re-admit *)
  restart_backoff_ms : int;
      (** base crash-restart delay (doubles per death, capped at 2s) *)
  restart_budget : int;
      (** restarts allowed per shard within the budget window before
          the shard is quarantined (breaker cause); 0 = unlimited *)
  restart_budget_window_ms : int;
  client_linger_ms : int;
      (** a client whose write buffer stays undrained this long is
          dropped (slow-client isolation); 0 = never *)
}

val default_config : config
(** 3 children, 1 worker each, [Fast] engine, window 32, audit every
    16th distinct key, 250ms probes, 5s hang timeout, breaker at 3.
    Survivability defaults: 25ms base backoff, 6 restarts
    per 10s budget window, 30s rejoin cooldown with 3 clean probes,
    5s slow-client linger, no persistent replay dir. *)

type shard_stats = {
  ss_shard : int;
  mutable ss_routed : int;
  mutable ss_done : int;
  mutable ss_deaths : int;
  mutable ss_restarts : int;
  mutable ss_hangs : int;
  mutable ss_quarantined : bool;
  ss_lat_ms : float array;
      (** ring of the most recent router-observed latencies; slot
          [i mod length] holds the [i]th *)
  mutable ss_lat_n : int;  (** latencies ever recorded *)
}

type stats = {
  mutable received : int;
  mutable malformed : int;
  mutable submitted : int;
  mutable done_ : int;
  mutable rejected : int;
  mutable timed_out : int;
  mutable failed : int;
  mutable replays : int;  (** answered from the content-keyed cache *)
  mutable coalesced : int;  (** duplicates parked behind an in-flight primary *)
  mutable audits : int;
  mutable digest_conflicts : int;  (** audit votes that caught a disagreement *)
  mutable deaths : int;
  mutable restarts : int;
  mutable hangs : int;
  mutable quarantines : int;
  mutable resheds : int;  (** jobs routed off a quarantined home shard *)
  mutable interrupted : bool;
  mutable backoffs : int;  (** deferred (backoff-paced) restarts scheduled *)
  mutable rejoins : int;  (** shards re-admitted after probation *)
  mutable quar_breaker : int;  (** quarantines eligible for rejoin *)
  mutable quar_integrity : int;  (** permanent quarantines (digest liars) *)
  mutable disk_replays : int;  (** replays served from the persistent tier *)
  mutable slow_client_drops : int;  (** clients dropped by the linger *)
  shards : shard_stats array;
}

val conserved : stats -> bool
(** [submitted = done + rejected + timed_out + failed] — the fleet-wide
    terminal-counter conservation law. *)

val replay_cap : int
(** Entries the replay cache (content key → rendered answer) may hold,
    and as many again for the raw-line memo (request tail → content
    key), each an exact LRU. A key evicted from either falls back to a
    full parse, coalescing, the [replay_dir] reload or a child — never
    to a wrong or unverified payload. The fleet metrics document's
    [router] object reports [replay_entries] (at most this) and
    [replay_evictions]. *)

val run :
  ?obs:Sofia_obs.Obs.t ->
  ?signals:bool ->
  config ->
  client_in:Unix.file_descr ->
  client_out:Unix.file_descr ->
  stats * Sofia_obs.Json.t
(** Spawn the fleet, serve NDJSON requests from [client_in] to
    [client_out] until client EOF (or, with [signals:true], until
    SIGINT/SIGTERM starts a graceful drain), then stop the children
    ([--once] children drain and exit at EOF; stragglers are killed)
    and return the router stats plus the fleet metrics document
    (router counters, per-shard latency percentiles, each child's own
    [serve --json] metrics and, when [replay_dir] is set, the
    persistent replay store's counters). No child outlives the call.

    @raise Failure when no sofia_cli binary can be located.
    @raise Child.Child_failed when a child never comes up at start. *)

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
