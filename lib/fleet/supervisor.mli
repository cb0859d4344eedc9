(** The fleet router's supervision core (DESIGN §13/§15): admission,
    content-keyed replay and coalescing, per-shard dispatch windows,
    audit votes, one shard lifecycle (deaths counted over a window,
    backoff-paced restarts, breaker and integrity quarantine, and
    probation rejoin through the same deferred restart) — with no
    process, fd or clock of its own.

    Four entry points feed it events, each stamped with the monotonic
    time [now] in seconds: a client line, a child line, a child
    connection closing, and a tick. Everything it does to the world
    goes through the {!effects} record its driver supplies. {!Router}
    runs them on real processes and fds; the fleet-sim test suite
    drives the same core with simulated children on a virtual clock. The client type ['c] is
    the driver's own: the core only hands it back to {!effects.deliver}. *)

module Types : sig
  type event =
    | Client_response of int
        (** running count of client-visible job responses — the fleet
            tests' "kill a child after K responses" trigger *)
    | Child_up of int * int  (** shard, pid *)
    | Child_down of int * string  (** shard, reason *)
    | Child_rejoin of int * int
        (** shard re-admitted after probation; second field is the
            shard's primary-dispatch count at that instant, so a
            scenario can assert traffic re-shed back afterwards *)

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
        (** a signal started the drain; the driver sets it, and the core
            then leaves quarantined shards as they are: no probation
            restart, probe or watchdog *)
    mutable backoffs : int;  (** deferred (backoff-paced) restarts scheduled *)
    mutable rejoins : int;  (** shards re-admitted after probation *)
    mutable quar_breaker : int;  (** quarantines eligible for rejoin *)
    mutable quar_integrity : int;  (** permanent quarantines (digest liars) *)
    mutable disk_replays : int;  (** replays served from the persistent tier *)
    mutable slow_client_drops : int;  (** clients dropped by the driver's linger *)
    shards : shard_stats array;
  }

  val conserved : stats -> bool
  (** [submitted = done + rejected + timed_out + failed] — the fleet-wide
      terminal-counter conservation law. *)
end

include module type of struct
  include Types
end

val unsettled : stats -> int
(** Admitted jobs not yet answered. *)

(** {1 Supervision constants}

    Today's timings, fixed: nothing deploys another value, and tests
    reach them on a virtual clock. *)

val probe_interval_s : float
(** idle-child ping cadence: 0.25 s *)

val hang_timeout_s : float
(** silence with traffic owed before the watchdog kills a child: 5 s *)

val death_limit : int
(** deaths within {!death_window_s} that quarantine a shard on the
    breaker cause: 3 *)

val death_window_s : float
(** 10 s *)

val redispatch_limit : int
(** child incarnations one job may consume: 2 *)

val rejoin_cooldown_s : float
(** rest of a breaker-quarantined shard before its probation restart:
    30 s. A probation death or a failed probation restart defers that
    restart by the same cooldown again. *)

val rejoin_probes : int
(** consecutive clean probes that re-admit: 3 *)

val restart_backoff_ms : int
(** base crash-restart delay: the nth death within {!death_window_s}
    waits 25 ms * 2^(n-1), plus up to 25% deterministic jitter *)

val replay_cap : int
(** Entries the replay cache (content key → rendered answer) may hold,
    and as many again for the raw-line memo (request tail → content
    key), each an exact LRU. A key evicted from either falls back to a
    full parse, coalescing, the replay tier or a child — never to a
    wrong or unverified payload. *)

(** {1 Effects} *)

(** A settled done response, pre-rendered for replay: the payload tail
    is serialized once, and each replay renders only the metadata. *)
type entry = {
  t_op : string;
  t_status : string;
  t_worker : int;  (** origin shard *)
  t_ts : Sofia_obs.Json.t;  (** origin [ts_unix] *)
  t_tail : string;  (** [",\"k\":v,..."]: the rendered payload fields *)
}

type 'c effects = {
  send : int -> string -> bool;
      (** one request line to shard [k]; [false] = its connection is dead *)
  kill : int -> unit;  (** kill shard [k]'s process and drop its connection *)
  restart : int -> (int, string) result;
      (** a fresh process for shard [k]: its pid, or why it did not come up *)
  deliver : 'c -> string -> unit;
      (** one response line to a client — called exactly once per
          non-blank client line *)
  load : Sofia_service.Job.request -> string -> entry option;
      (** the replay tier's entry for a content key; [None] for a miss,
          including an entry that failed the zero-trust reload *)
  store : Sofia_service.Job.request -> string -> entry -> unit;
  wall : unit -> float;  (** wall-clock seconds, stamped on router verdicts *)
}

(** {1 The core} *)

type 'c t

val create :
  ?obs:Sofia_obs.Obs.t ->
  ?on_event:(event -> unit) ->
  now:float ->
  children:int ->
  window:int ->
  audit_every:int ->
  backend:Sofia_transform.Backend_id.t ->
  'c effects ->
  'c t
(** A core for [children] shards whose processes are already up.
    [window] caps in-flight jobs per shard; every [audit_every]th
    distinct content key is audited (0 = never); [backend] parses lines
    that carry no ["backend"] field, and must match the children's. *)

val stats : 'c t -> stats

val client_line : 'c t -> now:float -> 'c -> Sofia_util.Lines.line -> unit
(** One NDJSON request line from a client. A blank line is counted and
    otherwise ignored; every other line is answered exactly once through
    [deliver], at once (replay, malformed) or when its job settles. A
    [Too_long] line is malformed: one [error] response. *)

val child_line : 'c t -> now:float -> int -> Sofia_util.Lines.line -> unit
(** One response line from shard [k]'s child. A line that is not a JSON
    object, [Too_long] included, is a death. *)

val child_closed : 'c t -> now:float -> draining:bool -> int -> unit
(** Shard [k]'s connection reached EOF. With [draining] (no more client
    input is coming) a child that owes nothing has exited in order;
    anything else is a death. *)

val tick : 'c t -> now:float -> unit
(** Housekeeping: deferred restarts (crash-restarts and probation
    alike), the hang watchdog and probes. The driver calls it after
    every round of events. *)

val stats_json : 'c t -> Sofia_obs.Json.t
(** The router counters, including [replay_entries],
    [replay_evictions], [memo_hits] and [memo_evictions]. *)

val shards_json : 'c t -> Sofia_obs.Json.t
(** Per-shard counters with p50/p99 router-observed latency. *)
