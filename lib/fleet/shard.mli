(** The fleet's deterministic shard map.

    Jobs are sharded by {e image content hash}: FNV-1a-64 over the
    (source, key seed, ω/nonce, backend) tuple — the same tuple that
    keys the content-addressed image stores (the backend component is
    appended only when it is not SOFIA, keeping all-SOFIA shard maps
    byte-identical to pre-backend routers). Two consequences the fleet
    relies on:

    - {b determinism}: the map is a pure function of the request, so
      the same job routes to the same shard across router restarts
      with no shared state (test/fleet_tests.ml pins this as a
      property);
    - {b store affinity}: every op touching one image (protect, then
      its verify/attest/simulate) lands on the shard whose in-memory
      LRU and on-disk tier already hold it — a fleet of [n] children
      builds each distinct image exactly once. *)

val route_key : Sofia_service.Job.request -> string
(** The (source|seed|ω[|backend]) routing tuple; ops deliberately
    excluded. *)

val route : shards:int -> Sofia_service.Job.request -> int
(** Shard index in [\[0, shards)]. Pure. *)

val content_key : Sofia_service.Job.request -> string
(** Replay-cache key: {!route_key} plus the op (and simulate target
    core) — everything that determines the response payload. *)

val replayable : Sofia_service.Job.request -> bool
(** Whether the op is a deterministic function of {!content_key}
    (protect/verify/attest/simulate — yes; run_image/ping — no). *)
