(** Monotonic counters and histograms for the SOFIA pipeline.

    The counter set mirrors the per-stage event counts that
    encryption-based CFI evaluations report (decryptions performed,
    MACs checked, faults detected): one mutable record, fields bumped
    directly on the hot path — no hashing, no boxing, no allocation.
    The record is deliberately concrete so the runners can write
    [m.retires <- m.retires + 1]. *)

type histogram = {
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
  buckets : int array;
      (** log2 buckets: index [i] counts values in [[2^i, 2^(i+1))];
          index 0 also absorbs values [<= 1], index 30 is a catch-all *)
}

val hist_create : unit -> histogram
val hist_observe : histogram -> int -> unit

val hist_observe_n : histogram -> int -> int -> unit
(** [hist_observe_n h v n] is [n] calls of [hist_observe h v]. *)

val hist_mean : histogram -> float
val hist_reset : histogram -> unit
val hist_to_json : histogram -> Json.t

type t = {
  mutable block_fetches : int;  (** frontend fetch requests (pre-memo) *)
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable words_decrypted : int;  (** CTR keystream words generated *)
  mutable mac_verifies : int;
  mutable mac_failures : int;
  mutable mux_path1 : int;
  mutable mux_path2 : int;
  mutable blocks_entered : int;  (** verified blocks that began executing *)
  mutable retires : int;
  mutable violations : int;
  mutable resets : int;
  mutable icache_hits : int;
  mutable icache_misses : int;
  mutable ks_cache_hits : int;  (** per-edge keystream cache (when enabled) *)
  mutable ks_cache_misses : int;
  mutable ks_cache_evictions : int;
  mutable engine_hits : int;
      (** fast engine: block visits served from the pre-decoded cache
          (SOFIA: verified blocks per edge; vanilla: line-bounded
          straight-line blocks per entry address) *)
  mutable engine_misses : int;  (** fast engine: block compilations *)
  mutable engine_invalidations : int;
      (** fast engine: pre-decoded cache flushes (violation/reset) *)
  mutable engine_traces : int;
      (** fast engine: superblock entries — each runs a hot cycle of
          verified blocks, accounted once per iteration, until a slot
          leaves the cycle or fuel would run short *)
  mutable verify_checks : int;  (** offline image-verifier block checks *)
  mutable verify_issues : int;
  block_cycles : histogram;  (** cycle cost per executed block visit *)
}

val create : unit -> t

val reset : t -> unit

val counters : t -> (string * int) list
(** All scalar counters, in declaration order, with stable names (the
    JSON field names). *)

val to_json : t -> Json.t
(** Counters plus the histogram summary — the ["obs"] object of
    [BENCH_*.json] files. *)

val pp : Format.formatter -> t -> unit
(** Human-readable table of the non-zero counters. *)
