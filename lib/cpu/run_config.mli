(** Shared runner configuration. *)

type engine =
  | Fast
      (** the verified-block execution engine: blocks are compiled to a
          pre-decoded flat representation ({!Decoded}) once MAC-verified
          and executed from that cache on every revisit *)
  | Ref
      (** the original per-instruction interpreter, kept as the oracle
          for A/B and differential testing *)

type t = {
  timing : Timing.t;
  icache : Icache.config;
  mem_size : int;  (** RAM bytes *)
  fuel : int;  (** maximum retired instructions before [Out_of_fuel] *)
  ks_cache_slots : int option;
      (** [Some n]: the SOFIA frontend keeps a bounded per-edge
          keystream cache of [n] slots (see {!Sofia_crypto.Ctr.Cache});
          [None] (the default) disables it. Purely a performance knob —
          runs are bit-identical either way. *)
  engine : engine;
      (** Which execution engine runs verified code (default {!Fast}).
          The architectural result, the retired-instruction stream and
          the trace event stream are bit-identical between the two;
          only the engine's own metrics counters
          ([engine_hits]/[engine_misses]/[engine_invalidations])
          differ. *)
  edge_memo : bool;
      (** [true] (the default): the SOFIA frontend memoises decrypt+MAC
          outcomes per (target, prevPC) edge, as a pure simulation
          speedup. [false] models the hardware frontend faithfully —
          every fetch re-decrypts and re-verifies — which is the
          configuration where [ks_cache_slots] carries real load.
          The architectural result is bit-identical either way; memo
          trace events and decrypt/MAC counters reflect the chosen
          mode. *)
  backend : Sofia_transform.Backend_id.t;
      (** Which protection backend to build/load images with (default
          [Sofia]). Execution itself always follows the image's own
          backend tag; this field is the plumbing the service and CLI
          layers use to carry the requested backend alongside the
          other run parameters. *)
}

val default : t
(** LEON3-class timing, 4 KiB I-cache, 1 MiB RAM, 400 M-instruction
    fuel, keystream cache off, fast engine, edge memo on. *)

val initial_sp : t -> int
(** Stack pointer at reset: top of RAM, 16-byte aligned. *)

val engine_name : engine -> string
