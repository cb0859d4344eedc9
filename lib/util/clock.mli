(** Time sources, split by purpose.

    Durations, deadlines and watchdog timeouts must come from the
    {e monotonic} clock: a wall-clock step (NTP slew, manual reset,
    leap adjustment) would otherwise instantly expire — or immortalize
    — every pending deadline. Wall time is only ever for {e reported}
    timestamps (log lines, response metadata).

    The monotonic source is [CLOCK_MONOTONIC] via bechamel's stub
    (OCaml 5.1's [Unix] does not expose [clock_gettime]). *)

val mono_s : unit -> float
(** Monotonic seconds since an arbitrary epoch. Use only for
    differences, never as a timestamp. *)

val wall_s : unit -> float
(** [Unix.gettimeofday] — reported timestamps only. *)
