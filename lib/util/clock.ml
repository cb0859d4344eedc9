(* Monotonic time for deadlines and watchdogs; wall time only for
   reported timestamps. OCaml 5.1's Unix has no clock_gettime, so the
   monotonic source is bechamel's CLOCK_MONOTONIC stub (already a repo
   dependency through the bench harness). *)

let mono_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let wall_s () = Unix.gettimeofday ()
