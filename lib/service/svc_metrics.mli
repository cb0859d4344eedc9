(** Serving-layer counters and per-job-type latency histograms.

    The accounting contract the saturation tests pin down: every
    submitted job ends in exactly one terminal state, so

    [submitted = completed + rejected + timed_out + failed]

    always holds once the engine has drained ({!terminal_sum}).
    [service_errors] counts wire-level garbage (malformed JSON lines)
    that never became a job and response callbacks that raised —
    outside the invariant.

    Latency histograms reuse the log2-bucket histogram of
    {!Sofia_obs.Metrics} (admission → terminal response, in
    microseconds), one per job type, and serialise into the same bench
    JSON shape. All mutation happens under the engine's result lock;
    the record itself is not synchronised. *)

type t = {
  mutable submitted : int;
  mutable completed : int;  (** terminal [Done] *)
  mutable rejected : int;
  mutable timed_out : int;
  mutable failed : int;
  mutable service_errors : int;
  protect_latency_us : Sofia_obs.Metrics.histogram;
  verify_latency_us : Sofia_obs.Metrics.histogram;
  simulate_latency_us : Sofia_obs.Metrics.histogram;
  attest_latency_us : Sofia_obs.Metrics.histogram;
  run_image_latency_us : Sofia_obs.Metrics.histogram;
}

val create : unit -> t

val observe_latency : t -> op:string -> us:int -> unit
(** Unknown op names are counted into the closest bucket-less sink —
    i.e. ignored (the engine only produces the five known ops). *)

val terminal_sum : t -> int

val counters : t -> (string * int) list
val to_json : t -> Sofia_obs.Json.t
val pp : Format.formatter -> t -> unit
